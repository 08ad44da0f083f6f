"""Shared domain types for delay-aware stochastic control.

The state of a controlled diffusion with memory is summarized by three
coordinates at each time t:

    x  = X(t)                         current state
    x1 = ∫_{-δ}^{0} e^{λτ} X(t+τ) dτ  exponentially weighted moving average
    x2 = X(t − δ)                     pointwise delayed state

This module holds the containers shared by the simulation, verification,
and closed-form layers: delay parameters, the sliding sample buffer that
realizes (x1, x2) on a uniform grid, structured model coefficients, feedback
policies, and the simulation configuration.  It also owns the splitmix64
counter hash behind the per-path seeds and Brownian increments, so that
every path is reproducible in isolation, and the long-format CSV writer
shared by the forward, backward and adjoint artifacts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Literal, Sequence, TextIO

import numpy as np

Array = np.ndarray

# np.trapz was renamed to np.trapezoid in numpy 2.0
_trapezoid = getattr(np, "trapezoid", None) or np.trapz


class DelayLabError(Exception):
    """Base class for all errors raised by this package."""


class InvalidStateError(DelayLabError):
    """A container is in a state that violates its own invariants."""


class DomainError(DelayLabError):
    """An evaluation was requested outside the mathematical domain."""


class ConstraintViolationError(DelayLabError):
    """Model parameters violate a structural constraint."""


class ConfigError(DelayLabError):
    """A configuration value is malformed or inconsistent."""


class SimulationDivergedError(DelayLabError):
    """The simulated state left the finite range.

    Attributes
    ----------
    step : index of the time step at which divergence was detected.
    n_bad : number of paths that diverged at that step.
    """

    def __init__(self, step: int, n_bad: int = 1):
        super().__init__(
            f"simulation diverged at step {step} on {n_bad} path(s)"
        )
        self.step = step
        self.n_bad = n_bad


# ---------------------------------------------------------------------------
# Delay parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelParams:
    """Delay and horizon parameters shared by every model.

    Parameters
    ----------
    lam : decay rate λ ≥ 0 of the moving-average weight e^{λτ}
    delta : delay length δ ≥ 0
    horizon_T : terminal time T
    start_s : initial time s, with s < T
    """

    lam: float
    delta: float
    horizon_T: float
    start_s: float = 0.0

    def __post_init__(self):
        if self.lam < 0.0:
            raise InvalidStateError(f"lam must be >= 0, got {self.lam}")
        if self.delta < 0.0:
            raise InvalidStateError(f"delta must be >= 0, got {self.delta}")
        if not self.start_s < self.horizon_T:
            raise InvalidStateError(
                f"need start_s < horizon_T, got [{self.start_s}, {self.horizon_T}]"
            )

    @property
    def e_minus(self) -> float:
        """e^{-λδ}, the weight of the pointwise delay term."""
        return math.exp(-self.lam * self.delta)

    @property
    def e_plus(self) -> float:
        """e^{+λδ}, the factor appearing in the compatibility conditions."""
        return math.exp(self.lam * self.delta)


# ---------------------------------------------------------------------------
# Delay buffer
# ---------------------------------------------------------------------------


@dataclass
class DelayBuffer:
    """Window of state samples covering [t − δ, t] on a uniform grid.

    samples[0] is the oldest value X(t − δ) and samples[-1] is X(t);
    from_initial_path fills it with exactly round(δ/h) + 1 samples.
    """

    step_h: float
    samples: Array

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.step_h <= 0.0:
            raise InvalidStateError(f"step_h must be > 0, got {self.step_h}")
        if self.samples.ndim != 1 or self.samples.size < 1:
            raise InvalidStateError("samples must be a non-empty 1-d array")

    @classmethod
    def from_initial_path(
        cls,
        path: Callable[[float], float],
        delta: float,
        step_h: float,
    ) -> "DelayBuffer":
        """Sample an initial segment φ(τ), τ ∈ [−δ, 0], onto the grid.

        The step must divide δ exactly (up to rounding noise); otherwise the
        pointwise delay X(t − δ) would fall between grid nodes.
        """
        n = lag_steps(delta, step_h)
        tau = -delta + step_h * np.arange(n + 1)
        tau[-1] = 0.0
        values = np.array([float(path(float(t))) for t in tau])
        return cls(step_h=step_h, samples=values)

    @property
    def delta(self) -> float:
        """Delay length spanned by the buffer."""
        return self.step_h * (self.samples.size - 1)


def lag_steps(delta: float, step_h: float) -> int:
    """Number of grid steps spanned by the delay; raises if h does not divide δ."""
    if step_h <= 0.0:
        raise ConfigError(f"step must be > 0, got {step_h}")
    n = int(round(delta / step_h))
    if abs(n * step_h - delta) > 1e-9 * max(1.0, delta):
        raise ConfigError(
            f"step {step_h} does not divide delay {delta} evenly"
        )
    return n


def x1_of_buffer(buffer: DelayBuffer, lam: float) -> float:
    """Trapezoidal approximation of ∫_{-δ}^{0} e^{λτ} X(t+τ) dτ.

    A zero delay collapses the integral to 0 exactly.
    """
    n = buffer.samples.size
    if n == 1:
        return 0.0
    delta = buffer.delta
    tau = np.linspace(-delta, 0.0, n)
    return float(_trapezoid(np.exp(lam * tau) * buffer.samples, dx=buffer.step_h))


# ---------------------------------------------------------------------------
# Per-path seeding
# ---------------------------------------------------------------------------

SPLITMIX64_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM_M1 = np.uint64(0xBF58476D1CE4E5B9)
_SM_M2 = np.uint64(0x94D049BB133111EB)


def splitmix64_mix(z):
    """The splitmix64 finalizer, a bijection on 64-bit words.

    Word j of the splitmix64 stream seeded at s is splitmix64_mix(s + γ·(j+1))
    with γ = SPLITMIX64_GAMMA (Steele, Lea & Flood, OOPSLA 2014), so any word
    can be computed without the ones before it.  Takes a scalar or an array
    of uint64 and returns a new uint64 array of the same shape.
    """
    z = np.array(z, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z ^= z >> np.uint64(30)
        z *= _SM_M1
        z ^= z >> np.uint64(27)
        z *= _SM_M2
        z ^= z >> np.uint64(31)
    return z


def derive_path_seed(master_seed: int, path_index):
    """Derive a 64-bit per-path seed from a master seed and a path index.

    The seed is word `index` of the splitmix64 stream seeded at the master
    seed.  Both maps are bijections on 64-bit integers, so distinct indices
    under one master seed can never collide.  Accepts a scalar index or an
    integer array.
    """
    idx = np.asarray(path_index, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = np.uint64(master_seed & 0xFFFFFFFFFFFFFFFF) + SPLITMIX64_GAMMA * (idx + np.uint64(1))
    z = splitmix64_mix(z)
    if z.ndim == 0:
        return int(z)
    return z


# ---------------------------------------------------------------------------
# Controls, models, policies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ControlBox:
    """Axis-aligned box of admissible control vectors."""

    lower: Array
    upper: Array

    def __post_init__(self):
        object.__setattr__(self, "lower", np.atleast_1d(np.asarray(self.lower, float)))
        object.__setattr__(self, "upper", np.atleast_1d(np.asarray(self.upper, float)))
        if self.lower.shape != self.upper.shape:
            raise InvalidStateError("lower/upper must have matching shapes")
        if np.any(self.lower > self.upper):
            raise InvalidStateError("lower bound exceeds upper bound")

    @property
    def n_controls(self) -> int:
        return self.lower.size

    def clamp(self, u: Array) -> Array:
        u = np.asarray(u, float)
        lo = self.lower.reshape((-1,) + (1,) * (u.ndim - 1))
        hi = self.upper.reshape((-1,) + (1,) * (u.ndim - 1))
        return np.clip(u, lo, hi)

    def axis_grid(self, i: int, n: int) -> Array:
        """Uniform grid of n nodes along control coordinate i."""
        return np.linspace(self.lower[i], self.upper[i], n)


@dataclass
class StructuredModel:
    """Controlled dynamics with coefficients affine in the pointwise delay.

    Forward drift and generator split as

        b(t, x, x1, x2, u)        = b1(t, x, x1, u) + b2(t, x, x1, u) · x2
        f(t, x, x1, x2, y, z, u)  = f1(t, x, x1, y, z, u) + f2(t, x, x1, y, z, u) · x2

    while the diffusion sigma(t, x, x1, u) carries no x2 dependence.  phi(x, x1)
    is the terminal payoff of the backward equation.  All coefficient callables
    must broadcast over numpy arrays; the control u is passed as an array whose
    leading axis indexes control coordinates.

    Optional f_y / f_z are analytic partial derivatives of the full generator
    in the (y, z) slots with signature (t, x, x1, x2, y, z, u); when absent
    they are approximated by central differences.
    """

    params: ModelParams
    b1: Callable
    b2: Callable
    sigma: Callable
    f1: Callable
    f2: Callable
    phi: Callable
    control_set: ControlBox
    f_y: Callable | None = None
    f_z: Callable | None = None

    def drift(self, t, x, x1, x2, u):
        return self.b1(t, x, x1, u) + self.b2(t, x, x1, u) * x2

    def generator(self, t, x, x1, x2, y, z, u):
        return self.f1(t, x, x1, y, z, u) + self.f2(t, x, x1, y, z, u) * x2

    def f_y_value(self, t, x, x1, x2, y, z, u, step: float = 1e-6):
        if self.f_y is not None:
            return self.f_y(t, x, x1, x2, y, z, u)
        e = step * (1.0 + np.abs(y))
        up = self.generator(t, x, x1, x2, y + e, z, u)
        dn = self.generator(t, x, x1, x2, y - e, z, u)
        return (up - dn) / (2.0 * e)

    def f_z_value(self, t, x, x1, x2, y, z, u, step: float = 1e-6):
        if self.f_z is not None:
            return self.f_z(t, x, x1, x2, y, z, u)
        e = step * (1.0 + np.abs(z))
        up = self.generator(t, x, x1, x2, y, z + e, u)
        dn = self.generator(t, x, x1, x2, y, z - e, u)
        return (up - dn) / (2.0 * e)


@dataclass
class FeedbackPolicy:
    """Deterministic feedback control u(t, x, x1).

    evaluate(t, x, x1) returns an array whose leading axis has length
    n_controls and whose trailing shape broadcasts with x.
    """

    evaluate: Callable[[float, Array, Array], Array]
    n_controls: int = 1
    label: str = "policy"

    def at(self, t: float, x, x1) -> Array:
        x = np.asarray(x, float)
        u = np.asarray(self.evaluate(t, x, np.asarray(x1, float)), float)
        target = (self.n_controls,) + x.shape
        return np.broadcast_to(u, target).astype(float)


def constant_policy(values: Sequence[float], label: str = "constant") -> FeedbackPolicy:
    """Policy that returns the same control vector at every state."""
    vec = np.atleast_1d(np.asarray(values, float))

    def evaluate(t, x, x1):
        x = np.asarray(x, float)
        return vec.reshape((vec.size,) + (1,) * x.ndim) * np.ones_like(x)

    return FeedbackPolicy(evaluate=evaluate, n_controls=vec.size, label=label)


# ---------------------------------------------------------------------------
# Simulation configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimConfig:
    """Discretization and sampling parameters for forward/backward passes."""

    n_steps: int
    n_paths: int
    master_seed: int
    x1_method: Literal["ode_recursion", "quadrature"] = "ode_recursion"

    def __post_init__(self):
        if self.n_steps < 1:
            raise ConfigError(f"n_steps must be >= 1, got {self.n_steps}")
        if self.n_paths < 1:
            raise ConfigError(f"n_paths must be >= 1, got {self.n_paths}")
        if self.x1_method not in ("ode_recursion", "quadrature"):
            raise ConfigError(f"unknown x1_method {self.x1_method!r}")

    def step_size(self, params: ModelParams) -> float:
        return (params.horizon_T - params.start_s) / self.n_steps

    def validate_grid(self, params: ModelParams) -> int:
        """Check that the step divides δ; returns the lag in steps."""
        return lag_steps(params.delta, self.step_size(params))


# ---------------------------------------------------------------------------
# Long-format CSV artifacts
# ---------------------------------------------------------------------------

# Rows formatted per write in write_long_csv; bounds the block's table and
# string next to the columns themselves.
CSV_BLOCK_ROWS = 1 << 13


def write_long_csv(
    stream: TextIO, names: Sequence[str], times: Array, columns: Sequence[Array]
) -> None:
    """Write (n_paths, n_nodes) columns in long format: path,t,<names>.

    One row per path and node, path by path.  Every value is written as
    '%.17g' % v, the same text as format(float(v), '.17g'), so the file
    round-trips every float64.  A column one node short (the Brownian
    increments) is blank at the terminal node.
    """
    n_nodes = times.size
    n_paths = columns[0].shape[0]
    stream.write(",".join(["path", "t", *names]) + "\n")
    cells = ["%d", "%.17g"]
    row = ",".join(cells + ["%.17g"] * len(columns)) + "\n"
    # '%.0s' consumes the terminal node's unused slot and prints nothing.
    last = ",".join(
        cells + ["%.17g" if c.shape[1] == n_nodes else "%.0s" for c in columns]
    ) + "\n"
    per_path = row * (n_nodes - 1) + last
    paths_per_block = max(1, CSV_BLOCK_ROWS // n_nodes)
    for start in range(0, n_paths, paths_per_block):
        stop = min(start + paths_per_block, n_paths)
        table = np.zeros((stop - start, n_nodes, 2 + len(columns)))
        table[:, :, 0] = np.arange(start, stop)[:, np.newaxis]
        table[:, :, 1] = times
        for j, col in enumerate(columns):
            table[:, : col.shape[1], 2 + j] = col[start:stop]
        stream.write(per_path * (stop - start) % tuple(table.ravel().tolist()))
