"""Shared domain types for delay-aware stochastic control.

The state of a controlled diffusion with memory is summarized by three
coordinates at each time t:

    x  = X(t)                         current state
    x1 = ∫_{-δ}^{0} e^{λτ} X(t+τ) dτ  exponentially weighted moving average
    x2 = X(t − δ)                     pointwise delayed state

This module holds the containers shared by the simulation, verification,
and closed-form layers: delay parameters, the sampled initial segment with
its moving average x1(s), structured model coefficients, feedback policies,
and the simulation configuration.  It also owns the splitmix64
counter hash behind the per-path seeds and Brownian increments, so that
every path is reproducible in isolation, the long-format CSV writer
shared by the forward, backward and adjoint artifacts, and the node-row
blocks over which the ensemble checks walk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, TextIO

import numpy as np

Array = np.ndarray

# np.trapz was renamed to np.trapezoid in numpy 2.0
_trapezoid = getattr(np, "trapezoid", None) or np.trapz


class DelayLabError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(DelayLabError):
    """An evaluation was requested outside the mathematical domain."""


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


def nan_max(*values: float) -> float:
    """max(values), or NaN when any value is NaN.

    Python's max keeps its first argument against a NaN, so a fold of check
    residuals would report the worst finite one when a residual could not be
    evaluated.  On finite values this is max itself, bit for bit.
    """
    return math.nan if any(math.isnan(v) for v in values) else max(values)


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
            raise ConfigError(f"lam must be >= 0, got {self.lam}")
        if self.delta < 0.0:
            raise ConfigError(f"delta must be >= 0, got {self.delta}")
        if not self.start_s < self.horizon_T:
            raise ConfigError(
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
# Initial segment
# ---------------------------------------------------------------------------


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


def initial_segment(
    path: Callable[[float], float], delta: float, lam: float, step_h: float
) -> tuple[Array, float]:
    """The initial segment φ(τ), τ ∈ [−δ, 0], sampled onto the grid, and x1(s).

    Returns the round(δ/h) + 1 samples, oldest first (samples[0] = φ(−δ) is
    the first x2, samples[-1] = φ(0) the first x), and the trapezoidal
    approximation of x1(s) = ∫_{-δ}^{0} e^{λτ} φ(τ) dτ over them.  The step
    must divide δ exactly (up to rounding noise); otherwise the pointwise
    delay X(t − δ) would fall between grid nodes.  A zero delay leaves one
    sample, whose trapezoid is an empty sum: x1(s) is 0 exactly.
    """
    n = lag_steps(delta, step_h)
    tau = -delta + step_h * np.arange(n + 1)
    tau[-1] = 0.0
    samples = np.array([float(path(float(t))) for t in tau])
    weights = np.exp(lam * np.linspace(-step_h * n, 0.0, n + 1))
    return samples, float(_trapezoid(weights * samples, dx=step_h))


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
        if self.lower.ndim != 1 or self.lower.size == 0:
            raise ConfigError(
                f"control box bounds must be non-empty flat lists, got shape {self.lower.shape}"
            )
        if self.lower.shape != self.upper.shape:
            raise ConfigError("lower/upper must have matching shapes")
        if np.any(self.lower > self.upper):
            raise ConfigError("lower bound exceeds upper bound")

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
    in the (y, z) slots with signature (t, x, x1, x2, y, z, u).  Only the
    maximum-principle layer (pmp) reads them, and a model must supply both
    to reach it.
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

    def x1_drift(self, x, x1, x2):
        """Drift x − e^{-λδ}x2 − λx1 of the moving average X1."""
        return x - self.params.e_minus * x2 - self.params.lam * x1

    def generator(self, t, x, x1, x2, y, z, u):
        return self.f1(t, x, x1, y, z, u) + self.f2(t, x, x1, y, z, u) * x2


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
        """The controls at (t, x, x1) as a float (n_controls, *x.shape) array.

        Callers only read the result, so a float array that evaluate returns
        in that shape is passed on without a copy.
        """
        x = np.asarray(x, float)
        u = np.asarray(self.evaluate(t, x, np.asarray(x1, float)), float)
        target = (self.n_controls,) + x.shape
        if u.shape == target:
            return u
        return np.broadcast_to(u, target).astype(float)


# ---------------------------------------------------------------------------
# Simulation configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimConfig:
    """Discretization and sampling parameters for forward/backward passes."""

    n_steps: int
    n_paths: int
    master_seed: int

    def __post_init__(self):
        if self.n_steps < 1:
            raise ConfigError(f"n_steps must be >= 1, got {self.n_steps}")
        if self.n_paths < 1:
            raise ConfigError(f"n_paths must be >= 1, got {self.n_paths}")

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

    A cell that holds the same bits on every path at its node (t always,
    x2 over the pre-history window, p3 = 0, the per-node q) is formatted
    once and written into the per-path template as text; only the other
    cells are formatted per path.
    """
    n_nodes = times.size
    n_paths = columns[0].shape[0]
    stream.write(",".join(["path", "t", *names]) + "\n")
    # The cells of node k's row are path, t and one per column: each holds
    # its shared text, or None where it is formatted per path.
    text = [[None, "%.17g" % t] for t in times.tolist()]
    for col in columns:
        col = np.asarray(col, np.float64)
        bits = col.view(np.uint64)
        shared = np.all(bits == bits[:1], axis=0).tolist()
        for k, row in enumerate(text):
            if k >= col.shape[1]:
                row.append("")
            else:
                row.append("%.17g" % col[0, k] if shared[k] else None)
    per_path = "".join(
        ",".join(["%d", *("%.17g" if c is None else c for c in row[1:])]) + "\n"
        for row in text
    )
    per_path_slots = np.array([c is None for row in text for c in row])
    paths_per_block = max(1, CSV_BLOCK_ROWS // n_nodes)
    for start in range(0, n_paths, paths_per_block):
        stop = min(start + paths_per_block, n_paths)
        table = np.zeros((stop - start, n_nodes, 2 + len(columns)))
        table[:, :, 0] = np.arange(start, stop)[:, np.newaxis]
        for j, col in enumerate(columns):
            table[:, : col.shape[1], 2 + j] = col[start:stop]
        values = table.reshape(stop - start, -1)[:, per_path_slots]
        stream.write(per_path * (stop - start) % tuple(values.ravel().tolist()))


# ---------------------------------------------------------------------------
# Node-row blocks
# ---------------------------------------------------------------------------

# Elements per block of node_blocks (512 KiB of float64), so that the
# temporaries of an ensemble check on one block stay in cache.
NODE_BLOCK = 1 << 16


def node_blocks(n_paths: int, n_nodes: int):
    """Consecutive node slices of about NODE_BLOCK // n_paths nodes each.

    For a node-major (n_paths, n_nodes) array x, x[:, blk] is one contiguous
    chunk of the buffer: its transpose holds the rows of nodes blk.
    """
    rows = max(1, NODE_BLOCK // n_paths)
    for start in range(0, n_nodes, rows):
        yield slice(start, min(start + rows, n_nodes))
