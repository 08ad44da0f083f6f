"""Forward simulation of delayed diffusions by Euler-Maruyama.

The state follows

    dX(t) = [b1 + b2·X(t−δ)] dt + σ dW(t)

with coefficients evaluated at (t, X(t), X1(t), u(t)) and the moving average

    X1(t) = ∫_{-δ}^{0} e^{λτ} X(t+τ) dτ

advanced either by its exact pathwise differential identity

    dX1 = [X(t) − e^{-λδ} X(t−δ) − λ X1(t)] dt

or by re-quadrature of the sliding window at every node.  The Brownian
increments come from a counter-based generator: path i, step k is a fixed
function of (master_seed, i, k), read from a splitmix64 stream keyed per
path and turned into normals by Box–Muller.  Ensembles are therefore
reproducible path by path, whatever their size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, TextIO

import numpy as np

from .core import (
    Array,
    ConfigError,
    DelayBuffer,
    FeedbackPolicy,
    SimConfig,
    SimulationDivergedError,
    SPLITMIX64_GAMMA,
    StructuredModel,
    derive_path_seed,
    splitmix64_mix,
    write_long_csv,
    x1_of_buffer,
)

DIVERGENCE_BOUND = 1e12

# Increments drawn per block of paths in brownian_increments (2 MB of
# float64), which keeps its uint64 and float64 scratch arrays small next to
# the (n_paths, n_steps) result.
INCREMENT_BLOCK = 1 << 18
_ULP53 = 2.0**-53  # a 53-bit integer times this is a uniform in [0, 1)


@dataclass
class ForwardEnsemble:
    """Simulated ensemble, seen as (n_paths, n_steps + 1) arrays.

    The arrays are stored node-major: x, x1, x2 and dw are the transposes
    of C-order (n_nodes, n_paths) buffers, and controls is a view of a
    C-order (n_nodes, n_controls, n_paths) buffer, so x.T[k],
    controls.transpose(1, 2, 0)[k] and dw.T[k] are contiguous rows holding
    node k of every path.  initial holds the sampled pre-history on
    [s − δ, s] (oldest first), so the full trajectory including pre-history
    can be reconstructed.
    """

    times: Array
    x: Array
    x1: Array
    x2: Array
    controls: Array  # (n_paths, n_steps + 1, n_controls)
    dw: Array  # (n_paths, n_steps)
    initial: Array  # (lag + 1,)
    config: SimConfig

    @property
    def n_paths(self) -> int:
        return self.x.shape[0]

    @property
    def n_steps(self) -> int:
        return self.x.shape[1] - 1


def x1_step_ode(x1, x, x2, lam: float, delta: float, h: float):
    """One Euler step of the moving-average identity dX1 = (X − e^{-λδ}X2 − λX1)dt."""
    return x1 + h * (x - math.exp(-lam * delta) * x2 - lam * x1)


def brownian_increments(master_seed: int, n_paths: int, n_steps: int, h: float) -> Array:
    """Brownian increments of variance h, shape (n_paths, n_steps).

    Path i reads the splitmix64 stream keyed by derive_path_seed(master_seed, i):
    its word j is splitmix64_mix(key_i + γ·(j+1)), so every increment is a
    pure function of (master_seed, i, step) and no path depends on how many
    others are drawn with it.  Steps 2m and 2m+1 are the Box–Muller pair of
    words 2m and 2m+1: from their top 53 bits u1 ∈ (0, 1] and u2 ∈ [0, 1),
    they are r cos 2πu2 and r sin 2πu2 with r = sqrt(−2h ln u1).  An odd last
    step keeps the cosine alone.  The result is stored node-major: it is the
    transpose of a C-order (n_steps, n_paths) buffer, into which blocks of
    about INCREMENT_BLOCK increments are written straight, which bounds the
    scratch arrays.
    """
    dw = np.empty((n_steps, n_paths))
    n_words = 2 * ((n_steps + 1) // 2)
    counters = SPLITMIX64_GAMMA * np.arange(1, n_words + 1, dtype=np.uint64)
    cols = max(1, INCREMENT_BLOCK // max(n_steps, 1))
    for start in range(0, n_paths, cols):
        stop = min(start + cols, n_paths)
        keys = derive_path_seed(master_seed, np.arange(start, stop))
        _box_muller(dw[:, start:stop], keys, counters, h)
    return dw.T


def _box_muller(out: Array, keys: Array, counters: Array, h: float) -> None:
    """Fill out[:, i] with the increments of the stream keyed by keys[i].

    A function of its own so that each block's scratch arrays are freed
    before the next block allocates its own.
    """
    words = splitmix64_mix(counters[:, np.newaxis] + keys)
    words >>= np.uint64(11)
    radius = np.sqrt(-2.0 * h * np.log((words[0::2] + 1) * _ULP53))
    angle = words[1::2] * (2.0 * math.pi * _ULP53)
    out[0::2] = radius * np.cos(angle)
    out[1::2] = (radius * np.sin(angle))[: out.shape[0] // 2]


def simulate_forward(
    model: StructuredModel,
    policy: FeedbackPolicy,
    initial_path: Callable[[float], float],
    config: SimConfig,
    dw: Array | None = None,
) -> ForwardEnsemble:
    """Euler-Maruyama simulation of the delayed state and its summaries.

    initial_path is the deterministic segment φ(τ) for τ ∈ [−δ, 0]; it is
    sampled onto the simulation grid, which therefore must divide δ.
    Divergence (non-finite state or |X| above 1e12) aborts with the step index.
    dw, when given, holds precomputed increments of shape (n_paths, n_steps),
    best stored node-major like the result of brownian_increments.  It is
    used as is in place of the draw for config.master_seed and becomes the
    ensemble's dw, so that runs under several policies can share one draw.
    """
    params = model.params
    h = config.step_size(params)
    lag = config.validate_grid(params)
    n_steps, n_paths = config.n_steps, config.n_paths
    n_u = policy.n_controls
    if dw is not None and dw.shape != (n_paths, n_steps):
        raise ConfigError(
            f"increments have shape {dw.shape}, expected ({n_paths}, {n_steps})"
        )

    buffer = DelayBuffer.from_initial_path(initial_path, params.delta, h)
    initial = buffer.samples.copy()

    # xfull[j] holds X(s - δ + j h) over the paths; row lag + k is node t_k.
    xfull = np.empty((lag + n_steps + 1, n_paths))
    xfull[: lag + 1] = initial[:, np.newaxis]

    times = params.start_s + h * np.arange(n_steps + 1)
    x1 = np.empty((n_steps + 1, n_paths))
    x1[0] = x1_of_buffer(buffer, params.lam)
    controls = np.empty((n_steps + 1, n_u, n_paths))
    if dw is None:
        dw = brownian_increments(config.master_seed, n_paths, n_steps, h)
    dw_rows = dw.T

    if config.x1_method == "quadrature" and lag > 0:
        tau = np.linspace(-params.delta, 0.0, lag + 1)
        quad_w = np.exp(params.lam * tau) * h
        quad_w[0] *= 0.5
        quad_w[-1] *= 0.5
    else:
        quad_w = None

    for k in range(n_steps):
        t = float(times[k])
        x = xfull[lag + k]
        x2 = xfull[k]
        x1k = x1[k]
        u = policy.at(t, x, x1k)
        controls[k] = u

        b = model.drift(t, x, x1k, x2, u)
        sg = model.sigma(t, x, x1k, u)
        xn = x + b * h + sg * dw_rows[k]

        bad = ~np.isfinite(xn) | (np.abs(xn) > DIVERGENCE_BOUND)
        if np.any(bad):
            raise SimulationDivergedError(step=k + 1, n_bad=int(bad.sum()))
        xfull[lag + k + 1] = xn

        if quad_w is not None:
            x1[k + 1] = quad_w @ xfull[k + 1 : k + lag + 2]
        elif lag == 0:
            x1[k + 1] = 0.0
        else:
            x1[k + 1] = x1_step_ode(x1k, x, x2, params.lam, params.delta, h)

    controls[-1] = policy.at(float(times[-1]), xfull[lag + n_steps], x1[-1])

    return ForwardEnsemble(
        times=times,
        x=xfull[lag:].T,
        x1=x1.T,
        x2=xfull[: n_steps + 1].T,
        controls=controls.transpose(2, 0, 1),
        dw=dw,
        initial=initial,
        config=config,
    )


# ---------------------------------------------------------------------------
# Pathwise chain-rule diagnostic
# ---------------------------------------------------------------------------


@dataclass
class SmoothTestFunction:
    """Test function g(t, x, x1) with the partials entering the chain rule."""

    g: Callable
    g_t: Callable
    g_x: Callable
    g_xx: Callable
    g_x1: Callable


@dataclass
class ItoCheckReport:
    """Ensemble statistics of the accumulated chain-rule defect."""

    mean: float
    stderr: float
    residuals: Array
    h: float

    @property
    def passed(self) -> bool:
        return abs(self.mean) <= 3.0 * self.stderr + 1e-14


def delayed_ito_check(
    g: SmoothTestFunction,
    ensemble: ForwardEnsemble,
    model: StructuredModel,
) -> ItoCheckReport:
    """Accumulated defect of the delayed chain rule along simulated paths.

    Per step the increment of g(t, X, X1) is compared with

        [g_t + b g_x + ½ σ² g_xx + (X − λX1 − e^{-λδ}X2) g_x1] h + g_x σ ΔW

    evaluated at the left node.  The summed defect should be centered at 0
    with spread shrinking like sqrt(h).
    """
    params = model.params
    t = ensemble.times
    h = float(t[1] - t[0])
    x, x1, x2 = ensemble.x, ensemble.x1, ensemble.x2
    u = np.moveaxis(ensemble.controls, 2, 0)  # (n_u, n_paths, n_steps + 1)

    tL = t[:-1]
    xL, x1L, x2L = x[:, :-1], x1[:, :-1], x2[:, :-1]
    uL = u[:, :, :-1]

    b = model.drift(tL, xL, x1L, x2L, uL)
    sg = model.sigma(tL, xL, x1L, uL)
    drift = (
        g.g_t(tL, xL, x1L)
        + b * g.g_x(tL, xL, x1L)
        + 0.5 * sg**2 * g.g_xx(tL, xL, x1L)
        + (xL - params.lam * x1L - params.e_minus * x2L) * g.g_x1(tL, xL, x1L)
    )
    dg = g.g(t[1:], x[:, 1:], x1[:, 1:]) - g.g(tL, xL, x1L)
    defect = dg - drift * h - g.g_x(tL, xL, x1L) * sg * ensemble.dw

    # Each path's defects are summed over a path-major copy, so that the
    # pairwise summation adds them in the same order whatever the layout.
    residuals = np.ascontiguousarray(defect).sum(axis=1)
    mean = float(residuals.mean())
    n = residuals.size
    stderr = float(residuals.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return ItoCheckReport(mean=mean, stderr=stderr, residuals=residuals, h=h)


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------


def write_forward_csv(ensemble: ForwardEnsemble, stream: TextIO) -> None:
    """Write the ensemble in long format: path,t,x,x1,x2,u[,c],dw.

    The second control column appears only for two-control models; dw is
    blank at the terminal node.
    """
    n_u = ensemble.controls.shape[2]
    u_cols = ["u"] if n_u == 1 else ["u", "c"]
    controls = [ensemble.controls[:, :, j] for j in range(n_u)]
    write_long_csv(
        stream,
        ["x", "x1", "x2", *u_cols, "dw"],
        ensemble.times,
        [ensemble.x, ensemble.x1, ensemble.x2, *controls, ensemble.dw],
    )
