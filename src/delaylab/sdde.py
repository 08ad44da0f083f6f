"""Forward simulation of delayed diffusions by Euler-Maruyama.

The state follows

    dX(t) = [b1 + b2·X(t−δ)] dt + σ dW(t)

with coefficients evaluated at (t, X(t), X1(t), u(t)) and the moving average

    X1(t) = ∫_{-δ}^{0} e^{λτ} X(t+τ) dτ

advanced by its exact pathwise differential identity

    dX1 = [X(t) − e^{-λδ} X(t−δ) − λ X1(t)] dt.

The Brownian
increments come from a counter-based generator: path i, step k is a fixed
function of (master_seed, i, k), read from a splitmix64 stream keyed per
path and turned into normals by Box–Muller.  Ensembles are therefore
reproducible path by path, whatever their size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import BinaryIO, Callable

import numpy as np

from .core import (
    Array,
    ConfigError,
    FeedbackPolicy,
    SimConfig,
    SimulationDivergedError,
    SPLITMIX64_GAMMA,
    StructuredModel,
    derive_path_seed,
    initial_segment,
    splitmix64_mix,
    write_long_csv,
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
    of C-order (n_nodes, n_paths) buffers.  u holds the controls as the
    (n_controls, n_paths, n_nodes) view of a C-order (n_nodes, n_controls,
    n_paths) buffer, the layout every coefficient takes: u[j] is control j
    laid out like x.  So x.T[k], u[:, :, k] and dw.T[k] are contiguous rows
    holding node k of every path.  h is the step the nodes are apart.

    x2 = X(t − δ) shares its rows with x when δ < T − s (for δ = 0, x2 is
    x).  When δ ≥ T − s it reads the initial segment φ at every node, the
    same on every path, and is the sampled φ broadcast over the paths, with
    path stride 0: no path stores a copy of the prehistory.
    """

    times: Array
    x: Array
    x1: Array
    x2: Array
    u: Array  # (n_controls, n_paths, n_steps + 1)
    dw: Array  # (n_paths, n_steps)
    h: float

    @property
    def n_paths(self) -> int:
        return self.x.shape[0]

    @property
    def n_steps(self) -> int:
        return self.x.shape[1] - 1

    def nodes(self, blk: slice) -> "ForwardEnsemble":
        """Nodes blk of every path, as views of the same buffers.

        dw keeps the increments that leave those nodes, so it is one column
        short when blk holds the terminal node.  A broadcast x2 is the
        exception: its block is copied into the layout of x, since numpy
        gives a product of two broadcasts over the paths a C-order result,
        and a check that adds it to node-major arrays runs slower.
        """
        x, x2 = self.x[:, blk], self.x2[:, blk]
        if x2.strides[0] == 0:
            copy = np.empty_like(x)
            copy[...] = x2
            x2 = copy
        return replace(
            self,
            times=self.times[blk],
            x=x,
            x1=self.x1[:, blk],
            x2=x2,
            u=self.u[:, :, blk],
            dw=self.dw[:, blk],
        )

    def paths(self, blk: slice) -> "ForwardEnsemble":
        """Paths blk at every node, as views of the same buffers."""
        return replace(
            self, x=self.x[blk], x1=self.x1[blk], x2=self.x2[blk], u=self.u[:, blk], dw=self.dw[blk]
        )


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

    x1 = np.empty((n_steps + 1, n_paths))
    initial, x1[0] = initial_segment(initial_path, params.delta, params.lam, h)

    # x_rows[k] and x2_rows[k] hold X(t_k) and X(t_k − δ) over the paths.
    if lag >= n_steps:
        # δ ≥ T − s: X(t − δ) is φ at every node, the same on every path, so
        # x2 is the sampled segment broadcast over the paths.
        x_rows = np.empty((n_steps + 1, n_paths))
        x_rows[0] = initial[lag]
        x2_rows = np.broadcast_to(initial[: n_steps + 1, np.newaxis], x_rows.shape)
    else:
        # xfull[j] holds X(s − δ + j h) over the paths, the prehistory first;
        # x and x2 are two windows of its rows.
        xfull = np.empty((lag + n_steps + 1, n_paths))
        xfull[: lag + 1] = initial[:, np.newaxis]
        x_rows, x2_rows = xfull[lag:], xfull[: n_steps + 1]

    times = params.start_s + h * np.arange(n_steps + 1)
    controls = np.empty((n_steps + 1, n_u, n_paths))
    if dw is None:
        dw = brownian_increments(config.master_seed, n_paths, n_steps, h)
    dw_rows = dw.T

    for k in range(n_steps):
        t = float(times[k])
        x = x_rows[k]
        x2 = x2_rows[k]
        x1k = x1[k]
        u = policy.at(t, x, x1k)
        controls[k] = u

        b = model.drift(t, x, x1k, x2, u)
        sg = model.sigma(t, x, x1k, u)
        xn = x + b * h + sg * dw_rows[k]

        in_range = np.abs(xn) <= DIVERGENCE_BOUND  # False on NaN as well
        if not in_range.all():
            raise SimulationDivergedError(step=k + 1, n_bad=int(np.count_nonzero(~in_range)))
        x_rows[k + 1] = xn
        x1[k + 1] = x1k + h * model.x1_drift(x, x1k, x2)

    controls[-1] = policy.at(float(times[-1]), x_rows[n_steps], x1[-1])

    return ForwardEnsemble(
        times=times,
        x=x_rows.T,
        x1=x1.T,
        x2=x2_rows.T,
        u=controls.transpose(1, 2, 0),
        dw=dw,
        h=h,
    )


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------


def write_forward_csv(ensemble: ForwardEnsemble, stream: BinaryIO) -> None:
    """Write the ensemble in long format, path,t,x,x1,x2,u[,c],dw, as ASCII
    bytes to a binary stream.

    The second control column appears only for two-control models; dw is
    blank at the terminal node.
    """
    u_cols = ["u"] if ensemble.u.shape[0] == 1 else ["u", "c"]

    def columns_of(blk):
        part = ensemble.paths(blk)
        return [part.x, part.x1, part.x2, *part.u, part.dw]

    names = ["x", "x1", "x2", *u_cols, "dw"]
    write_long_csv(stream, names, ensemble.times, ensemble.n_paths, columns_of)
