"""Forward simulation of delayed diffusions by Euler-Maruyama.

The state follows

    dX(t) = [b1 + b2·X(t−δ)] dt + σ dW(t)

with coefficients evaluated at (t, X(t), X1(t), u(t)) and the moving average

    X1(t) = ∫_{-δ}^{0} e^{λτ} X(t+τ) dτ

advanced by its exact pathwise differential identity

    dX1 = [X(t) − e^{-λδ} X(t−δ) − λ X1(t)] dt.

The Brownian
increments come from a counter-based generator in antithetic pairs: paths
2i and 2i+1 read the splitmix64 stream keyed by pair i, turned into normals
by Box–Muller, the second negated, and an odd last path stays plain.  Path
i, step k is therefore a fixed function of (master_seed, i, k), and
ensembles are reproducible path by path, whatever their size.  A mean over
the paths takes its standard error over the pairs (pair_stderr).
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, replace
from typing import BinaryIO, Callable, Iterator

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
    node_blocks,
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

    The arrays are stored node-major: x, x2 and dw are the transposes of
    C-order (n_nodes, n_paths) buffers, and x1_marks of a (n_marks,
    n_paths) one.  u holds the controls as the (n_controls, n_paths,
    n_nodes) view of a C-order (n_nodes, n_controls, n_paths) buffer, the
    layout every coefficient takes: u[j] is control j laid out like x.  So
    x.T[k], u[:, :, k] and dw.T[k] are contiguous rows holding node k of
    every path.  h is the step the nodes are apart.

    x2 = X(t − δ) shares its rows with x when δ < T − s (for δ = 0, x2 is
    x).  When δ ≥ T − s it reads the initial segment φ at every node, the
    same on every path, and is the sampled φ broadcast over the paths, with
    path stride 0: no path stores a copy of the prehistory, and neither do
    its parts.

    x1_marks holds X1 only at its marks, nodes 0, mark_every,
    2·mark_every, …: column m is node m·mark_every.  The nodes between are
    rebuilt from the mark before them by the forward sweep's own step,
    x1 + h·x1_drift(x, x1, x2) of model, which takes only +, − and ×, so
    every slice gets the same bits as the sweep.  The package reads X1
    three ways: x1 rebuilds it at every node, part gives any slice of nodes
    and paths with x1 at every node, and blocks walks the node blocks,
    forward or in reverse, rebuilding each block's x1 into one reused
    buffer.  max_over_blocks folds the maximum of a function over those
    blocks, each split into two halves of nodes whose x2 is in the layout
    of x, and is the one place in the package that starts a thread: each
    second half runs on a thread of its own beside the first.  An ensemble
    built by hand passes X1 at every node as x1_marks, keeps the default
    mark_every = 1 and needs no model.
    """

    times: Array
    x: Array
    x1_marks: Array  # (n_paths, n_marks)
    x2: Array
    u: Array  # (n_controls, n_paths, n_steps + 1)
    dw: Array  # (n_paths, n_steps)
    h: float
    model: StructuredModel | None = None
    mark_every: int = 1

    @property
    def n_paths(self) -> int:
        return self.x.shape[0]

    @property
    def n_steps(self) -> int:
        return self.x.shape[1] - 1

    @property
    def x1(self) -> Array:
        """X1 at every node, (n_paths, n_steps + 1): x1_marks itself when
        every node is a mark, otherwise a whole-ensemble array rebuilt on
        each read."""
        return self._x1_rows(slice(None)).T

    def part(self, nodes: slice = slice(None), paths: slice = slice(None)) -> "ForwardEnsemble":
        """Nodes nodes of paths paths, with x1 at every node.

        x, x2, u and dw are views of the same buffers, and so is x1 when
        every node is a mark; otherwise x1 is rebuilt.  dw keeps the
        increments that leave those nodes, so it is one column short when
        nodes holds the terminal node.  A negative node step raises
        ValueError.
        """
        return self._part(nodes, paths, self._x1_rows(nodes, paths))

    def blocks(self, reverse: bool = False) -> Iterator[tuple[slice, "ForwardEnsemble"]]:
        """(blk, part(blk)) for each block blk of core.node_blocks in turn,
        the terminal block first when reverse.

        Each part's x1 is rebuilt into one buffer reused by every block, as
        wide as the widest span from a block's mark to its stop, so a part
        is valid until the next one is asked for.
        """
        every = self.mark_every
        blks = list(node_blocks(self.n_paths, self.n_steps + 1))
        width = max(blk.stop - blk.start + blk.start % every for blk in blks)
        buf = np.empty((width, self.n_paths)) if every > 1 else None
        for blk in reversed(blks) if reverse else blks:
            yield blk, self._part(blk, slice(None), self._x1_rows(blk, out=buf))

    def max_over_blocks(self, fn: Callable[["ForwardEnsemble"], tuple]) -> tuple:
        """The elementwise, NaN-propagating maximum (np.maximum) of the
        tuples fn returns for the halves of every part that blocks() yields.

        A block of two or more nodes is split at its middle node, and each
        half is a contiguous chunk of the node-major buffers, with x2 in the
        layout of x: the first half runs on the calling thread and the
        second on a thread started for it, under the caller's numpy error
        state.  A block of one node runs
        whole on the caller.  Both halves of a block finish before either
        result is folded, and if either raises, the first half's error is
        raised, as in a walk on one thread.  The results are folded in node
        order, and a maximum does not depend on how the nodes are split, so
        it is the same bits as a maximum over the whole ensemble.  fn must
        not depend on which thread runs it.
        """
        results = (result for _, part in self.blocks() for result in _map_halves(fn, part))
        return functools.reduce(lambda top, result: tuple(map(np.maximum, top, result)), results)

    def _part(self, nodes: slice, paths: slice, x1_rows: Array) -> "ForwardEnsemble":
        return replace(
            self,
            times=self.times[nodes],
            x=self.x[paths, nodes],
            x1_marks=x1_rows.T,
            x2=self.x2[paths, nodes],
            u=self.u[:, paths, nodes],
            dw=self.dw[paths, nodes],
            mark_every=1,
        )

    def _x1_rows(self, nodes: slice, paths: slice = slice(None), out: Array | None = None) -> Array:
        """X1 at nodes of paths, as rows: node-major, a (n_nodes, n_paths)
        view of the marks or a C-order rebuilt array.

        The rebuild starts at the mark at or before the first node and
        advances every span between two marks at once, one step per row of
        a span.  out, when given, takes the rebuilt rows from that mark on,
        so it needs a row per node up to nodes.stop; it is not used when
        every node is a mark.
        """
        start, stop, step = nodes.indices(self.n_steps + 1)
        if step < 0:
            raise ValueError(f"node slice {nodes} runs backward")
        if self.mark_every == 1:
            return self.x1_marks.T[nodes, paths]
        every = self.mark_every
        base = start - start % every
        x, x2 = self.x.T[base:stop, paths], self.x2.T[base:stop, paths]
        rows = np.empty(x.shape) if out is None else out[: len(x)]
        marks = rows[::every]
        marks[...] = self.x1_marks.T[base // every : base // every + len(marks), paths]
        for j in range(1, min(every, len(x))):
            n = len(rows[j::every])
            rows[j::every] = _x1_step(
                self.model, self.h, x[j - 1 :: every][:n], rows[j - 1 :: every][:n],
                x2[j - 1 :: every][:n],
            )
        return rows[start - base :: step]


def _map_halves(fn: Callable[[ForwardEnsemble], tuple], part: ForwardEnsemble):
    """(fn(first half), fn(second half)) of part's nodes, the second half on
    a thread of its own; (fn(part),) when part has one node."""

    def half(nodes):
        # A broadcast x2 is copied into the layout of x (a view when it
        # already has it): numpy gives a product of two broadcasts over the
        # paths a C-order result, and sums of it and node-major arrays run
        # slower.
        piece = part.part(nodes=nodes)
        return replace(piece, x2=np.ascontiguousarray(piece.x2.T).T)

    mid = (part.n_steps + 1) // 2
    if mid == 0:
        return (fn(half(slice(None))),)
    err, out = dict(np.geterr(), call=np.geterrcall()), {}

    def second_half(second):
        try:
            with np.errstate(**err):
                out["result"] = fn(second)
        except BaseException as error:  # raised on the caller below
            out["error"] = error

    worker = threading.Thread(target=second_half, args=(half(slice(mid, None)),))
    worker.start()
    try:
        first = fn(half(slice(mid)))
    finally:
        worker.join()
    if "error" in out:
        raise out["error"]
    return first, out["result"]


def _x1_step(model: StructuredModel, h: float, x, x1, x2):
    """X1 one step on from x1: the forward sweep's step, which rebuilds the
    nodes between marks to the same bits."""
    return x1 + h * model.x1_drift(x, x1, x2)


def brownian_increments(master_seed: int, n_paths: int, n_steps: int, h: float) -> Array:
    """Brownian increments of variance h, shape (n_paths, n_steps), in
    antithetic pairs.

    Paths 2i and 2i+1 are a pair: path 2i reads the splitmix64 stream keyed
    by derive_path_seed(master_seed, i), and path 2i+1 is its exact
    negation (Glasserman 2003, §4.2).  An odd last path has no partner and
    stays plain.  Word j of stream i is splitmix64_mix(key_i + γ·(j+1)), so
    every increment is a pure function of (master_seed, path, step) and no
    path depends on how many others are drawn with it.  Steps 2m and 2m+1
    are the Box–Muller pair of words 2m and 2m+1: from their top 53 bits
    u1 ∈ (0, 1] and u2 ∈ [0, 1), they are r cos 2πu2 and r sin 2πu2 with
    r = sqrt(−2h ln u1).  An odd last step keeps the cosine alone.  The
    result is stored node-major: it is the transpose of a C-order (n_steps,
    n_paths) buffer, into which blocks of about INCREMENT_BLOCK drawn
    increments are written straight, which bounds the scratch arrays.

    A pair moves together, so the standard error of a mean over paths is
    taken over the pairs (pair_stderr).
    """
    dw = np.empty((n_steps, n_paths))
    n_words = 2 * ((n_steps + 1) // 2)
    counters = SPLITMIX64_GAMMA * np.arange(1, n_words + 1, dtype=np.uint64)
    n_streams = (n_paths + 1) // 2
    cols = max(1, INCREMENT_BLOCK // max(n_steps, 1))  # streams per block
    for start in range(0, n_streams, cols):
        stop = min(start + cols, n_streams)
        keys = derive_path_seed(master_seed, np.arange(start, stop))
        drawn = dw[:, 2 * start : 2 * stop : 2]
        _box_muller(drawn, keys, counters, h)
        negated = dw[:, 2 * start + 1 : 2 * stop : 2]  # one short for an odd last path
        np.negative(drawn[:, : negated.shape[1]], out=negated)
    return dw.T


def pair_stderr(samples: Array) -> float:
    """Standard error of the mean of per-path samples drawn on
    brownian_increments' antithetic pairs, each pair one cluster.

    Over the m groups (the pairs, and an odd last path as a group of one)
    with sums G_j of n_j samples around the mean J̄ of all P,

        se² = m/(m−1) · Σ_j (G_j − n_j·J̄)² / P²,

    which for even P is std(pair means, ddof=1)/√m.  The per-path formula
    would ignore the negative correlation within a pair and overstate the
    error.  Fewer than two groups (P ≤ 2) give 0.0.
    """
    n = samples.shape[0]
    m = (n + 1) // 2
    if m < 2:
        return 0.0
    dev = samples - samples.mean()
    sums = dev[: n - n % 2].reshape(-1, 2).sum(axis=1)
    squares = float(sums @ sums) + (float(dev[-1]) ** 2 if n % 2 else 0.0)
    return math.sqrt(m / (m - 1) * squares) / n


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

    X1 is kept only at the first node of each core.node_blocks block, its
    marks (ForwardEnsemble): the sweep carries one row of it from node to
    node, and beside x, the controls and dw the ensemble holds one row of
    X1 per block.
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

    every = next(node_blocks(n_paths, n_steps + 1)).stop  # nodes per block
    marks = np.empty((-(-(n_steps + 1) // every), n_paths))
    initial, marks[0] = initial_segment(initial_path, params.delta, params.lam, h)

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

    x1k = marks[0]
    for k in range(n_steps):
        t = float(times[k])
        x = x_rows[k]
        x2 = x2_rows[k]
        u = policy.at(t, x, x1k)
        controls[k] = u

        b = model.drift(t, x, x1k, x2, u)
        sg = model.sigma(t, x, x1k, u)
        xn = x + b * h + sg * dw_rows[k]

        in_range = np.abs(xn) <= DIVERGENCE_BOUND  # False on NaN as well
        if not in_range.all():
            raise SimulationDivergedError(step=k + 1, n_bad=int(np.count_nonzero(~in_range)))
        x_rows[k + 1] = xn
        x1k = _x1_step(model, h, x, x1k, x2)
        if (k + 1) % every == 0:
            marks[(k + 1) // every] = x1k

    controls[-1] = policy.at(float(times[-1]), x_rows[n_steps], x1k)

    return ForwardEnsemble(
        times=times,
        x=x_rows.T,
        x1_marks=marks.T,
        x2=x2_rows.T,
        u=controls.transpose(1, 2, 0),
        dw=dw,
        h=h,
        model=model,
        mark_every=every,
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
        part = ensemble.part(paths=blk)
        return [part.x, part.x1, part.x2, *part.u, part.dw]

    names = ["x", "x1", "x2", *u_cols, "dw"]
    write_long_csv(stream, names, ensemble.times, ensemble.n_paths, columns_of)
