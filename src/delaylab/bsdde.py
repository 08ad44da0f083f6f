"""Least-squares Monte Carlo solver for the backward equation.

Along a simulated forward ensemble the pair (Y, Z) of

    -dY(t) = f(t, X, X1, X2, Y, Z, u) dt - Z dW(t),   Y(T) = φ(X(T), X1(T))

is approximated backward in time.  At each node the conditional expectations
are replaced by linear regression of the next-node quantities on basis
functions of (X, X1) (Gobet, Lemor & Warin 2005):

    Z_k = proj[ (Y_{k+1} - proj[Y_{k+1}]) ΔW_k / h ]
    Y_k = proj[ Y_{k+1} + h f(t_k, X_k, X1_k, X2_k, Y_{k+1}, Z_k, u_k) ]

Centring Y_{k+1} leaves the conditional mean of the Z target unchanged,
since proj[Y_{k+1}] is known at t_k, and removes its Var(Y_{k+1})/h
variance.  Z is cross-fitted: its coefficients on one half of the paths are
fitted on the other half, so Z_k never sees the increment ΔW_k it
multiplies.  The halves are split at an even path, so that no antithetic
pair of sdde.brownian_increments straddles them: a partner's increment is
the path's own, up to sign.

The recursive cost of a policy is J = -Y(s).  Its per-path samples follow
the equation itself along each path, with Z as a martingale control variate
(Bender & Steiner 2012):

    y_N = φ(X_N, X1_N),   y_k = y_{k+1} + h f(t_k, ..., y_{k+1}, Z_k, u_k) - Z_k ΔW_k

down to the initial node, where each half's Z_0 is the mean of the other
half's centred target (all paths share the initial state).  The term
Z_k ΔW_k has mean zero and cancels most of each path's noise; the samples
also serve the common-random-number policy comparisons.  Their standard
error is taken over the antithetic pairs (sdde.pair_stderr), each pair's
mean one sample.

Node k reads only Y_{k+1} and writes Y_k and Z_k, so the one sweep fills
whatever row buffers it is given.  cost_samples gives it a ring of two y
rows and one z row and keeps only the cost, its standard error and the
per-path samples (CostSamples), for callers that read nothing else.
solve_backward gives it one row per node and returns a BackwardSolution,
the same CostSamples with y and z over the whole ensemble, for
backward.csv; both give the same bits.  The sweep reads X1 block by block from the
terminal end (ForwardEnsemble.blocks), so X1 is never rebuilt over the
whole ensemble.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import BinaryIO, Callable

import numpy as np

from .core import Array, StructuredModel, write_long_csv
from .sdde import ForwardEnsemble, pair_stderr

RIDGE = 1e-10


@dataclass
class RegressionBasis:
    """Feature map (x, x1) -> n_features rows used for projections.

    fill(x, x1, out) writes feature j of the samples x, x1 into the
    contiguous row out[j] of a C-order (n_features, n_samples) buffer,
    overwriting every row.  The backward sweep allocates that buffer once and
    reuses it at every node.
    """

    n_features: int
    fill: Callable[[Array, Array, Array], None]


def _power(v: Array, p: int) -> Array:
    """v**p, with the first power read as v itself (bit-identical)."""
    return v if p == 1 else v**p


def polynomial_basis(degree: int = 2) -> RegressionBasis:
    """All monomials x^i x1^j with i + j <= degree, constant included.

    Each monomial is written straight into its row: a zero power is left
    out of the product, which is exact, since x**0 is 1.0.
    """
    powers = [(i, total - i) for total in range(degree + 1) for i in range(total + 1)]

    def fill(x: Array, x1: Array, out: Array) -> None:
        for row, (i, j) in enumerate(powers):
            if i and j:
                np.multiply(_power(x, i), _power(x1, j), out=out[row])
            elif i or j:
                out[row] = _power(x, i) if i else _power(x1, j)
            else:
                out[row] = 1.0

    return RegressionBasis(n_features=len(powers), fill=fill)


def _products(features: Array, out: Array) -> None:
    """Write the (n_features, n_features) products F·Fᵀ of the feature rows
    F into out.

    Row i of the upper triangle is one matrix-vector product of the rows
    F[i:] with F[i].  Against F @ F.T on the 7 rows of merton.build_basis,
    per node over both halves (one BLAS thread, best of 21, on an Intel
    Xeon), the row products took 34.4 µs against 27.9 µs at P = 2 000,
    44.6 µs against 53.1 µs at P = 4 000 and 208 µs against 514 µs at
    P = 40 000: they win from a few thousand paths up, and lose a few
    microseconds below.
    """
    for i in range(features.shape[0]):
        out[i, i:] = features[i:] @ features[i]
        out[i:, i] = out[i, i:]


def _project(features: Array, inverse: Array | None, target: Array, apply_to: Array | None = None):
    """Least-squares fit of target on feature rows, given the inverse of
    their normal matrix, evaluated at the feature rows apply_to (by default
    the fitted rows themselves).

    Falls back to the target's mean (constant basis) if the normal matrix
    is singular (inverse None) or the predictions are non-finite.
    """
    at = features if apply_to is None else apply_to
    if inverse is not None:
        pred = (inverse @ (features @ target / features.shape[1])) @ at
        if np.isfinite(pred).all():
            return pred, False
    return np.full(at.shape[1], target.mean()), True


class _Halves:
    """The first and second half of an ensemble's paths: the two folds of
    the Z fit, each fitted on the other half's paths.

    The halves hold whole antithetic pairs: the first takes the first
    ⌊m/2⌋ of the m = ⌈P/2⌉ pairs, the second the rest, an odd last path
    included.  One or two paths make one group, so no fold.
    """

    def __init__(self, n_paths: int, n_features: int):
        mid = 2 * ((n_paths + 1) // 4)
        self.slices = (slice(0, mid), slice(mid, n_paths))
        # (fitted on, applied to); a single group has no other half.
        self.folds = ((0, 1), (1, 0)) if mid > 0 else ()
        # An empty first half (one group) divides by 1; its matrix is unused.
        self._sizes = np.array([max(mid, 1), n_paths - mid, n_paths], float)[:, None, None]
        self._ridge = RIDGE * np.eye(n_features)
        self._grams = np.empty((3, n_features, n_features))

    def inverse_grams(self, features: Array) -> tuple:
        """Inverse ridge-damped normal matrices (F·Fᵀ/n + RIDGE·I)⁻¹ of the
        first half, the second half and all paths; three Nones if one is
        singular.  The halves' products sum to all paths' products, so the
        three cost one pass of products over F."""
        grams = self._grams
        for half, out in zip(self.slices, grams):
            _products(features[:, half], out)
        np.add(grams[0], grams[1], out=grams[2])
        grams /= self._sizes
        grams += self._ridge
        try:
            return tuple(np.linalg.inv(grams))
        except np.linalg.LinAlgError:
            return (None, None, None)

    def fit_z(self, features: Array, inverses: tuple, target: Array, out: Array) -> bool:
        """Z of each half, fitted to the target on the other half, written
        into out; returns whether a fit fell back to the mean."""
        bad = False
        for fit, apply in self.folds:
            rows, other = self.slices[fit], self.slices[apply]
            out[other], bad_z = _project(
                features[:, rows], inverses[fit], target[rows], features[:, other]
            )
            bad = bad or bad_z
        return bad


@dataclass
class CostSamples:
    """The recursive cost of a policy from a backward sweep: cost J = −Y(s)
    and its standard error over the antithetic pairs (sdde.pair_stderr),
    the per-path samples y at the initial node (n_paths,), and the steps
    whose fit fell back to the mean."""

    cost: float
    stderr: float
    samples: Array
    degraded_steps: list


@dataclass
class BackwardSolution(CostSamples):
    """Regression solution of the backward equation on an ensemble: the
    cost and its samples of CostSamples, with y and z at every node
    (solve_backward).

    y and z are seen as (n_paths, n_steps + 1) arrays, stored node-major as
    the transposes of C-order (n_nodes, n_paths) buffers.  y[:, k] for
    0 < k < n_steps holds the regressed conditional-expectation estimates;
    y[:, 0] is samples, the per-path cost samples (the driver minus the
    control variate Z·ΔW, accumulated along each path), in the same
    memory.  z is
    the cross-fitted centred Z; z[:, 0] holds the two halves' means and
    z[:, -1], which the scheme does not define, is stored as 0.
    """

    times: Array
    y: Array
    z: Array


def _sweep(
    model: StructuredModel,
    ensemble: ForwardEnsemble,
    basis: RegressionBasis,
    y: Array,
    z: Array,
) -> CostSamples:
    """Backward regression sweep along a simulated ensemble.

    y and z are C-order buffers of n_paths columns that the sweep fills:
    node k lives in row k % len(y) of y and row k % len(z) of z.  With one
    row per node they keep the whole solution; with two y rows and one z
    row they form a ring, enough for node k, which reads only Y_{k+1} and
    writes Y_k and Z_k.  Either way every row gets the same values by the
    same operations.  z must start at 0: one or two paths have no Z fit.

    The sweep reads node k of every path as one row of the node-major
    ensemble.  It takes X1 from the parts of ForwardEnsemble.blocks,
    walked from the terminal block, whose x1 is rebuilt into one reused
    buffer, and reads each part's rows last node first.  Each node
    writes its features as contiguous rows of one (n_features, n_paths)
    buffer reused by every node.  The two halves of the paths are the two
    folds of the Z fit, and the sum of their feature products is the Y
    fit's Gram matrix.  The generator is evaluated once per node, on the
    regressed and the pathwise y stacked as one (2, n_paths) array.
    """
    t, h, u = ensemble.times, ensemble.h, ensemble.u
    n_paths, n_steps = ensemble.n_paths, ensemble.n_steps
    x, x2, dw = ensemble.x.T, ensemble.x2.T, ensemble.dw.T
    # Rows of X1, node n_steps first; a row is valid until the next block.
    x1 = (row for _, part in ensemble.blocks(reverse=True) for row in part.x1.T[::-1])

    def y_at(k):
        return y[k % len(y)]

    def z_at(k):
        return z[k % len(z)]

    y_at(n_steps)[:] = model.phi(x[-1], next(x1))
    degraded: list = []
    feats = np.empty((basis.n_features, n_paths))
    halves = _Halves(n_paths, basis.n_features)
    # Row 0: the regressed Y_{k+1}; row 1: the pathwise cost accumulation.
    y_both = np.empty((2, n_paths))
    y_both[1] = y_at(n_steps)

    for k in range(n_steps - 1, 0, -1):
        x1_k = next(x1)
        basis.fill(x[k], x1_k, feats)
        y_next, z_k = y_at(k + 1), z_at(k)
        with np.errstate(all="ignore"):
            inverses = halves.inverse_grams(feats)
            # The centred target has the conditional mean of Y_{k+1}·ΔW_k/h,
            # since proj Y_{k+1} is known at t_k, without its Var(Y_{k+1})/h.
            centre, bad_c = _project(feats, inverses[2], y_next)
            bad_z = halves.fit_z(feats, inverses, (y_next - centre) * dw[k] / h, z_k)
        y_both[0] = y_next
        f = np.broadcast_to(
            model.generator(float(t[k]), x[k], x1_k, x2[k], y_both, z_k, u[:, :, k]),
            y_both.shape,
        )
        with np.errstate(all="ignore"):
            y_at(k)[:], bad_y = _project(feats, inverses[2], y_next + h * f[0])
        y_both[1] = y_both[1] + h * f[1] - z_k * dw[k]
        if bad_c or bad_z or bad_y:
            degraded.append(k)

    # The initial node: every path shares the state, so the projection of
    # each half's centred target is its mean.
    y_1, z_0 = y_at(1), z_at(0)
    target = (y_1 - y_1.mean()) * dw[0] / h
    for fit, apply in halves.folds:
        z_0[halves.slices[apply]] = float(target[halves.slices[fit]].mean())
    y_path = y_both[1]
    y_0 = y_at(0)
    y_0[:] = y_path + h * model.generator(
        float(t[0]), x[0], next(x1), x2[0], y_path, z_0, u[:, :, 0]
    ) - z_0 * dw[0]

    cost = float((-y_0).mean())
    return CostSamples(cost=cost, stderr=pair_stderr(y_0), samples=y_0, degraded_steps=degraded)


def solve_backward(
    model: StructuredModel,
    ensemble: ForwardEnsemble,
    basis: RegressionBasis,
) -> BackwardSolution:
    """The backward sweep with whole y and z, one row per node."""
    shape = (ensemble.n_steps + 1, ensemble.n_paths)
    y, z = np.empty(shape), np.zeros(shape)
    run = _sweep(model, ensemble, basis, y, z)
    return BackwardSolution(**vars(run), times=ensemble.times, y=y.T, z=z.T)


def cost_samples(
    model: StructuredModel,
    ensemble: ForwardEnsemble,
    basis: RegressionBasis,
) -> CostSamples:
    """The backward sweep on a ring of two y rows and one z row: the cost,
    its standard error and per-path samples of solve_backward, bit for bit,
    without y and z over the whole ensemble."""
    n_paths = ensemble.n_paths
    return _sweep(model, ensemble, basis, np.empty((2, n_paths)), np.zeros((1, n_paths)))


def write_backward_csv(sol: BackwardSolution, stream: BinaryIO) -> None:
    """Write the backward pair in long format, path,t,y,z, as ASCII bytes to a
    binary stream."""
    n_paths = sol.y.shape[0]
    write_long_csv(stream, ["y", "z"], sol.times, n_paths, lambda blk: [sol.y[blk], sol.z[blk]])
