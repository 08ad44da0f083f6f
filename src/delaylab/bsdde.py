"""Least-squares Monte Carlo solver for the backward equation.

Along a simulated forward ensemble the pair (Y, Z) of

    -dY(t) = f(t, X, X1, X2, Y, Z, u) dt - Z dW(t),   Y(T) = φ(X(T), X1(T))

is approximated backward in time.  At each node the conditional expectations
are replaced by linear regression of the next-node quantities on basis
functions of (X, X1):

    Z_k = proj[ Y_{k+1} ΔW_k / h ]
    Y_k = proj[ Y_{k+1} + h f(t_k, X_k, X1_k, X2_k, Y_{k+1}, Z_k, u_k) ]

The recursive cost of a policy is J = -Y(s); at the initial node the target
is averaged directly (all paths share the initial state), which also gives
the per-path samples used for common-random-number policy comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import Array, StructuredModel, write_long_csv
from .sdde import ForwardEnsemble

RIDGE = 1e-10


@dataclass
class RegressionBasis:
    """Feature map (x, x1) -> n_features columns used for projections.

    fill(x, x1, out) writes the features of the samples x, x1 into the
    columns of out, a C-order (n_samples, n_features) buffer, overwriting
    every column.  solve_backward allocates that buffer once and reuses it
    at every node.
    """

    n_features: int
    fill: Callable[[Array, Array, Array], None]
    description: str = "basis"


def _power(v: Array, p: int) -> Array:
    """v**p, with the first power read as v itself (bit-identical)."""
    return v if p == 1 else v**p


def polynomial_basis(degree: int = 2) -> RegressionBasis:
    """All monomials x^i x1^j with i + j <= degree, constant included.

    Each monomial is written straight into its column: a zero power is left
    out of the product, which is exact, since x**0 is 1.0.
    """
    powers = [(i, total - i) for total in range(degree + 1) for i in range(total + 1)]

    def fill(x: Array, x1: Array, out: Array) -> None:
        for col, (i, j) in enumerate(powers):
            if i and j:
                np.multiply(_power(x, i), _power(x1, j), out=out[:, col])
            elif i or j:
                out[:, col] = _power(x, i) if i else _power(x1, j)
            else:
                out[:, col] = 1.0

    return RegressionBasis(n_features=len(powers), fill=fill, description=f"poly(deg={degree})")


def augmented_basis(base: RegressionBasis, extra: Callable[[Array, Array], Array], tag: str) -> RegressionBasis:
    """Append one extra feature column, written after the base columns."""
    col = base.n_features

    def fill(x: Array, x1: Array, out: Array) -> None:
        base.fill(x, x1, out[:, :col])
        out[:, col] = extra(x, x1)

    return RegressionBasis(n_features=col + 1, fill=fill, description=f"{base.description}+{tag}")


@dataclass
class BackwardSolution:
    """Regression solution of the backward equation on an ensemble.

    y and z are seen as (n_paths, n_steps + 1) arrays, stored node-major as
    the transposes of C-order (n_nodes, n_paths) buffers.  y[:, k] for
    0 < k < n_steps holds the regressed conditional-expectation estimates;
    y[:, 0] holds the per-path pathwise cost accumulations (regression-free,
    so their spread is an honest Monte Carlo error).  y_at_s is their mean
    and stderr its standard error.  z[:, -1] is not defined by the scheme
    and is stored as 0.
    """

    times: Array
    y: Array
    z: Array
    y_at_s: float
    stderr: float
    degraded_steps: list = field(default_factory=list)


def _gram(features: Array, ridge: float) -> Array:
    """Ridge-damped normal matrix FᵀF/n + ridge·I, shared by the Z and Y fits."""
    n, n_features = features.shape
    with np.errstate(all="ignore"):
        return features.T @ features / n + ridge * np.eye(n_features)


def _project(features: Array, gram: Array, target: Array):
    """Least-squares prediction of target given features and their _gram.

    Falls back to the ensemble mean (constant basis) if the normal equations
    cannot be solved or produce non-finite predictions.
    """
    n = features.shape[0]
    with np.errstate(all="ignore"):
        rhs = features.T @ target / n
        try:
            beta = np.linalg.solve(gram, rhs)
            pred = features @ beta
        except np.linalg.LinAlgError:
            return np.full_like(target, target.mean()), True
    if not np.all(np.isfinite(pred)):
        return np.full_like(target, target.mean()), True
    return pred, False


def solve_backward(
    model: StructuredModel,
    ensemble: ForwardEnsemble,
    basis: RegressionBasis,
    ridge: float = RIDGE,
) -> BackwardSolution:
    """Backward regression sweep along a simulated ensemble.

    The sweep reads node k of every path as one row of the node-major
    ensemble and fills y and z row by row.  Each node writes its features
    into one buffer reused by every node and forms their Gram matrix once
    for both the Z and the Y fit.
    """
    t = ensemble.times
    h = float(t[1] - t[0])
    n_paths, n_steps = ensemble.n_paths, ensemble.n_steps
    x, x1, x2, dw = ensemble.x.T, ensemble.x1.T, ensemble.x2.T, ensemble.dw.T
    u_all = ensemble.controls.transpose(1, 2, 0)  # (n_nodes, n_u, n_paths)

    y = np.empty((n_steps + 1, n_paths))
    z = np.zeros((n_steps + 1, n_paths))
    y[-1] = model.phi(x[-1], x1[-1])
    degraded: list = []
    feats = np.empty((n_paths, basis.n_features))

    for k in range(n_steps - 1, 0, -1):
        basis.fill(x[k], x1[k], feats)
        gram = _gram(feats, ridge)
        y_next = y[k + 1]

        z_pred, bad_z = _project(feats, gram, y_next * dw[k] / h)
        z[k] = z_pred
        target = y_next + h * model.generator(
            float(t[k]), x[k], x1[k], x2[k], y_next, z_pred, u_all[k]
        )
        y_pred, bad_y = _project(feats, gram, target)
        y[k] = y_pred
        if bad_z or bad_y:
            degraded.append(k)

    # Z at the initial node (shared state, so the projection is an average).
    z[0] = float((y[1] * dw[0] / h).mean())

    # Pathwise accumulation for the cost estimate.  Intermediate regression
    # would smooth the per-path samples and correlate them through the shared
    # fit, making the reported standard error far too small; accumulating the
    # driver along each path keeps the samples honest while the regressed
    # y[k] still provide the conditional-expectation functions.
    y_hat = y[-1].copy()
    for k in range(n_steps - 1, -1, -1):
        y_hat = y_hat + h * model.generator(
            float(t[k]), x[k], x1[k], x2[k], y_hat, z[k], u_all[k]
        )
    y[0] = y_hat

    y_at_s = float(y_hat.mean())
    stderr = float(y_hat.std(ddof=1) / math.sqrt(n_paths)) if n_paths > 1 else 0.0
    return BackwardSolution(
        times=t, y=y.T, z=z.T, y_at_s=y_at_s, stderr=stderr, degraded_steps=degraded
    )


@dataclass
class CostEstimate:
    """Monte Carlo estimate of the recursive cost J = -Y(s)."""

    value: float
    stderr: float
    samples: Array  # per-path cost samples -Y0_i
    solution: BackwardSolution
    ensemble: ForwardEnsemble


def cost_estimate(
    model: StructuredModel, ensemble: ForwardEnsemble, basis: RegressionBasis
) -> CostEstimate:
    """Recursive cost J = -Y(s) of an already simulated ensemble."""
    sol = solve_backward(model, ensemble, basis)
    samples = -sol.y[:, 0]
    return CostEstimate(
        value=float(samples.mean()),
        stderr=sol.stderr,
        samples=samples,
        solution=sol,
        ensemble=ensemble,
    )


def write_backward_csv(sol: BackwardSolution, stream) -> None:
    """Write the backward pair in long format: path,t,y,z."""
    write_long_csv(stream, ["y", "z"], sol.times, [sol.y, sol.z])
