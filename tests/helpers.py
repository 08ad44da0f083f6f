"""Test-only helpers: a constant feedback policy, adjoint maps for the
ensemble checks, pmp.simulate_q's blocks as one array, the pathwise
check of the delayed chain rule (Itô's formula for g(t, X, X1)), and the
delayed linear-quadratic regulator, an exact family besides Merton's.

Nothing in the package calls these; the unit tests and the acceptance
criteria do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from delaylab import merton, pmp
from delaylab.core import Array, ControlBox, FeedbackPolicy, ModelParams, StructuredModel
from delaylab.hjb import ValueCandidate
from delaylab.sdde import ForwardEnsemble, pair_stderr

ADJOINT_FIELDS = ("p1", "p2", "p3", "q", "k1", "k2")


def constant_policy(values: Sequence[float], label: str = "constant") -> FeedbackPolicy:
    """Policy that returns the same control vector at every state."""
    vec = np.atleast_1d(np.asarray(values, float))

    def evaluate(t, x, x1):
        x = np.asarray(x, float)
        return vec.reshape((vec.size,) + (1,) * x.ndim) * np.ones_like(x)

    return FeedbackPolicy(evaluate=evaluate, n_controls=vec.size, label=label)


def value_adjoints(
    model: StructuredModel, cand: ValueCandidate, params: merton.MertonParams
) -> pmp.AdjointMap:
    """The adjoint map of pmp.adjoint_from_value with the exact Merton q."""
    return lambda part: pmp.adjoint_from_value(
        model, cand, part, merton.exact_q_factor(params, part.times)
    )


def closed_form_adjoints(params: merton.MertonParams) -> pmp.AdjointMap:
    """The adjoint map of merton.closed_form_adjoints with the exact q, as
    check-relations builds it."""
    return lambda part: merton.closed_form_adjoints(
        params, part, merton.exact_q_factor(params, part.times)
    )


def node_map(ensemble: ForwardEnsemble, adjoint: pmp.Adjoints) -> pmp.AdjointMap:
    """The adjoint map of adjoints held as whole (n_paths, n_nodes) arrays
    of ensemble.

    It serves the ensemble checks, which call their map on node-row blocks
    of every path: a block is found by its node times among ensemble's.
    """

    def adjoint_of(part: ForwardEnsemble) -> pmp.Adjoints:
        start = int(np.searchsorted(ensemble.times, part.times[0]))
        blk = slice(start, start + part.times.size)
        assert np.array_equal(ensemble.times[blk], part.times)
        assert part.n_paths == adjoint.p1.shape[0], "a block of every path"
        return pmp.Adjoints(**{name: getattr(adjoint, name)[:, blk] for name in ADJOINT_FIELDS})

    return adjoint_of


def simulated_q(model: StructuredModel, ensemble: ForwardEnsemble) -> Array:
    """pmp.simulate_q's node-row blocks joined into one (n_paths, n_nodes)
    array."""
    return np.concatenate([q for _, q in pmp.simulate_q(model, ensemble)], axis=1)


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
    """Ensemble statistics of the accumulated chain-rule defect: its mean
    and standard error over the antithetic pairs (sdde.pair_stderr)."""

    mean: float
    stderr: float
    residuals: Array


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
    t, h = ensemble.times, ensemble.h
    x, x1, x2, u = ensemble.x, ensemble.x1, ensemble.x2, ensemble.u

    tL = t[:-1]
    xL, x1L, x2L = x[:, :-1], x1[:, :-1], x2[:, :-1]
    uL = u[:, :, :-1]

    b = model.drift(tL, xL, x1L, x2L, uL)
    sg = model.sigma(tL, xL, x1L, uL)
    drift = (
        g.g_t(tL, xL, x1L)
        + b * g.g_x(tL, xL, x1L)
        + 0.5 * sg**2 * g.g_xx(tL, xL, x1L)
        + model.x1_drift(xL, x1L, x2L) * g.g_x1(tL, xL, x1L)
    )
    dg = g.g(t[1:], x[:, 1:], x1[:, 1:]) - g.g(tL, xL, x1L)
    defect = dg - drift * h - g.g_x(tL, xL, x1L) * sg * ensemble.dw

    # Each path's defects are summed over a path-major copy, so that the
    # pairwise summation adds them in the same order whatever the layout.
    residuals = np.ascontiguousarray(defect).sum(axis=1)
    return ItoCheckReport(
        mean=float(residuals.mean()), stderr=pair_stderr(residuals), residuals=residuals
    )


@dataclass(frozen=True)
class LQParams:
    """The delayed linear-quadratic regulator on [0, T].

    With Z = x + θx1 its coefficients are b1 = −θx + θλx1 + u,
    b2 = θe^{−λδ}, σ constant, f1 = −βy − ½u², f2 = 0 and φ = −½gZ².  The
    delay terms cancel in Z, so dZ = u dt + σ dW, in the Euler scheme too, and
    every function of Z solves the compatibility system.
    """

    lam: float = 0.5
    delta: float = 0.25
    horizon_T: float = 1.0
    theta: float = 0.4
    beta: float = 0.3
    g: float = 2.0
    sigma: float = 0.5
    u_bound: float = 50.0

    def z(self, x, x1):
        return np.asarray(x, float) + self.theta * np.asarray(x1, float)

    def riccati(self, s):
        """P(s), with 1/P(s) = −1/β + C·e^{−βs}, C = (1/g + 1/β)e^{βT}; it
        solves P' = βP + P², P(T) = g."""
        return 1.0 / (-1.0 / self.beta + self._c() * np.exp(-self.beta * np.asarray(s, float)))

    def offset(self, s):
        """c(s) = σ²e^{βs}·log(g/P(s)) / (2βC), which solves c' = βc − ½σ²P,
        c(T) = 0."""
        s = np.asarray(s, float)
        return (
            self.sigma**2 * np.exp(self.beta * s) * np.log(self.g / self.riccati(s))
            / (2.0 * self.beta * self._c())
        )

    def _c(self):
        return (1.0 / self.g + 1.0 / self.beta) * math.exp(self.beta * self.horizon_T)


def lq_model(p: LQParams) -> StructuredModel:
    def const(value):
        return lambda t, x, *rest: np.broadcast_to(value, np.shape(x))

    return StructuredModel(
        params=ModelParams(lam=p.lam, delta=p.delta, horizon_T=p.horizon_T),
        b1=lambda t, x, x1, u: -p.theta * x + p.theta * p.lam * x1 + u[0],
        b2=const(p.theta * math.exp(-p.lam * p.delta)),
        sigma=const(p.sigma),
        f1=lambda t, x, x1, y, z, u: -p.beta * y - 0.5 * u[0] ** 2,
        f2=const(0.0),
        phi=lambda x, x1: -0.5 * p.g * p.z(x, x1) ** 2,
        control_set=ControlBox(lower=[-p.u_bound], upper=[p.u_bound]),
        f_y=const(-p.beta),
        f_z=const(0.0),
    )


def lq_candidate(p: LQParams) -> ValueCandidate:
    """V = ½P(s)Z² + c(s), with V_s from the Riccati equation and c' = βc − ½σ²P."""
    P = p.riccati

    def v_s(s, x, x1):
        ps = P(s)
        return 0.5 * (p.beta * ps + ps**2) * p.z(x, x1) ** 2 + (
            p.beta * p.offset(s) - 0.5 * p.sigma**2 * ps
        )

    return ValueCandidate(
        v=lambda s, x, x1: 0.5 * P(s) * p.z(x, x1) ** 2 + p.offset(s),
        v_s=v_s,
        v_x=lambda s, x, x1: P(s) * p.z(x, x1),
        v_xx=lambda s, x, x1: P(s),
        v_x1=lambda s, x, x1: p.theta * P(s) * p.z(x, x1),
        v_xx1=lambda s, x, x1: p.theta * P(s),
    )


def lq_policy(p: LQParams) -> FeedbackPolicy:
    """u* = −P(t)Z."""
    return FeedbackPolicy(
        evaluate=lambda t, x, x1: (-p.riccati(t) * p.z(x, x1))[np.newaxis],
        n_controls=1,
        label="lq_optimal",
    )


def lq_scheme_cost(p: LQParams, z0: float, n_steps: int) -> float:
    """J_h, the expectation of the Euler scheme's own cost samples under
    u* = −P(t)Z from Z(0) = z0 on n_steps steps over [0, T].

    The scheme is exact in Z: Z_{k+1} = (1 − hP_k)Z_k + σΔW_k, so
    m_k = E[Z_k²] follows m_{k+1} = (1 − hP_k)²m_k + σ²h.  The pathwise
    samples y_k = (1 − hβ)y_{k+1} − ½hP_k²Z_k² − Z̃_kΔW_k, y_N = −½gZ_N²,
    are linear in Z_k², and Z̃_k, fitted on paths that do not hold this one's
    increments, is independent of ΔW_k, so

        J_h = −E[y_0] = ½ Σ_k (1 − hβ)^k hP_k²m_k + ½g(1 − hβ)^N m_N.
    """
    h = p.horizon_T / n_steps
    m, cost = z0**2, 0.0
    for k in range(n_steps):
        pk = float(p.riccati(k * h))
        cost += 0.5 * (1.0 - h * p.beta) ** k * h * pk**2 * m
        m = (1.0 - h * pk) ** 2 * m + p.sigma**2 * h
    return cost + 0.5 * p.g * (1.0 - h * p.beta) ** n_steps * m


def lq_q_factor(p: LQParams, times) -> Array:
    """q(t) = e^{−βt}: f_y = −β and f_z = 0."""
    return np.exp(-p.beta * np.asarray(times, float))
