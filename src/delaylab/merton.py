"""Closed-form consumption and portfolio choice with wealth memory.

Wealth responds to its own moving average and pointwise delay:

    dX = [((μ0 − r)u − c + r)X + μ1 X1 + μ2 X2] dt + σ u X dW

with recursive utility generator f = −βy + (1/γ)(cX)^γ and terminal reward
φ = (1/γ)(X + θX1)^γ.  Under the structural constraints

    θ  = μ2 e^{λδ}
    μ1 = μ2 e^{λδ} (λ + r + μ2 e^{λδ})

the problem collapses to the memory-adjusted wealth m = x + θ x1 and admits
the closed-form value

    V(s, x, x1) = −(1/γ) Q(s) m^γ

where Q solves the scalar terminal-value problem

    Q'(s) = (γ − 1) Q^{γ/(γ−1)} + Δ Q,        Q(T) = 1,
    Δ = β + γ(μ0 − r)² / (2σ²(γ − 1)) − γ(r + μ2 e^{λδ}),

whose solution is

    Q(s) = [ (1 − (1−γ)/Δ) e^{−Δ(T−s)/(1−γ)} + (1−γ)/Δ ]^{1−γ}.

The optimal feedback controls are

    u*(s, x, x1) = (μ0 − r) m / ((1 − γ) σ² x)
    c*(s, x, x1) = (m / x) Q(s)^{1/(γ−1)}

and, with q(t) = e^{−β(t−s)}, the adjoints have the closed forms

    p1 = −Q m^{γ−1} q,   p2 = θ p1,   p3 = 0,
    k1 = (1 − γ) σ u* X Q m^{γ−2} q,   k2 = θ k1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    Array,
    ConstraintViolationError,
    ControlBox,
    DomainError,
    FeedbackPolicy,
    ModelParams,
    StructuredModel,
)
from .bsdde import RegressionBasis, augmented_basis, polynomial_basis
from .hjb import ValueCandidate
from .pmp import Adjoints
from .sdde import ForwardEnsemble


@dataclass(frozen=True)
class MertonParams:
    """Market, preference, and delay parameters with derived constants.

    theta and mu1 are pinned by the structural constraints; construct
    instances through resolve_constraints so they cannot drift apart.
    """

    r: float
    mu0: float
    sigma: float
    beta: float
    gamma: float
    lam: float
    delta: float
    horizon_T: float
    mu2: float
    mu1: float
    theta: float
    start_s: float = 0.0

    @property
    def model_params(self) -> ModelParams:
        return ModelParams(
            lam=self.lam,
            delta=self.delta,
            horizon_T=self.horizon_T,
            start_s=self.start_s,
        )


def resolve_constraints(
    r: float,
    mu0: float,
    sigma: float,
    beta: float,
    gamma: float,
    lam: float,
    delta: float,
    horizon_T: float,
    mu2: float,
    start_s: float = 0.0,
    mu1: float | None = None,
    theta: float | None = None,
) -> MertonParams:
    """Build parameters with θ and μ1 derived from the constraints.

    Explicit mu1/theta overrides are accepted (to study broken constraints)
    but are not validated against the structural identities.
    """
    if sigma <= 0.0:
        raise ConstraintViolationError(f"sigma must be > 0, got {sigma}")
    if gamma >= 1.0 or gamma == 0.0:
        raise ConstraintViolationError(
            f"gamma must satisfy gamma < 1 and gamma != 0, got {gamma}"
        )
    theta_c = mu2 * math.exp(lam * delta)
    if theta is None:
        theta = theta_c
    if mu1 is None:
        mu1 = theta_c * (lam + r + theta_c)
    return MertonParams(
        r=r,
        mu0=mu0,
        sigma=sigma,
        beta=beta,
        gamma=gamma,
        lam=lam,
        delta=delta,
        horizon_T=horizon_T,
        mu2=mu2,
        mu1=mu1,
        theta=theta,
        start_s=start_s,
    )


# ---------------------------------------------------------------------------
# The scalar Q equation
# ---------------------------------------------------------------------------


def delta_coefficient(p: MertonParams) -> float:
    """Δ = β + γ(μ0 − r)²/(2σ²(γ−1)) − γ(r + μ2 e^{λδ})."""
    return (
        p.beta
        + p.gamma * (p.mu0 - p.r) ** 2 / (2.0 * p.sigma**2 * (p.gamma - 1.0))
        - p.gamma * (p.r + p.mu2 * math.exp(p.lam * p.delta))
    )


def q_closed_form(t, p: MertonParams, delta_coeff: float | None = None):
    """Closed-form Q(t) solving Q' = (γ−1)Q^{γ/(γ−1)} + ΔQ, Q(T) = 1."""
    if delta_coeff is None:
        delta_coeff = delta_coefficient(p)
    if delta_coeff == 0.0:
        raise DomainError("delta coefficient must be nonzero")
    one_m_g = 1.0 - p.gamma
    k = one_m_g / delta_coeff
    bracket = (1.0 - k) * np.exp(
        -delta_coeff * (p.horizon_T - np.asarray(t, float)) / one_m_g
    ) + k
    if np.any(bracket <= 0.0):
        raise DomainError("closed-form bracket is not positive on the horizon")
    return bracket**one_m_g


def q_ode_rhs(q, p: MertonParams, delta_coeff: float):
    """Right-hand side (γ−1)Q^{γ/(γ−1)} + ΔQ of the Q equation."""
    expo = p.gamma / (p.gamma - 1.0)
    return (p.gamma - 1.0) * np.power(q, expo) + delta_coeff * q


def q_ode_oracle(
    p: MertonParams,
    delta_coeff: float | None = None,
    n_steps: int = 10_000,
):
    """Backward Runge-Kutta 4 integration of the Q equation from Q(T) = 1.

    Returns (times, values) on a uniform grid from start_s to T.  Serves as
    the independent oracle against which the closed form is validated.
    """
    if delta_coeff is None:
        delta_coeff = delta_coefficient(p)
    times = np.linspace(p.start_s, p.horizon_T, n_steps + 1)
    h = (p.horizon_T - p.start_s) / n_steps
    values = np.empty(n_steps + 1)
    values[-1] = 1.0
    q = 1.0
    for i in range(n_steps, 0, -1):
        # Step from times[i] to times[i-1], i.e. with step -h.
        k1 = q_ode_rhs(q, p, delta_coeff)
        k2 = q_ode_rhs(q - 0.5 * h * k1, p, delta_coeff)
        k3 = q_ode_rhs(q - 0.5 * h * k2, p, delta_coeff)
        k4 = q_ode_rhs(q - h * k3, p, delta_coeff)
        q = q - (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.isfinite(q) or q <= 0.0:
            raise DomainError(f"oracle integration left the domain at t={times[i-1]}")
        values[i - 1] = q
    return times, values


@dataclass(frozen=True)
class QSolution:
    """Closed-form Q with its coefficient and analytic derivative."""

    params: MertonParams
    delta_coeff: float

    def __call__(self, t):
        return q_closed_form(t, self.params, self.delta_coeff)

    def derivative(self, t):
        """Analytic Q'(t) from the closed form (not from the ODE)."""
        p = self.params
        one_m_g = 1.0 - p.gamma
        k = one_m_g / self.delta_coeff
        expo = np.exp(-self.delta_coeff * (p.horizon_T - np.asarray(t, float)) / one_m_g)
        bracket = (1.0 - k) * expo + k
        d_bracket = (1.0 - k) * expo * (self.delta_coeff / one_m_g)
        return one_m_g * bracket ** (-p.gamma) * d_bracket


def solve_q(p: MertonParams) -> QSolution:
    qsol = QSolution(params=p, delta_coeff=delta_coefficient(p))
    qsol(p.start_s)  # fail fast if the bracket leaves the domain
    return qsol


# ---------------------------------------------------------------------------
# Value function, controls, model assembly
# ---------------------------------------------------------------------------


def _memory_wealth(p: MertonParams, x, x1):
    m = np.asarray(x, float) + p.theta * np.asarray(x1, float)
    if np.any(m <= 0.0):
        raise DomainError("memory-adjusted wealth x + theta*x1 must be positive")
    return m


def value_function(p: MertonParams, qsol: QSolution | None = None) -> ValueCandidate:
    """Closed-form candidate V(s, x, x1) = −(1/γ) Q(s) (x + θx1)^γ."""
    if qsol is None:
        qsol = solve_q(p)
    g = p.gamma
    th = p.theta

    def v(s, x, x1):
        return -(1.0 / g) * qsol(s) * _memory_wealth(p, x, x1) ** g

    def v_s(s, x, x1):
        return -(1.0 / g) * qsol.derivative(s) * _memory_wealth(p, x, x1) ** g

    def v_x(s, x, x1):
        return -qsol(s) * _memory_wealth(p, x, x1) ** (g - 1.0)

    def v_xx(s, x, x1):
        return -(g - 1.0) * qsol(s) * _memory_wealth(p, x, x1) ** (g - 2.0)

    def v_x1(s, x, x1):
        return -th * qsol(s) * _memory_wealth(p, x, x1) ** (g - 1.0)

    def v_xx1(s, x, x1):
        return -th * (g - 1.0) * qsol(s) * _memory_wealth(p, x, x1) ** (g - 2.0)

    return ValueCandidate(v=v, v_s=v_s, v_x=v_x, v_xx=v_xx, v_x1=v_x1, v_xx1=v_xx1)


def optimal_u(t, x, x1, p: MertonParams):
    """Portfolio fraction u* = (μ0 − r)(x + θx1)/((1 − γ)σ²x)."""
    m = _memory_wealth(p, x, x1)
    return (p.mu0 - p.r) * m / ((1.0 - p.gamma) * p.sigma**2 * np.asarray(x, float))


def optimal_c(t, x, x1, p: MertonParams, qsol: QSolution):
    """Consumption rate c* = ((x + θx1)/x) Q(t)^{1/(γ−1)}."""
    m = _memory_wealth(p, x, x1)
    return (m / np.asarray(x, float)) * qsol(t) ** (1.0 / (p.gamma - 1.0))


def build_model(
    p: MertonParams,
    u_bound: float = 10.0,
    c_bound: float = 10.0,
) -> StructuredModel:
    """Structured coefficients of the wealth problem.

    Control vector is (u, c): portfolio fraction and consumption rate.
    (cx)^γ is evaluated as a positive-part power so that grid searches may
    probe c = 0 without leaving the reals; for γ < 0 the zero-consumption
    node evaluates to −inf utility, which maximizers discard.
    """
    g = p.gamma

    def b1(t, x, x1, u):
        return ((p.mu0 - p.r) * u[0] - u[1] + p.r) * x + p.mu1 * x1

    def b2(t, x, x1, u):
        return p.mu2 * np.ones_like(np.asarray(x, float))

    def sigma(t, x, x1, u):
        return p.sigma * u[0] * x

    def f1(t, x, x1, y, z, u):
        cx = u[1] * x
        with np.errstate(all="ignore"):
            util = (1.0 / g) * np.where(cx > 0.0, np.abs(cx) ** g, np.inf if g < 0 else 0.0)
        return -p.beta * y + util

    def f2(t, x, x1, y, z, u):
        return np.zeros_like(np.asarray(x, float))

    def phi(x, x1):
        m = np.asarray(x, float) + p.theta * np.asarray(x1, float)
        with np.errstate(all="ignore"):
            return (1.0 / g) * np.where(m > 0.0, np.abs(m) ** g, np.inf if g < 0 else 0.0)

    def f_y(t, x, x1, x2, y, z, u):
        return -p.beta * np.ones_like(np.asarray(x, float))

    def f_z(t, x, x1, x2, y, z, u):
        return np.zeros_like(np.asarray(x, float))

    return StructuredModel(
        params=p.model_params,
        b1=b1,
        b2=b2,
        sigma=sigma,
        f1=f1,
        f2=f2,
        phi=phi,
        control_set=ControlBox(
            lower=np.array([-u_bound, 0.0]), upper=np.array([u_bound, c_bound])
        ),
        f_y=f_y,
        f_z=f_z,
    )


def build_policy(
    p: MertonParams,
    qsol: QSolution | None = None,
    lam1: float = 10.0,
    lam2: float = 10.0,
) -> FeedbackPolicy:
    """Closed-form optimal feedback policy, clamped to the admissible cone.

    Admissibility bounds the position and consumption flows by the
    memory-adjusted wealth: |uX| ≤ Λ1|X + μ2X1| and 0 ≤ cX ≤ Λ2|X + μ2X1|.
    """
    if qsol is None:
        qsol = solve_q(p)

    def evaluate(t, x, x1):
        x = np.asarray(x, float)
        x1 = np.asarray(x1, float)
        bound = np.abs(x + p.mu2 * x1) / np.maximum(np.abs(x), 1e-300)
        u = np.clip(optimal_u(t, x, x1, p), -lam1 * bound, lam1 * bound)
        c = np.clip(optimal_c(t, x, x1, p, qsol), 0.0, lam2 * bound)
        return np.stack([np.broadcast_to(u, x.shape), np.broadcast_to(c, x.shape)])

    return FeedbackPolicy(evaluate=evaluate, n_controls=2, label="merton_optimal")


def build_basis(p: MertonParams, degree: int = 2) -> RegressionBasis:
    """Polynomial basis augmented with the memory-adjusted power feature."""
    g, th = p.gamma, p.theta

    def feature(x, x1):
        m = x + th * x1
        return np.where(m > 0.0, np.abs(m) ** g, 0.0)

    return augmented_basis(polynomial_basis(degree), feature, tag="memory_power")


def closed_form_adjoints(
    p: MertonParams,
    qsol: QSolution,
    ensemble: ForwardEnsemble,
    q: Array,
) -> Adjoints:
    """Adjoint trajectories from the explicit formulas over the ensemble.

    q is the adjoint factor, per node (n_nodes,) or per path and node.
    """
    t, x, x1 = ensemble.times, ensemble.x, ensemble.x1
    m = _memory_wealth(p, x, x1)
    g = p.gamma
    qv = qsol(t)
    ustar = optimal_u(t, x, x1, p)
    p1 = -qv * m ** (g - 1.0) * q
    k1 = (1.0 - g) * p.sigma * ustar * x * qv * m ** (g - 2.0) * q
    return Adjoints(
        times=t,
        p1=p1,
        p2=p.theta * p1,
        p3=np.zeros_like(p1),
        q=np.broadcast_to(np.asarray(q, float), p1.shape),
        k1=k1,
        k2=p.theta * k1,
    )


def exact_q_factor(p: MertonParams, times) -> Array:
    """q(t) = e^{−β(t − s)}, the closed-form recursive-utility factor."""
    return np.exp(-p.beta * (np.asarray(times, float) - p.start_s))
