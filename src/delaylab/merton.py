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

Δ is a scalar of the market parameters alone, so MertonParams carries it
as a derived field beside θ and μ1, and every closed-form function takes
the parameters alone.  MertonParams validates itself on every construction,
dataclasses.replace included: it derives θ and μ1 when they are not given
and evaluates Q(s) once, so Δ = 0, or a bracket that is not positive at s,
raises DomainError there (exit code 3 on the command line).

The optimal feedback controls are

    u*(s, x, x1) = (μ0 − r) m / ((1 − γ) σ² x)
    c*(s, x, x1) = (m / x) Q(s)^{1/(γ−1)}

and, with q(t) = e^{−β(t−s)}, the adjoints have the closed forms

    p1 = −Q m^{γ−1} q,   p2 = θ p1,   p3 = 0,
    k1 = (1 − γ) σ u* X Q m^{γ−2} q,   k2 = θ k1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    Array,
    ConfigError,
    ControlBox,
    DomainError,
    FeedbackPolicy,
    ModelParams,
    StructuredModel,
    require_finite,
)
from .bsdde import RegressionBasis, polynomial_basis
from .hjb import CheckReport, ValueCandidate
from .pmp import Adjoints
from .sdde import ForwardEnsemble

# Control box of build_model: u ∈ [−U_BOUND, U_BOUND], c ∈ [0, C_BOUND].
U_BOUND = 10.0
C_BOUND = 10.0

# Admissible-cone factors Λ1 (position) and Λ2 (consumption) of build_policy.
LAM1 = 10.0
LAM2 = 10.0

# Pass threshold of q_oracle_check.
Q_ORACLE_TOL = 1e-7


@dataclass(frozen=True)
class MertonParams:
    """Market, preference, and delay parameters with derived constants.

    Every construction validates, dataclasses.replace included: every
    number given is finite, σ > 0 and γ < 1, γ ≠ 0, else ConfigError.
    theta and mu1 left as None are derived from the structural constraints;
    explicit values are kept as given (to study broken constraints), not
    checked against the identities.
    delta_coeff, the Δ of the Q equation, is derived from the other fields,
    and Q(start_s) is evaluated once, so a Δ or bracket outside the domain
    raises DomainError here rather than at the first use of the closed form.
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
    start_s: float = 0.0
    mu1: float | None = None
    theta: float | None = None
    delta_coeff: float = field(init=False)

    def __post_init__(self):
        require_finite(self)
        if self.sigma <= 0.0:
            raise ConfigError(f"sigma must be > 0, got {self.sigma}")
        g = self.gamma
        if g >= 1.0 or g == 0.0:
            raise ConfigError(f"gamma must satisfy gamma < 1 and gamma != 0, got {g}")
        theta_c = self.mu2 * math.exp(self.lam * self.delta)
        if self.theta is None:
            object.__setattr__(self, "theta", theta_c)
        if self.mu1 is None:
            object.__setattr__(self, "mu1", theta_c * (self.lam + self.r + theta_c))
        # Δ = β + γ(μ0 − r)²/(2σ²(γ−1)) − γ(r + μ2 e^{λδ})
        delta_coeff = (
            self.beta
            + g * (self.mu0 - self.r) ** 2 / (2.0 * self.sigma**2 * (g - 1.0))
            - g * (self.r + theta_c)
        )
        object.__setattr__(self, "delta_coeff", delta_coeff)
        q_closed_form(self.start_s, self)

    @property
    def model_params(self) -> ModelParams:
        return ModelParams(
            lam=self.lam,
            delta=self.delta,
            horizon_T=self.horizon_T,
            start_s=self.start_s,
        )


# ---------------------------------------------------------------------------
# The scalar Q equation
# ---------------------------------------------------------------------------


def _q_bracket(t, p: MertonParams):
    """The bracket (1 − k) e^{−Δ(T−t)/(1−γ)} + k of Q, k = (1−γ)/Δ, with its
    exponential term (1 − k) e^{−Δ(T−t)/(1−γ)}."""
    if p.delta_coeff == 0.0:
        raise DomainError("delta coefficient must be nonzero")
    k = (1.0 - p.gamma) / p.delta_coeff
    term = (1.0 - k) * np.exp(
        -p.delta_coeff * (p.horizon_T - np.asarray(t, float)) / (1.0 - p.gamma)
    )
    return term + k, term


def q_closed_form(t, p: MertonParams):
    """Closed-form Q(t) solving Q' = (γ−1)Q^{γ/(γ−1)} + ΔQ, Q(T) = 1."""
    bracket, _ = _q_bracket(t, p)
    if np.any(bracket <= 0.0):
        raise DomainError("closed-form bracket is not positive on the horizon")
    return bracket ** (1.0 - p.gamma)


def q_derivative(t, p: MertonParams):
    """Analytic Q'(t) from the closed form (not from the ODE)."""
    bracket, term = _q_bracket(t, p)
    one_m_g = 1.0 - p.gamma
    return one_m_g * bracket ** (-p.gamma) * (term * (p.delta_coeff / one_m_g))


def q_ode_rhs(q, p: MertonParams):
    """Right-hand side (γ−1)Q^{γ/(γ−1)} + ΔQ of the Q equation."""
    expo = p.gamma / (p.gamma - 1.0)
    return (p.gamma - 1.0) * q**expo + p.delta_coeff * q


def q_ode_oracle(p: MertonParams, n_steps: int = 10_000):
    """Backward Runge-Kutta 4 integration of the Q equation from Q(T) = 1.

    Returns (times, values) on a uniform grid from start_s to T.  Serves as
    the independent oracle against which the closed form is validated.
    """
    times = np.linspace(p.start_s, p.horizon_T, n_steps + 1)
    h = (p.horizon_T - p.start_s) / n_steps
    values = np.empty(n_steps + 1)
    values[-1] = 1.0
    q = 1.0
    for i in range(n_steps, 0, -1):
        # Step from times[i] to times[i-1], i.e. with step -h, on floats:
        # ** raises at 0 and past the float range, and a negative stage
        # value makes q complex.
        try:
            k1 = q_ode_rhs(q, p)
            k2 = q_ode_rhs(q - 0.5 * h * k1, p)
            k3 = q_ode_rhs(q - 0.5 * h * k2, p)
            k4 = q_ode_rhs(q - h * k3, p)
            q = q - (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        except ArithmeticError:
            q = math.nan
        if not isinstance(q, float) or not math.isfinite(q) or q <= 0.0:
            raise DomainError(f"oracle integration left the domain at t={times[i-1]}")
        values[i - 1] = q
    return times, values


def q_oracle_check(p: MertonParams) -> CheckReport:
    """Max relative gap between the closed-form Q and q_ode_oracle at 11
    points of [s, T], passing below Q_ORACLE_TOL."""
    times = np.linspace(p.start_s, p.horizon_T, 11)
    oracle_times, oracle = q_ode_oracle(p)
    q_interp = np.interp(times, oracle_times, oracle)
    worst = float(np.max(np.abs(q_closed_form(times, p) - q_interp) / np.abs(q_interp)))
    return CheckReport(
        check="q_oracle",
        probes=times.size,
        max_residual=worst,
        tolerance=Q_ORACLE_TOL,
        passed=worst < Q_ORACLE_TOL,
    )


# ---------------------------------------------------------------------------
# Value function, controls, model assembly
# ---------------------------------------------------------------------------


def _memory_wealth(p: MertonParams, x, x1):
    m = np.asarray(x, float) + p.theta * np.asarray(x1, float)
    if np.any(m <= 0.0):
        raise DomainError("memory-adjusted wealth x + theta*x1 must be positive")
    return m


def value_function(p: MertonParams) -> ValueCandidate:
    """Closed-form candidate V(s, x, x1) = −(1/γ) Q(s) (x + θx1)^γ.

    V and each partial is coef · Q(s) · m^e, with m = x + θx1 and Q the closed
    form or its derivative.  Q(s) is evaluated before m, so q_closed_form's
    DomainError comes before _memory_wealth's.
    """
    g = p.gamma
    th = p.theta

    def term(coef, q, e):
        return lambda s, x, x1: coef * q(s, p) * _memory_wealth(p, x, x1) ** e

    return ValueCandidate(
        v=term(-(1.0 / g), q_closed_form, g),
        v_s=term(-(1.0 / g), q_derivative, g),
        v_x=term(-1.0, q_closed_form, g - 1.0),
        v_xx=term(-(g - 1.0), q_closed_form, g - 2.0),
        v_x1=term(-th, q_closed_form, g - 1.0),
        v_xx1=term(-th * (g - 1.0), q_closed_form, g - 2.0),
    )


def optimal_u(t, x, x1, p: MertonParams):
    """Portfolio fraction u* = (μ0 − r)(x + θx1)/((1 − γ)σ²x)."""
    return _u_of_wealth(_memory_wealth(p, x, x1), x, p)


def optimal_c(t, x, x1, p: MertonParams):
    """Consumption rate c* = ((x + θx1)/x) Q(t)^{1/(γ−1)}."""
    return _c_of_wealth(t, _memory_wealth(p, x, x1), x, p)


def _u_of_wealth(m, x, p: MertonParams):
    """u* from the memory-adjusted wealth m = x + θx1."""
    return (p.mu0 - p.r) * m / ((1.0 - p.gamma) * p.sigma**2 * np.asarray(x, float))


def _c_of_wealth(t, m, x, p: MertonParams):
    """c* from the memory-adjusted wealth m = x + θx1."""
    return (m / np.asarray(x, float)) * q_closed_form(t, p) ** (1.0 / (p.gamma - 1.0))


def build_model(p: MertonParams) -> StructuredModel:
    """Structured coefficients of the wealth problem.

    Control vector is (u, c): portfolio fraction and consumption rate.
    (cx)^γ is evaluated as a positive-part power so that grid searches may
    probe c = 0 without leaving the reals; for γ < 0 the zero-consumption
    node evaluates to −inf utility, which maximizers discard.
    """
    g = p.gamma

    def utility(v):
        """(1/γ) v^γ for v > 0; at v ≤ 0, −inf when γ < 0 and 0 otherwise."""
        with np.errstate(all="ignore"):
            return (1.0 / g) * np.where(v > 0.0, np.abs(v) ** g, np.inf if g < 0 else 0.0)

    def b1(t, x, x1, u):
        return ((p.mu0 - p.r) * u[0] - u[1] + p.r) * x + p.mu1 * x1

    # The constant coefficients are read-only broadcasts: no caller writes
    # into them, and none allocates an array per call.
    def b2(t, x, x1, u):
        return np.broadcast_to(p.mu2, np.shape(x))

    def sigma(t, x, x1, u):
        return p.sigma * u[0] * x

    def f1(t, x, x1, y, z, u):
        # −βy + U(cx), the utility formed first so that its temporaries are
        # freed before βy is; the sum is the same bits in either order.
        return utility(u[1] * x) - p.beta * y

    def f2(t, x, x1, y, z, u):
        return np.broadcast_to(0.0, np.shape(x))

    def phi(x, x1):
        return utility(np.asarray(x, float) + p.theta * np.asarray(x1, float))

    def f_y(t, x, x1, x2, y, z, u):
        return np.broadcast_to(-p.beta, np.shape(x))

    def f_z(t, x, x1, x2, y, z, u):
        return np.broadcast_to(0.0, np.shape(x))

    return StructuredModel(
        params=p.model_params,
        b1=b1,
        b2=b2,
        sigma=sigma,
        f1=f1,
        f2=f2,
        phi=phi,
        control_set=ControlBox(
            lower=np.array([-U_BOUND, 0.0]), upper=np.array([U_BOUND, C_BOUND])
        ),
        f_y=f_y,
        f_z=f_z,
    )


def build_policy(p: MertonParams) -> FeedbackPolicy:
    """Closed-form optimal feedback policy, clamped to the admissible cone.

    Admissibility bounds the position and consumption flows by the
    memory-adjusted wealth: |uX| ≤ Λ1|X + μ2X1| and 0 ≤ cX ≤ Λ2|X + μ2X1|.
    """

    def evaluate(t, x, x1):
        x = np.asarray(x, float)
        x1 = np.asarray(x1, float)
        bound = np.abs(x + p.mu2 * x1) / np.maximum(np.abs(x), 1e-300)
        m = _memory_wealth(p, x, x1)
        u = np.clip(_u_of_wealth(m, x, p), -LAM1 * bound, LAM1 * bound)
        c = np.clip(_c_of_wealth(t, m, x, p), 0.0, LAM2 * bound)
        return np.stack([np.broadcast_to(u, x.shape), np.broadcast_to(c, x.shape)])

    return FeedbackPolicy(evaluate=evaluate, n_controls=2, label="merton_optimal")


def build_basis(p: MertonParams, degree: int = 2) -> RegressionBasis:
    """Polynomial basis with the memory-adjusted power feature as its last row."""
    g, th = p.gamma, p.theta
    base = polynomial_basis(degree)
    row = base.n_features

    def fill(x, x1, out):
        base.fill(x, x1, out[:row])
        m = x + th * x1
        out[row] = np.where(m > 0.0, np.abs(m) ** g, 0.0)

    return RegressionBasis(n_features=row + 1, fill=fill)


def closed_form_adjoints(
    p: MertonParams,
    ensemble: ForwardEnsemble,
    q: Array,
) -> Adjoints:
    """Adjoint trajectories from the explicit formulas over the ensemble.

    q is the adjoint factor, per node (n_nodes,) or per path and node.
    ensemble.x1 is read at every node, so a simulated ensemble rebuilds it
    whole; the checks pass parts of it (ForwardEnsemble.part and blocks).
    """
    t, x, x1 = ensemble.times, ensemble.x, ensemble.x1
    m = _memory_wealth(p, x, x1)
    g = p.gamma
    qv = q_closed_form(t, p)
    ustar = _u_of_wealth(m, x, p)
    p1 = -qv * m ** (g - 1.0) * q
    k1 = (1.0 - g) * p.sigma * ustar * x * qv * m ** (g - 2.0) * q
    return Adjoints(
        p1=p1,
        p2=p.theta * p1,
        p3=np.broadcast_to(0.0, p1.shape),
        q=np.broadcast_to(np.asarray(q, float), p1.shape),
        k1=k1,
        k2=p.theta * k1,
    )


def exact_q_factor(p: MertonParams, times) -> Array:
    """q(t) = e^{−β(t − s)}, the closed-form recursive-utility factor."""
    return np.exp(-p.beta * (np.asarray(times, float) - p.start_s))
