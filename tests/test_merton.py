"""Closed-form benchmark: frozen constants, Q oracle, controls, reductions."""

import math

import numpy as np
import pytest

from delaylab import core, hjb, merton

P0 = dict(
    r=0.03, mu0=0.08, sigma=0.2, beta=0.1, gamma=0.5,
    lam=0.1, delta=1.0, horizon_T=1.0, mu2=0.01,
)


def delta_coefficient_misprinted(p):
    """Mutant of merton.delta_coefficient with (mu1 - r)^2 for (mu0 - r)^2."""
    return (
        p.beta
        + p.gamma * (p.mu1 - p.r) ** 2 / (2.0 * p.sigma**2 * (p.gamma - 1.0))
        - p.gamma * (p.r + p.mu2 * math.exp(p.lam * p.delta))
    )


def q_closed_form_flipped_exponent(t, p):
    """Mutant of merton.q_closed_form with e^{+Delta(T-t)/(1-gamma)}; it
    solves the time-reversed equation."""
    delta_coeff = merton.delta_coefficient(p)
    one_m_g = 1.0 - p.gamma
    k = one_m_g / delta_coeff
    bracket = (1.0 - k) * np.exp(
        delta_coeff * (p.horizon_T - np.asarray(t, float)) / one_m_g
    ) + k
    if np.any(bracket <= 0.0):
        raise core.DomainError("closed-form bracket is not positive on the horizon")
    return bracket**one_m_g


@pytest.fixture(scope="module")
def p0():
    return merton.resolve_constraints(**P0)


class TestDerivedConstants:
    def test_frozen_theta(self, p0):
        # theta = mu2 e^{lam delta}, evaluated once by hand and frozen.
        assert p0.theta == pytest.approx(0.011051709180756477, rel=1e-14)

    def test_frozen_mu1(self, p0):
        # mu1 = theta (lam + r + theta).
        assert p0.mu1 == pytest.approx(0.0015588624693143591, rel=1e-14)

    def test_frozen_delta_coefficient(self, p0):
        assert merton.delta_coefficient(p0) == pytest.approx(
            0.04822414540962176, rel=1e-14
        )

    def test_validation(self):
        with pytest.raises(core.ConstraintViolationError):
            merton.resolve_constraints(**{**P0, "sigma": 0.0})
        with pytest.raises(core.ConstraintViolationError):
            merton.resolve_constraints(**{**P0, "gamma": 1.0})
        with pytest.raises(core.ConstraintViolationError):
            merton.resolve_constraints(**{**P0, "gamma": 0.0})


class TestQFunction:
    def test_terminal_value_one(self, p0):
        assert float(merton.q_closed_form(p0.horizon_T, p0)) == pytest.approx(
            1.0, abs=1e-15
        )

    def test_unit_delta_coefficient_special_case(self, p0):
        # When Delta = 1 - gamma the bracket collapses and Q is identically 1.
        q = merton.q_closed_form(
            np.linspace(0.0, 1.0, 11), p0, delta_coeff=1.0 - p0.gamma
        )
        assert np.max(np.abs(q - 1.0)) < 1e-14

    @pytest.mark.parametrize("gamma", [0.5, -1.0])
    def test_closed_form_matches_ode_oracle(self, gamma):
        p = merton.resolve_constraints(**{**P0, "gamma": gamma})
        times, oracle = merton.q_ode_oracle(p, n_steps=10_000)
        closed = merton.q_closed_form(times, p)
        rel = np.max(np.abs(closed - oracle) / np.abs(oracle))
        assert rel < 1e-8

    def test_analytic_derivative_solves_ode(self, p0):
        qsol = merton.solve_q(p0)
        t = np.linspace(0.0, 1.0, 1001)
        residual = qsol.derivative(t) - merton.q_ode_rhs(
            qsol(t), p0, qsol.delta_coeff
        )
        assert np.max(np.abs(residual)) < 1e-9

    def test_flipped_exponent_variant_fails_oracle(self, p0):
        times, oracle = merton.q_ode_oracle(p0, n_steps=2_000)
        wrong = q_closed_form_flipped_exponent(times, p0)
        assert np.max(np.abs(wrong - oracle)) > 0.1

    def test_misprinted_delta_fails_oracle(self, p0):
        times, oracle = merton.q_ode_oracle(p0, n_steps=2_000)
        wrong = merton.q_closed_form(times, p0, delta_coefficient_misprinted(p0))
        assert np.max(np.abs(wrong - oracle)) > 1e-3

    def test_initial_value_frozen(self, p0):
        assert float(merton.q_closed_form(0.0, p0)) == pytest.approx(
            1.3643116987970898, rel=1e-12
        )


class TestControls:
    def test_u_formula_value(self, p0):
        # u* = (mu0 - r)(x + theta x1) / ((1 - gamma) sigma^2 x).
        x, x1 = 1.0, 1.0
        expected = (
            (p0.mu0 - p0.r) * (x + p0.theta * x1)
            / ((1.0 - p0.gamma) * p0.sigma**2 * x)
        )
        assert float(merton.optimal_u(0.0, x, x1, p0)) == pytest.approx(expected)
        assert expected == pytest.approx(2.5276292729517, rel=1e-10)

    def test_c_formula_value(self, p0):
        qsol = merton.solve_q(p0)
        x, x1 = 1.0, 1.0
        m = x + p0.theta * x1
        expected = (m / x) * float(qsol(0.0)) ** (1.0 / (p0.gamma - 1.0))
        assert float(merton.optimal_c(0.0, x, x1, p0, qsol)) == pytest.approx(expected)

    def test_controls_maximize_hamiltonian(self, p0):
        qsol = merton.solve_q(p0)
        model = merton.build_model(p0)
        cand = merton.value_function(p0, qsol)
        s, x, x1 = 0.4, 1.5, 1.1
        args = hjb.args_from_candidate(cand, s, x, x1)
        u_star = np.array(
            [
                float(merton.optimal_u(s, x, x1, p0)),
                float(merton.optimal_c(s, x, x1, p0, qsol)),
            ]
        )
        g_star = float(
            np.asarray(
                hjb.generalized_hamiltonian(model, s, x, x1, 0.0, u_star[:, None], args)
            ).ravel()[0]
        )
        rng = np.random.default_rng(4)
        for _ in range(200):
            u_alt = u_star + rng.uniform(-0.2, 0.2, size=2)
            u_alt[1] = max(u_alt[1], 0.0)
            g_alt = float(
                np.asarray(
                    hjb.generalized_hamiltonian(
                        model, s, x, x1, 0.0, u_alt[:, None], args
                    )
                ).ravel()[0]
            )
            assert g_alt <= g_star + 1e-12


class TestNoMemoryReduction:
    def test_mu2_zero_recovers_classical_solution(self):
        p = merton.resolve_constraints(**{**P0, "mu2": 0.0})
        assert p.theta == 0.0
        assert p.mu1 == 0.0
        # u* loses all x1 dependence and equals the classical Merton ratio.
        ratio = (p.mu0 - p.r) / ((1.0 - p.gamma) * p.sigma**2)
        assert float(merton.optimal_u(0.0, 1.0, 5.0, p)) == pytest.approx(ratio)
        assert ratio == pytest.approx(2.5)
        # Delta loses the memory premium.
        expected = (
            p.beta
            + p.gamma * (p.mu0 - p.r) ** 2 / (2.0 * p.sigma**2 * (p.gamma - 1.0))
            - p.gamma * p.r
        )
        assert merton.delta_coefficient(p) == pytest.approx(expected)

    def test_mu2_zero_value_independent_of_x1(self):
        p = merton.resolve_constraints(**{**P0, "mu2": 0.0})
        cand = merton.value_function(p)
        v_a = cand.v(0.3, 2.0, 0.5)
        v_b = cand.v(0.3, 2.0, 5.0)
        assert float(v_a) == pytest.approx(float(v_b), rel=1e-14)


class TestDomain:
    def test_nonpositive_memory_wealth_rejected(self, p0):
        cand = merton.value_function(p0)
        with pytest.raises(core.DomainError):
            cand.v(0.0, -1.0, 0.0)
        with pytest.raises(core.DomainError):
            merton.optimal_u(0.0, 0.5, -0.5 / p0.theta - 1.0, p0)

    def test_value_sign_and_scale(self, p0):
        # V = -(1/gamma) Q m^gamma with gamma in (0,1): V < 0, and the
        # candidate at the standard initial state is frozen as a regression
        # anchor.
        cand = merton.value_function(p0)
        v0 = float(cand.v(0.0, 1.0, merton_x1_at_start(p0)))
        assert v0 < 0.0
        assert -v0 == pytest.approx(2.7429344597126346, rel=1e-10)


def merton_x1_at_start(p):
    # Exponentially weighted moving average of the constant prehistory 1.
    return (1.0 - math.exp(-p.lam * p.delta)) / p.lam
