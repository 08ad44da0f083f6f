"""Closed-form benchmark: frozen constants, Q oracle, controls, reductions."""

import dataclasses
import math

import numpy as np
import pytest

from delaylab import core, hjb, merton

P0 = dict(
    r=0.03, mu0=0.08, sigma=0.2, beta=0.1, gamma=0.5,
    lam=0.1, delta=1.0, horizon_T=1.0, mu2=0.01,
)


def with_delta_coeff(p, value):
    """A copy of p whose derived Delta is replaced by value, to evaluate the
    closed form at a Delta its parameters do not give."""
    copy = dataclasses.replace(p)
    object.__setattr__(copy, "delta_coeff", value)
    return copy


def delta_coefficient_misprinted(p):
    """Mutant of the Delta of MertonParams with (mu1 - r)^2 for (mu0 - r)^2."""
    return (
        p.beta
        + p.gamma * (p.mu1 - p.r) ** 2 / (2.0 * p.sigma**2 * (p.gamma - 1.0))
        - p.gamma * (p.r + p.mu2 * math.exp(p.lam * p.delta))
    )


def q_closed_form_flipped_exponent(t, p):
    """Mutant of merton.q_closed_form with e^{+Delta(T-t)/(1-gamma)}; it
    solves the time-reversed equation."""
    delta_coeff = p.delta_coeff
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
    return merton.MertonParams(**P0)


class TestDerivedConstants:
    def test_frozen_theta(self, p0):
        # theta = mu2 e^{lam delta}, evaluated once by hand and frozen.
        assert p0.theta == pytest.approx(0.011051709180756477, rel=1e-14)

    def test_frozen_mu1(self, p0):
        # mu1 = theta (lam + r + theta).
        assert p0.mu1 == pytest.approx(0.0015588624693143591, rel=1e-14)

    def test_frozen_delta_coefficient(self, p0):
        assert p0.delta_coeff == pytest.approx(
            0.04822414540962176, rel=1e-14
        )

    def test_validation(self):
        with pytest.raises(core.ConfigError):
            merton.MertonParams(**{**P0, "sigma": 0.0})
        with pytest.raises(core.ConfigError):
            merton.MertonParams(**{**P0, "gamma": 1.0})
        with pytest.raises(core.ConfigError):
            merton.MertonParams(**{**P0, "gamma": 0.0})

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", [*P0, "start_s", "mu1", "theta"])
    def test_non_finite_field_rejected(self, name, value):
        # NaN passes every range check written as a comparison, and Delta
        # and Q then read NaN; an explicit mu1 or theta is checked too.
        with pytest.raises(core.ConfigError, match=f"{name} must be finite"):
            merton.MertonParams(**{**P0, name: value})

    def test_delta_follows_the_parameters(self, p0):
        moved = dataclasses.replace(p0, beta=p0.beta + 0.25)
        assert moved.delta_coeff == pytest.approx(p0.delta_coeff + 0.25, rel=1e-14)

    def test_replace_validates(self, p0):
        # dataclasses.replace runs the same checks as a direct construction.
        with pytest.raises(core.ConfigError):
            dataclasses.replace(p0, gamma=0.0)
        with pytest.raises(core.ConfigError):
            dataclasses.replace(p0, sigma=0.0)

    def test_replace_keeps_explicit_theta_and_mu1(self, p0):
        broken = merton.MertonParams(**P0, theta=p0.theta + 0.01, mu1=p0.mu1 + 0.01)
        assert (broken.theta, broken.mu1) == (p0.theta + 0.01, p0.mu1 + 0.01)
        moved = dataclasses.replace(broken, beta=p0.beta + 0.25)
        assert (moved.theta, moved.mu1) == (broken.theta, broken.mu1)
        assert dataclasses.replace(p0, beta=p0.beta + 0.25).theta == p0.theta

    def test_zero_delta_fails_fast(self):
        # Delta = beta - gamma r = 0 when mu0 = r and mu2 = 0.
        with pytest.raises(core.DomainError):
            merton.MertonParams(
                **{**P0, "mu0": 0.04, "r": 0.04, "mu2": 0.0, "beta": 0.02}
            )


class TestQFunction:
    def test_terminal_value_one(self, p0):
        assert float(merton.q_closed_form(p0.horizon_T, p0)) == pytest.approx(
            1.0, abs=1e-15
        )

    def test_unit_delta_coefficient_special_case(self, p0):
        # When Delta = 1 - gamma the bracket collapses and Q is identically 1.
        q = merton.q_closed_form(
            np.linspace(0.0, 1.0, 11), with_delta_coeff(p0, 1.0 - p0.gamma)
        )
        assert np.max(np.abs(q - 1.0)) < 1e-14

    @pytest.mark.parametrize("gamma", [0.5, -1.0])
    def test_closed_form_matches_ode_oracle(self, gamma):
        p = merton.MertonParams(**{**P0, "gamma": gamma})
        times, oracle = merton.q_ode_oracle(p, n_steps=10_000)
        closed = merton.q_closed_form(times, p)
        rel = np.max(np.abs(closed - oracle) / np.abs(oracle))
        assert rel < 1e-8

    def test_analytic_derivative_solves_ode(self, p0):
        t = np.linspace(0.0, 1.0, 1001)
        residual = merton.q_derivative(t, p0) - merton.q_ode_rhs(
            merton.q_closed_form(t, p0), p0
        )
        assert np.max(np.abs(residual)) < 1e-9

    def test_flipped_exponent_variant_fails_oracle(self, p0):
        times, oracle = merton.q_ode_oracle(p0, n_steps=2_000)
        wrong = q_closed_form_flipped_exponent(times, p0)
        assert np.max(np.abs(wrong - oracle)) > 0.1

    def test_misprinted_delta_fails_oracle(self, p0):
        times, oracle = merton.q_ode_oracle(p0, n_steps=2_000)
        wrong = merton.q_closed_form(
            times, with_delta_coeff(p0, delta_coefficient_misprinted(p0))
        )
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
        x, x1 = 1.0, 1.0
        m = x + p0.theta * x1
        expected = (m / x) * float(merton.q_closed_form(0.0, p0)) ** (1.0 / (p0.gamma - 1.0))
        assert float(merton.optimal_c(0.0, x, x1, p0)) == pytest.approx(expected)

    def test_controls_maximize_hamiltonian(self, p0):
        model = merton.build_model(p0)
        cand = merton.value_function(p0)
        s, x, x1 = 0.4, 1.5, 1.1
        u_star = np.array(
            [
                float(merton.optimal_u(s, x, x1, p0)),
                float(merton.optimal_c(s, x, x1, p0)),
            ]
        )
        g_star = float(
            np.asarray(
                hjb.generalized_hamiltonian(model, s, x, x1, 0.0, cand)(u_star[:, None])
            ).ravel()[0]
        )
        rng = np.random.default_rng(4)
        for _ in range(200):
            u_alt = u_star + rng.uniform(-0.2, 0.2, size=2)
            u_alt[1] = max(u_alt[1], 0.0)
            g_alt = float(
                np.asarray(
                    hjb.generalized_hamiltonian(model, s, x, x1, 0.0, cand)(u_alt[:, None])
                ).ravel()[0]
            )
            assert g_alt <= g_star + 1e-12


class TestNoMemoryReduction:
    def test_mu2_zero_recovers_classical_solution(self):
        p = merton.MertonParams(**{**P0, "mu2": 0.0})
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
        assert p.delta_coeff == pytest.approx(expected)

    def test_mu2_zero_value_independent_of_x1(self):
        p = merton.MertonParams(**{**P0, "mu2": 0.0})
        cand = merton.value_function(p)
        v_a = cand.v(0.3, 2.0, 0.5)
        v_b = cand.v(0.3, 2.0, 5.0)
        assert float(v_a) == pytest.approx(float(v_b), rel=1e-14)


class TestValueFunction:
    def test_same_bits_as_the_written_out_formulas(self, p0):
        g, th = p0.gamma, p0.theta
        cand = merton.value_function(p0)
        x, x1 = np.meshgrid(np.linspace(0.5, 5.0, 7), np.linspace(0.25, 5.0, 6), indexing="ij")
        for s in (0.3, np.linspace(0.0, 1.0, 7)[:, None]):
            q, dq = merton.q_closed_form(s, p0), merton.q_derivative(s, p0)
            m = x + th * x1
            want = {
                "v": -(1.0 / g) * q * m**g,
                "v_s": -(1.0 / g) * dq * m**g,
                "v_x": -q * m ** (g - 1.0),
                "v_xx": -(g - 1.0) * q * m ** (g - 2.0),
                "v_x1": -th * q * m ** (g - 1.0),
                "v_xx1": -th * (g - 1.0) * q * m ** (g - 2.0),
            }
            for name, value in want.items():
                assert np.array_equal(getattr(cand, name)(s, x, x1), value), name

    def test_time_outside_the_horizon_raises_before_a_bad_state(self, p0):
        # Past T the bracket of Q turns negative; m = x + θx1 is negative too.
        cand = merton.value_function(p0)
        for fun in (cand.v, cand.v_x, cand.v_xx, cand.v_x1, cand.v_xx1):
            with pytest.raises(core.DomainError, match="bracket"):
                fun(100.0, -1.0, 0.0)


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
