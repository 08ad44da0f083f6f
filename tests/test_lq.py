"""The HJB and maximum-principle checks on the delayed linear-quadratic
regulator, an exact family that is not Merton's: its value ½P(s)Z² + c(s)
needs no positive wealth and no special basis row."""

import dataclasses

import numpy as np
import pytest

from delaylab import bsdde, core, hjb, pmp, sdde, verify
from helpers import LQParams, lq_candidate, lq_model, lq_policy, lq_q_factor, lq_scheme_cost

LQ = LQParams()

# check-hjb's probe times, grid sizes and x2 values (x2 = 0 first), on a
# state grid that crosses Z = 0.
SS = [0.1, 0.3, 0.5, 0.7, 0.9]
XS = np.linspace(-3.0, 3.0, 9)
X1S = np.linspace(-2.0, 2.0, 9)
X2S = [0.0, -10.0, -5.0, 5.0, 10.0]


def sweep(cand):
    xg, x1g = np.meshgrid(XS, X1S, indexing="ij")
    res, _ = hjb.hjb_residual(
        lq_model(LQ), cand, SS, xg, x1g, np.reshape(X2S, (-1, 1, 1, 1)),
        maximizer=lq_policy(LQ),
    )
    return res


class TestHJB:
    def test_terminal_slice_matches_negated_payoff(self):
        xg, x1g = np.meshgrid(XS, X1S, indexing="ij")
        gap = lq_candidate(LQ).v(LQ.horizon_T, xg, x1g) + lq_model(LQ).phi(xg, x1g)
        assert np.max(np.abs(gap)) < 1e-12

    def test_closed_form_solves_reduced_equation(self):
        res = sweep(lq_candidate(LQ))
        report = hjb.hjb_residual_check(res[0])
        assert report.passed
        assert report.max_residual <= 1e-12
        assert hjb.x2_independence_check(res).passed

    def test_compatibility_system(self):
        report = hjb.compatibility_pde_check(
            lq_model(LQ), lq_candidate(LQ), SS[0], XS, X1S, lq_policy(LQ)
        )
        assert report.passed, report.extra

    def test_scaled_time_derivative_fails(self):
        cand = lq_candidate(LQ)
        v_s = cand.v_s
        bad = dataclasses.replace(cand, v_s=lambda s, x, x1: 1.01 * v_s(s, x, x1))
        report = hjb.hjb_residual_check(sweep(bad)[0])
        assert not report.passed
        assert report.max_residual > 0.1


@pytest.fixture(scope="module")
def ensemble():
    cfg = core.SimConfig(n_steps=64, n_paths=4000, master_seed=1)
    return sdde.simulate_forward(lq_model(LQ), lq_policy(LQ), lambda tau: 1.0, cfg)


def adjoint_of(part):
    return pmp.adjoint_from_value(lq_model(LQ), lq_candidate(LQ), part, lq_q_factor(LQ, part.times))


class TestMaximumPrinciple:
    def test_controls_stay_inside_the_box(self, ensemble):
        # Stationarity of H in u holds only where the box does not bind.
        assert np.max(np.abs(ensemble.u)) < 3.0 < LQ.u_bound

    def test_q_factor(self, ensemble):
        assert pmp.q_factor_check(lq_model(LQ), ensemble, lq_q_factor(LQ, ensemble.times)).passed

    def test_p3_vanishes(self, ensemble):
        assert pmp.check_p3_zero(lq_model(LQ), lq_candidate(LQ), ensemble, adjoint_of).passed

    def test_maximum_condition(self, ensemble):
        report = pmp.maximum_condition_check(
            lq_model(LQ), lq_candidate(LQ), ensemble, adjoint_of
        )
        assert report.passed, report.extra


class TestVerify:
    """verify's checks on an ensemble whose x2 shares rows with x (δ = 0.25
    is 16 of the 64 steps), not a broadcast of φ as in Merton's.  At seeds
    1-3 relations_report gave 2.2e-15 to 2.7e-15, and the cost residual was
    0.11 to 0.20 of its tolerance, against the quadratic basis."""

    def test_relations(self, ensemble):
        report = verify.relations_report(lq_model(LQ), lq_candidate(LQ), ensemble, adjoint_of)
        assert report.max_residual < 1e-14, report.extra

    def test_cost_check(self, ensemble):
        report = verify.closed_form_cost_check(
            lq_model(LQ), lq_candidate(LQ), ensemble, bsdde.polynomial_basis(2)
        )
        assert report.max_residual < 0.5 * report.tolerance, report.extra


class TestSchemeCost:
    """The cost against the scheme's own expectation J_h, which holds the
    whole time-discretization bias, so the only allowance is the Monte Carlo
    error.  Over seeds 1-100 at P = 4 000, |J − J_h| / stderr reached 2.89,
    2.71 and 2.20 at N = 16, 64 and 256, with mean −0.08, −0.07 and −0.18,
    and the spread of J − J_h was 0.97, 0.93 and 1.02 of the mean reported
    standard error; the gate is K_STDERR of them."""

    K_STDERR = 4.0

    @pytest.mark.parametrize("n_steps, slope", [(16, 0.0826), (64, 0.0815), (256, 0.0812)])
    def test_bias_is_first_order(self, n_steps, slope):
        # (J_h − V)/h from Z(0) = 1 + θ·x1(0), as the ensembles start.
        x1_0 = core.initial_segment(lambda tau: 1.0, LQ.delta, LQ.lam, 1.0 / n_steps)[1]
        v = float(lq_candidate(LQ).v(0.0, 1.0, x1_0))
        bias = lq_scheme_cost(LQ, float(LQ.z(1.0, x1_0)), n_steps) - v
        assert bias * n_steps == pytest.approx(slope, abs=5e-5)

    @pytest.mark.parametrize("n_steps", [16, 64, 256])
    def test_cost_matches_scheme_expectation(self, n_steps):
        cfg = core.SimConfig(n_steps=n_steps, n_paths=4000, master_seed=1)
        ens = sdde.simulate_forward(lq_model(LQ), lq_policy(LQ), lambda tau: 1.0, cfg)
        run = bsdde.cost_samples(lq_model(LQ), ens, bsdde.polynomial_basis(2))
        j_h = lq_scheme_cost(LQ, float(LQ.z(ens.x[0, 0], ens.x1_marks[0, 0])), n_steps)
        assert abs(run.cost - j_h) <= self.K_STDERR * run.stderr
