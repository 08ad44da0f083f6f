"""The HJB and maximum-principle checks on the delayed linear-quadratic
regulator, an exact family that is not Merton's: its value ½P(s)Z² + c(s)
needs no positive wealth and no special basis row."""

import dataclasses

import numpy as np
import pytest

from delaylab import bsdde, core, hjb, pmp, sdde, verify
from helpers import LQParams, lq_candidate, lq_model, lq_policy, lq_q_factor

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
