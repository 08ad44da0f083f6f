"""Generalized Hamiltonian, reduced-equation residuals, compatibility system."""

import numpy as np
import pytest

from delaylab import core, hjb, merton

P0 = dict(
    r=0.03, mu0=0.08, sigma=0.2, beta=0.1, gamma=0.5,
    lam=0.1, delta=1.0, horizon_T=1.0, mu2=0.01,
)

XS = np.linspace(0.5, 5.0, 9)
X1S = np.linspace(0.25, 5.0, 9)
SS = [0.1, 0.3, 0.5, 0.7, 0.9]


@pytest.fixture(scope="module")
def merton_setup():
    p = merton.resolve_constraints(**P0)
    qsol = merton.solve_q(p)
    return {
        "params": p,
        "qsol": qsol,
        "model": merton.build_model(p),
        "policy": merton.build_policy(p, qsol),
        "cand": merton.value_function(p, qsol),
    }


class TestGeneralizedHamiltonian:
    def test_affine_in_slots(self, merton_setup):
        # G is affine in each of (p, R, q) separately for fixed inputs.
        model = merton_setup["model"]
        u = np.array([0.5, 0.3])
        base = hjb.GArgs(k=1.0, p=2.0, R=-1.0, q=0.5)

        def g_at(**kw):
            args = hjb.GArgs(**{**base.__dict__, **kw})
            val = hjb.generalized_hamiltonian(
                model, 0.2, 1.0, 0.9, 0.4, u[:, None], args
            )
            return float(np.asarray(val).ravel()[0])

        for slot in ("p", "R", "q"):
            g0 = g_at(**{slot: 0.0})
            g1 = g_at(**{slot: 1.0})
            g2 = g_at(**{slot: 2.0})
            assert g2 - g1 == pytest.approx(g1 - g0, rel=1e-12)

    def test_numeric_argmax_matches_formulas(self, merton_setup):
        p, qsol = merton_setup["params"], merton_setup["qsol"]
        model, cand = merton_setup["model"], merton_setup["cand"]
        s, x, x1 = 0.3, 1.2, 0.8
        _, u_star = hjb.hjb_residual(model, cand, s, x, x1, 0.0, n_grid=64)
        assert float(u_star[0]) == pytest.approx(
            float(merton.optimal_u(s, x, x1, p)), abs=1e-4
        )
        assert float(u_star[1]) == pytest.approx(
            float(merton.optimal_c(s, x, x1, p, qsol)), abs=1e-4
        )


class TestResidual:
    def test_closed_form_solves_reduced_equation(self, merton_setup):
        report = hjb.hjb_residual_check(
            merton_setup["model"], merton_setup["cand"], SS, XS, X1S,
            maximizer=merton_setup["policy"], n_grid=16, tol=1e-6,
        )
        assert report.passed, report.max_residual

    def test_terminal_slice_matches_negated_payoff(self, merton_setup):
        model, cand = merton_setup["model"], merton_setup["cand"]
        xg, x1g = np.meshgrid(XS, X1S, indexing="ij")
        gap = cand.v(model.params.horizon_T, xg, x1g) + model.phi(xg, x1g)
        assert np.max(np.abs(gap)) < 1e-12

    def test_residual_without_maximizer_hint(self, merton_setup):
        # The grid + refinement alone must find the supremum.
        res, _ = hjb.hjb_residual(
            merton_setup["model"], merton_setup["cand"], 0.5, 1.0, 0.9, 2.0,
            n_grid=64,
        )
        assert abs(float(res)) < 1e-6

    def test_broken_mu1_fails(self):
        p_ok = merton.resolve_constraints(**P0)
        p_bad = merton.resolve_constraints(**P0, mu1=p_ok.mu1 + 0.01)
        report = hjb.hjb_residual_check(
            merton.build_model(p_bad), merton.value_function(p_bad), [0.3], XS, X1S,
            maximizer=merton.build_policy(p_bad), n_grid=16, tol=1e-6,
        )
        assert not report.passed
        assert report.max_residual > 1e-3


class TestX2Independence:
    def test_constrained_model_flat_in_x2(self, merton_setup):
        report = hjb.x2_independence_check(
            merton_setup["model"], merton_setup["cand"], SS, XS, X1S,
            [-10.0, -5.0, 0.0, 5.0, 10.0],
            maximizer=merton_setup["policy"], n_grid=16, tol=1e-8,
        )
        assert report.passed, report.max_residual

    def test_broken_theta_fails(self):
        p_ok = merton.resolve_constraints(**P0)
        p_bad = merton.resolve_constraints(**P0, theta=p_ok.theta + 0.01)
        report = hjb.x2_independence_check(
            merton.build_model(p_bad), merton.value_function(p_bad),
            [0.3], XS, X1S, [-10.0, 0.0, 10.0],
            maximizer=merton.build_policy(p_bad), n_grid=16, tol=1e-8,
        )
        assert not report.passed
        assert report.max_residual > 1e-3


class TestCompatibilitySystem:
    def test_constrained_model_satisfies_all_four(self, merton_setup):
        report = hjb.compatibility_pde_check(
            merton_setup["model"], merton_setup["cand"], 0.3, XS, X1S,
            merton_setup["policy"], tol=1e-6,
        )
        assert report.passed, report.extra

    def test_broken_mu1_shows_in_drift_equation(self):
        p_ok = merton.resolve_constraints(**P0)
        p_bad = merton.resolve_constraints(**P0, mu1=p_ok.mu1 + 0.01)
        report = hjb.compatibility_pde_check(
            merton.build_model(p_bad), merton.value_function(p_bad), 0.3, XS, X1S,
            merton.build_policy(p_bad), tol=1e-6,
        )
        assert not report.passed
        # The drift equation picks up exactly the constraint violation.
        assert report.extra["per_equation"]["bhat"] == pytest.approx(0.01, rel=1e-4)
        assert report.extra["per_equation"]["sigma"] < 1e-6

    def test_broken_theta_shows_in_payoff_equation(self):
        p_ok = merton.resolve_constraints(**P0)
        p_bad = merton.resolve_constraints(**P0, theta=p_ok.theta + 0.01)
        report = hjb.compatibility_pde_check(
            merton.build_model(p_bad), merton.value_function(p_bad), 0.3, XS, X1S,
            merton.build_policy(p_bad), tol=1e-6,
        )
        assert not report.passed
        assert report.extra["per_equation"]["phi"] > 1e-3


def check_value_partials(cand, probes, rel_step=1e-6):
    """Compare analytic partials against central differences at probe points.

    Returns the maximum relative mismatch per partial.  First derivatives
    are accurate to ~1e-10 with this step; second derivatives to ~1e-6.
    """
    errs = {"v_s": 0.0, "v_x": 0.0, "v_xx": 0.0, "v_x1": 0.0}
    for s, x, x1 in probes:
        hs = rel_step * (1.0 + abs(s))
        hx = rel_step * (1.0 + abs(x))
        h1 = rel_step * (1.0 + abs(x1))
        scale = 1.0 + abs(cand.v(s, x, x1))
        fd_s = (cand.v(s + hs, x, x1) - cand.v(s - hs, x, x1)) / (2 * hs)
        fd_x = (cand.v(s, x + hx, x1) - cand.v(s, x - hx, x1)) / (2 * hx)
        fd_x1 = (cand.v(s, x, x1 + h1) - cand.v(s, x, x1 - h1)) / (2 * h1)
        hxx = 1e-4 * (1.0 + abs(x))
        fd_xx = (
            cand.v(s, x + hxx, x1) - 2 * cand.v(s, x, x1) + cand.v(s, x - hxx, x1)
        ) / hxx**2
        errs["v_s"] = max(errs["v_s"], abs(fd_s - cand.v_s(s, x, x1)) / scale)
        errs["v_x"] = max(errs["v_x"], abs(fd_x - cand.v_x(s, x, x1)) / scale)
        errs["v_x1"] = max(errs["v_x1"], abs(fd_x1 - cand.v_x1(s, x, x1)) / scale)
        errs["v_xx"] = max(errs["v_xx"], abs(fd_xx - cand.v_xx(s, x, x1)) / scale)
    return errs


class TestValuePartials:
    def test_closed_form_partials_consistent(self, merton_setup):
        rng = np.random.default_rng(0)
        probes = [
            (float(rng.uniform(0.0, 0.9)), float(rng.uniform(0.5, 4.0)),
             float(rng.uniform(0.3, 4.0)))
            for _ in range(100)
        ]
        errs = check_value_partials(merton_setup["cand"], probes)
        assert errs["v_x"] < 1e-5
        assert errs["v_x1"] < 1e-5
        assert errs["v_s"] < 1e-4
        assert errs["v_xx"] < 1e-4
