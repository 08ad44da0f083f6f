"""Generalized Hamiltonian, reduced-equation residuals, compatibility system."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from delaylab import cli, core, hjb, merton
from delaylab.core import nan_max

P0 = dict(
    r=0.03, mu0=0.08, sigma=0.2, beta=0.1, gamma=0.5,
    lam=0.1, delta=1.0, horizon_T=1.0, mu2=0.01,
)

XS = np.linspace(0.5, 5.0, 9)
X1S = np.linspace(0.25, 5.0, 9)
SS = [0.1, 0.3, 0.5, 0.7, 0.9]


def sweep(model, cand, times, x2s, maximizer=None):
    """check-hjb's one residual sweep on the (XS, X1S) grid, with the x2
    values on a leading axis of their own."""
    xg, x1g = np.meshgrid(XS, X1S, indexing="ij")
    res, _ = hjb.hjb_residual(
        model, cand, times, xg, x1g, np.reshape(x2s, (-1, 1, 1, 1)), maximizer=maximizer
    )
    return res


def with_nan_v_s(cand):
    """The candidate with V_s NaN at the last x probe only."""
    v_s = cand.v_s
    return dataclasses.replace(
        cand, v_s=lambda s, x, x1: np.where(x == XS[-1], np.nan, v_s(s, x, x1))
    )


@pytest.fixture(scope="module")
def merton_setup():
    p = merton.MertonParams(**P0)
    return {
        "params": p,
        "model": merton.build_model(p),
        "policy": merton.build_policy(p),
        "cand": merton.value_function(p),
    }


class TestGeneralizedHamiltonian:
    def test_affine_in_slots(self, merton_setup):
        # G is affine in each of (p, R, q) separately for fixed inputs.
        model = merton_setup["model"]
        u = np.array([0.5, 0.3])
        base = dict(k=1.0, p=2.0, R=-1.0, q=0.5)

        def g_at(**kw):
            slots = {**base, **kw}
            # A candidate whose slots k = −V, p = −V_x, R = −V_xx, q = −V_x1
            # are these constants.
            cand = hjb.ValueCandidate(
                v=lambda s, x, x1: -slots["k"],
                v_s=None,
                v_x=lambda s, x, x1: -slots["p"],
                v_xx=lambda s, x, x1: -slots["R"],
                v_x1=lambda s, x, x1: -slots["q"],
                v_xx1=None,
            )
            val = hjb.generalized_hamiltonian(model, 0.2, 1.0, 0.9, 0.4, cand)(u[:, None])
            return float(np.asarray(val).ravel()[0])

        for slot in ("p", "R", "q"):
            g0 = g_at(**{slot: 0.0})
            g1 = g_at(**{slot: 1.0})
            g2 = g_at(**{slot: 2.0})
            assert g2 - g1 == pytest.approx(g1 - g0, rel=1e-12)

    def test_numeric_argmax_matches_formulas(self, merton_setup):
        p = merton_setup["params"]
        model, cand = merton_setup["model"], merton_setup["cand"]
        s, x, x1 = 0.3, 1.2, 0.8
        _, u_star = hjb.hjb_residual(model, cand, [s], x, x1, 0.0)
        assert float(u_star[0, 0]) == pytest.approx(
            float(merton.optimal_u(s, x, x1, p)), abs=1e-4
        )
        assert float(u_star[1, 0]) == pytest.approx(
            float(merton.optimal_c(s, x, x1, p)), abs=1e-4
        )


class TestResidual:
    def test_closed_form_solves_reduced_equation(self, merton_setup):
        report = hjb.hjb_residual_check(sweep(
            merton_setup["model"], merton_setup["cand"], SS, [0.0],
            maximizer=merton_setup["policy"],
        )[0])
        assert report.passed, report.max_residual

    def test_terminal_slice_matches_negated_payoff(self, merton_setup):
        model, cand = merton_setup["model"], merton_setup["cand"]
        xg, x1g = np.meshgrid(XS, X1S, indexing="ij")
        gap = cand.v(model.params.horizon_T, xg, x1g) + model.phi(xg, x1g)
        assert np.max(np.abs(gap)) < 1e-12

    def test_residual_without_maximizer_hint(self, merton_setup):
        # The grid + refinement alone must find the supremum.
        res, _ = hjb.hjb_residual(merton_setup["model"], merton_setup["cand"], [0.5], 1.0, 0.9, 2.0)
        assert abs(float(res[0])) < 1e-6

    def test_broken_mu1_fails(self):
        p_ok = merton.MertonParams(**P0)
        p_bad = merton.MertonParams(**P0, mu1=p_ok.mu1 + 0.01)
        report = hjb.hjb_residual_check(sweep(
            merton.build_model(p_bad), merton.value_function(p_bad), [0.3], [0.0],
            maximizer=merton.build_policy(p_bad),
        )[0])
        assert not report.passed
        assert report.max_residual > 1e-3

    def test_nan_at_one_probe_fails(self, merton_setup):
        # The other probes' residuals are below tol; the NaN one must not
        # be folded away.
        report = hjb.hjb_residual_check(sweep(
            merton_setup["model"], with_nan_v_s(merton_setup["cand"]), SS, [0.0],
            maximizer=merton_setup["policy"],
        )[0])
        assert np.isnan(report.max_residual)
        assert not report.passed


class TestX2Independence:
    def test_constrained_model_flat_in_x2(self, merton_setup):
        report = hjb.x2_independence_check(sweep(
            merton_setup["model"], merton_setup["cand"], SS,
            [-10.0, -5.0, 0.0, 5.0, 10.0],
            maximizer=merton_setup["policy"],
        ))
        assert report.passed, report.max_residual

    def test_broken_theta_fails(self):
        p_ok = merton.MertonParams(**P0)
        p_bad = merton.MertonParams(**P0, theta=p_ok.theta + 0.01)
        report = hjb.x2_independence_check(sweep(
            merton.build_model(p_bad), merton.value_function(p_bad),
            [0.3], [-10.0, 0.0, 10.0],
            maximizer=merton.build_policy(p_bad),
        ))
        assert not report.passed
        assert report.max_residual > 1e-3

    def test_nan_at_one_probe_fails(self, merton_setup):
        report = hjb.x2_independence_check(sweep(
            merton_setup["model"], with_nan_v_s(merton_setup["cand"]), SS,
            [-10.0, 0.0, 10.0], maximizer=merton_setup["policy"],
        ))
        assert np.isnan(report.max_residual)
        assert not report.passed


class TestHamiltonianAt:
    def test_same_bits_as_the_written_out_formula(self, merton_setup):
        # The map adds the memory term it computed once in the place the
        # written-out formula does: ((b·p + ½σ²R) + memory) + f.
        model, cand = merton_setup["model"], merton_setup["cand"]
        prm = model.params
        s = 0.3
        x, x1 = np.meshgrid(XS, X1S, indexing="ij")
        x2 = np.array([-1.0, 0.5, 2.0]).reshape(-1, 1, 1)
        g_of_u = hjb.generalized_hamiltonian(model, s, x, x1, x2, cand)
        k, p, R, q = (-dv(s, x, x1) for dv in (cand.v, cand.v_x, cand.v_xx, cand.v_x1))
        for u in ([0.5, 0.3], [2.0, 1.5], [-1.0, 0.0]):
            u = np.reshape(u, (2, 1, 1, 1))
            b = model.drift(s, x, x1, x2, u)
            sg = model.sigma(s, x, x1, u)
            f = model.generator(s, x, x1, x2, k, sg * p, u)
            memory = (x - prm.e_minus * x2 - prm.lam * x1) * q
            want = b * p + 0.5 * sg**2 * R + memory + f
            assert np.array_equal(g_of_u(u), want)


# A generic model whose coefficients and policy read t, and a candidate whose
# Q(s) = (1.5 − s)^0.7 is rounded differently for a float s than for an
# array: every hjb_residual call, batched or at one time, hands the candidate
# arrays, so a slice of a batched sweep keeps the bits of a call at its time
# alone, where a float would not.
GENERIC_T = {
    "kind": "generic",
    "params": {"lambda": 0.1, "delta": 0.5, "horizon_T": 1.0},
    "coefficients": {
        "b1": "0.05 * x + (0.04 * u - c) * x * exp(0 - t) + 0.01 * x1",
        "b2": "0.02 * t",
        "sigma": "0.2 * u * x * (1 + t)",
        "f1": "-0.1 * y + sqrt(c * x) * (1 + t / 2)",
        "f2": "0",
        "phi": "sqrt(x + 0.5 * x1)",
    },
    "control_box": {"lower": [-2.0, 0.0], "upper": [2.0, 1.0]},
    "policy": ["0.5 + 0.1 * t", "0.2 * x1 / x + t / 10"],
}


def generic_t_candidate():
    def q(s):
        return (1.5 - np.asarray(s, float)) ** 0.7

    def dq(s):
        return -0.7 * (1.5 - np.asarray(s, float)) ** -0.3

    def m(x, x1):
        return x + 0.5 * x1

    return hjb.ValueCandidate(
        v=lambda s, x, x1: -2.0 * q(s) * m(x, x1) ** 0.5,
        v_s=lambda s, x, x1: -2.0 * dq(s) * m(x, x1) ** 0.5,
        v_x=lambda s, x, x1: -q(s) * m(x, x1) ** -0.5,
        v_xx=lambda s, x, x1: 0.5 * q(s) * m(x, x1) ** -1.5,
        v_x1=lambda s, x, x1: -0.5 * q(s) * m(x, x1) ** -0.5,
        v_xx1=lambda s, x, x1: 0.25 * q(s) * m(x, x1) ** -1.5,
    )


def with_nan_v_s_at(cand, s_nan):
    """The candidate with V_s NaN at the last x probe, at time s_nan only."""
    v_s = cand.v_s
    return dataclasses.replace(
        cand,
        v_s=lambda s, x, x1: np.where((x == XS[-1]) & (s == s_nan), np.nan, v_s(s, x, x1)),
    )


X2S = [-10.0, 0.0, 10.0]


def batch_case(name, merton_setup):
    """(model, candidate, maximizer, probe times) of one batched-sweep case."""
    model, cand, policy = merton_setup["model"], merton_setup["cand"], merton_setup["policy"]
    if name == "merton":
        return model, cand, policy, SS
    if name == "merton_no_hint":
        return model, cand, None, SS
    if name == "merton_nan":
        return model, with_nan_v_s_at(cand, SS[2]), policy, SS
    generic, generic_policy = cli.build_generic(GENERIC_T)
    times = [0.05, 0.35, 0.6, 0.95]
    if name == "generic":
        return generic, generic_t_candidate(), generic_policy, times
    return generic, generic_t_candidate(), None, times  # generic_no_hint


BATCH_CASES = ["merton", "merton_no_hint", "merton_nan", "generic", "generic_no_hint"]


def per_time_sweep(model, cand, s_values, x2, maximizer, reduce):
    """The residual sweep as a loop of scalar-time hjb_residual calls."""
    xg, x1g = np.meshgrid(XS, X1S, indexing="ij")
    worst = 0.0
    for s in s_values:
        res, _ = hjb.hjb_residual(model, cand, [s], xg, x1g, x2, maximizer=maximizer)
        worst = nan_max(worst, reduce(res))
    return worst


class TestBatchedProbeTimes:
    """One hjb_residual call over every probe time and x2 value gives the
    bits of a loop of calls at one time each."""

    @pytest.mark.parametrize("case", BATCH_CASES)
    def test_hjb_residual_check_equals_per_time_loop(self, merton_setup, case):
        # check-hjb reads its residual check off the x2 = 0 slice of the
        # sweep over every x2 value.
        model, cand, maximizer, times = batch_case(case, merton_setup)
        report = hjb.hjb_residual_check(
            sweep(model, cand, times, [0.0, -10.0, -5.0, 5.0, 10.0], maximizer=maximizer)[0]
        )
        want = per_time_sweep(
            model, cand, times, 0.0, maximizer, lambda res: float(np.max(np.abs(res)))
        )
        assert report.max_residual.hex() == want.hex()
        assert report.probes == len(times) * XS.size * X1S.size
        assert np.isnan(want) == (case == "merton_nan")

    @pytest.mark.parametrize("case", BATCH_CASES)
    def test_x2_independence_check_equals_per_time_loop(self, merton_setup, case):
        model, cand, maximizer, times = batch_case(case, merton_setup)
        report = hjb.x2_independence_check(sweep(model, cand, times, X2S, maximizer=maximizer))
        want = per_time_sweep(
            model, cand, times, np.reshape(X2S, (-1, 1, 1, 1)), maximizer,
            lambda res: float((res.max(axis=0) - res.min(axis=0)).max()),
        )
        assert report.max_residual.hex() == want.hex()
        assert np.isnan(want) == (case == "merton_nan")

    @pytest.mark.parametrize("case", BATCH_CASES)
    def test_each_time_slice_equals_its_own_call(self, merton_setup, case):
        model, cand, maximizer, times = batch_case(case, merton_setup)
        xg, x1g = np.meshgrid(XS, X1S, indexing="ij")
        x2 = np.reshape(X2S, (-1, 1, 1, 1))
        res, u_star = hjb.hjb_residual(model, cand, times, xg, x1g, x2, maximizer=maximizer)
        assert res.shape == (len(X2S), len(times)) + xg.shape
        assert u_star.shape == (2,) + res.shape
        for i, s in enumerate(times):
            want_res, want_u = hjb.hjb_residual(model, cand, [s], xg, x1g, x2, maximizer=maximizer)
            assert np.array_equal(res[:, i], want_res[:, 0], equal_nan=True)
            assert np.array_equal(u_star[:, :, i], want_u[:, :, 0])


class TestOneCandidateCall:
    def test_each_partial_is_called_once_per_sweep(self, merton_setup):
        # check-hjb's sweep over every probe time and x2 value calls each
        # partial it reads once, over all the times, and never V_xx1.
        cand = merton_setup["cand"]
        calls = dict.fromkeys(("v", "v_s", "v_x", "v_xx", "v_x1", "v_xx1"), 0)

        def counted(name):
            fun = getattr(cand, name)

            def wrapped(s, x, x1):
                calls[name] += 1
                return fun(s, x, x1)

            return wrapped

        counting = hjb.ValueCandidate(**{name: counted(name) for name in calls})
        sweep(
            merton_setup["model"], counting, SS, [0.0, -10.0, -5.0, 5.0, 10.0],
            maximizer=merton_setup["policy"],
        )
        assert calls == {"v": 1, "v_s": 1, "v_x": 1, "v_xx": 1, "v_x1": 1, "v_xx1": 0}


def constant_hint(u):
    """A maximizer hint that proposes the controls u at every probe."""
    return core.FeedbackPolicy(
        lambda t, x, x1: np.stack([np.full(np.shape(x), ui) for ui in u]), n_controls=len(u)
    )


class TestMaximizerHint:
    """A hint outside the control box is clamped into it before it is
    compared with the grid."""

    # A far corner, which clamps onto the box corner (10, 0), and a grid
    # value of u with a negative consumption that, unclamped, raises the
    # drift enough to beat every admissible control.
    @pytest.mark.parametrize("hint", [(1e3, -5.0), (2.0, -1e3)], ids=["corner", "negative_c"])
    def test_far_hint_is_clamped(self, merton_setup, hint):
        model, cand = merton_setup["model"], merton_setup["cand"]
        box = model.control_set
        xg, x1g = np.meshgrid(XS, X1S, indexing="ij")
        res, u_star = hjb.hjb_residual(
            model, cand, SS, xg, x1g, 0.0, maximizer=constant_hint(hint)
        )
        want_res, want_u = hjb.hjb_residual(model, cand, SS, xg, x1g, 0.0)
        lower, upper = box.lower[:, None, None, None], box.upper[:, None, None, None]
        assert np.all((lower <= u_star) & (u_star <= upper))
        # The clamped hint is a grid node, so it ties and the grid's first
        # best node stays: the same bits as no hint at all.
        clamped = np.clip(hint, box.lower, box.upper)
        for i, ui in enumerate(clamped):
            assert ui in box.axis_grid(i, hjb.HAMILTONIAN_GRID_POINTS)
        assert np.array_equal(res, want_res)
        assert np.array_equal(u_star, want_u)


class TestPeakMemory:
    """check-hjb's one residual sweep holds a few probe arrays at a time,
    whatever the number of control grid nodes."""

    def test_x2_independence_check(self, merton_setup):
        model, cand, policy = merton_setup["model"], merton_setup["cand"], merton_setup["policy"]
        x2s = [0.0, -10.0, -5.0, 5.0, 10.0]
        probe_bytes = np.empty((len(SS), len(x2s), XS.size, X1S.size)).nbytes
        tracemalloc.start()
        try:
            res = sweep(model, cand, SS, x2s, maximizer=policy)
            hjb.hjb_residual_check(res[0])
            hjb.x2_independence_check(res)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # About 33 probe arrays here; a (probes x grid nodes) tensor is 256.
        assert peak < 64 * probe_bytes


class TestCompatibilitySystem:
    def test_constrained_model_satisfies_all_four(self, merton_setup):
        report = hjb.compatibility_pde_check(
            merton_setup["model"], merton_setup["cand"], 0.3, XS, X1S,
            merton_setup["policy"],
        )
        assert report.passed, report.extra

    def test_broken_mu1_shows_in_drift_equation(self):
        p_ok = merton.MertonParams(**P0)
        p_bad = merton.MertonParams(**P0, mu1=p_ok.mu1 + 0.01)
        report = hjb.compatibility_pde_check(
            merton.build_model(p_bad), merton.value_function(p_bad), 0.3, XS, X1S,
            merton.build_policy(p_bad),
        )
        assert not report.passed
        # The drift equation picks up exactly the constraint violation.
        assert report.extra["per_equation"]["bhat"] == pytest.approx(0.01, rel=1e-4)
        assert report.extra["per_equation"]["sigma"] < 1e-6

    def test_broken_theta_shows_in_payoff_equation(self):
        p_ok = merton.MertonParams(**P0)
        p_bad = merton.MertonParams(**P0, theta=p_ok.theta + 0.01)
        report = hjb.compatibility_pde_check(
            merton.build_model(p_bad), merton.value_function(p_bad), 0.3, XS, X1S,
            merton.build_policy(p_bad),
        )
        assert not report.passed
        assert report.extra["per_equation"]["phi"] > 1e-3

    def test_nan_payoff_at_one_probe_fails(self, merton_setup):
        # φ is NaN at the last x probe, 5.0, and at the shifted points of
        # its central differences; phi is the last equation checked.
        model = merton_setup["model"]
        phi = model.phi
        broken = dataclasses.replace(
            model, phi=lambda x, x1: np.where(x > 4.9, np.nan, phi(x, x1))
        )
        report = hjb.compatibility_pde_check(
            broken, merton_setup["cand"], 0.3, XS, X1S, merton_setup["policy"],
        )
        assert np.isnan(report.extra["per_equation"]["phi"])
        assert np.isnan(report.max_residual)
        assert not report.passed


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
