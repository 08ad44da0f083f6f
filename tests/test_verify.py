"""Value/adjoint relations, paired policy comparison, cost-vs-value check."""

import numpy as np
import pytest

from delaylab import bsdde, core, merton, pmp, sdde, verify

P0 = dict(
    r=0.03, mu0=0.08, sigma=0.2, beta=0.1, gamma=0.5,
    lam=0.1, delta=1.0, horizon_T=1.0, mu2=0.01,
)

INITIAL = lambda tau: 1.0  # noqa: E731


@pytest.fixture(scope="module")
def setup():
    p = merton.resolve_constraints(**P0)
    qsol = merton.solve_q(p)
    return {
        "params": p,
        "qsol": qsol,
        "model": merton.build_model(p),
        "policy": merton.build_policy(p, qsol),
        "cand": merton.value_function(p, qsol),
        "basis": merton.build_basis(p),
    }


class TestRelations:
    def _adjoints(self, setup, ensemble):
        q = merton.exact_q_factor(setup["params"], ensemble.times)
        return pmp.adjoint_from_value(setup["model"], setup["cand"], ensemble, q)

    def test_optimal_policy_passes(self, setup):
        cfg = core.SimConfig(n_steps=128, n_paths=64, master_seed=5)
        ens = sdde.simulate_forward(setup["model"], setup["policy"], INITIAL, cfg)
        report = verify.relations_report(
            setup["model"], setup["cand"], ens, self._adjoints(setup, ens), tol=1e-4
        )
        assert report.passed, report.to_dict()

    def test_suboptimal_policy_breaks_time_slope(self, setup):
        policy = verify.scaled_policy(setup["policy"], [0.5, 1.0], "u_half")
        cfg = core.SimConfig(n_steps=64, n_paths=8, master_seed=5)
        ens = sdde.simulate_forward(setup["model"], policy, INITIAL, cfg)
        report = verify.relations_report(
            setup["model"], setup["cand"], ens, self._adjoints(setup, ens), tol=1e-4
        )
        assert not report.passed
        # V_t equals the maximized Hamiltonian, not the one at halved u.
        assert report.time_slope > 1e-3

    def test_report_serializes(self, setup):
        cfg = core.SimConfig(n_steps=32, n_paths=4, master_seed=5)
        ens = sdde.simulate_forward(setup["model"], setup["policy"], INITIAL, cfg)
        d = verify.relations_report(
            setup["model"], setup["cand"], ens, self._adjoints(setup, ens)
        ).to_dict()
        assert d["check"] == "relations"
        assert set(d["adjoint_mismatch"]) == {"p1", "p2", "k1", "k2"}


class TestCompareControls:
    def test_perturbations_cost_more(self, setup):
        perturbations = [
            verify.scaled_policy(setup["policy"], [0.75, 1.0], "u_075"),
            verify.scaled_policy(setup["policy"], [1.25, 1.0], "u_125"),
            verify.scaled_policy(setup["policy"], [1.0, 0.75], "c_075"),
            verify.scaled_policy(setup["policy"], [1.0, 1.25], "c_125"),
            verify.scaled_policy(setup["policy"], [0.0, 1.0], "u_zero"),
        ]
        cfg = core.SimConfig(n_steps=64, n_paths=2000, master_seed=11)
        report = verify.compare_controls(
            setup["model"], setup["policy"], perturbations, INITIAL, cfg,
            setup["basis"],
        )
        assert report.passed, report.to_dict()

    def test_pairing_reduces_noise(self, setup):
        # The paired stderr must beat the unpaired combination of the two
        # individual cost stderrs; that is the whole point of common random
        # numbers.
        alt = verify.scaled_policy(setup["policy"], [1.1, 1.0], "u_110")
        cfg = core.SimConfig(n_steps=32, n_paths=1000, master_seed=23)
        report = verify.compare_controls(
            setup["model"], setup["policy"], [alt], INITIAL, cfg, setup["basis"]
        )
        comp = report.comparisons[0]
        unpaired = float(np.hypot(report.base_stderr, comp.cost_stderr))
        assert comp.paired_diff_stderr < 0.5 * unpaired


class TestSharedIncrements:
    def test_compare_controls_draws_once(self, setup, monkeypatch):
        calls = []
        draw = sdde.brownian_increments

        def counted(*args):
            calls.append(args)
            return draw(*args)

        monkeypatch.setattr(sdde, "brownian_increments", counted)
        perturbations = [
            verify.scaled_policy(setup["policy"], [0.75, 1.0], "u_075"),
            verify.scaled_policy(setup["policy"], [1.0, 1.25], "c_125"),
        ]
        cfg = core.SimConfig(n_steps=32, n_paths=500, master_seed=13)
        model, basis = setup["model"], setup["basis"]
        report = verify.compare_controls(
            model, setup["policy"], perturbations, INITIAL, cfg, basis
        )
        assert len(calls) == 1

        # Reference: every policy simulated with its own draw of the increments.
        base, *others = (
            bsdde.cost_estimate(model, sdde.simulate_forward(model, pol, INITIAL, cfg), basis)
            for pol in [setup["policy"], *perturbations]
        )
        assert (report.base_cost, report.base_stderr) == (base.value, base.stderr)
        for comp, est in zip(report.comparisons, others):
            diff = est.samples - base.samples
            assert (comp.cost, comp.cost_stderr) == (est.value, est.stderr)
            assert comp.paired_diff_mean == float(diff.mean())
            assert comp.paired_diff_stderr == float(diff.std(ddof=1) / np.sqrt(diff.size))

    def test_supplied_increments_match_own_draw(self, setup):
        cfg = core.SimConfig(n_steps=32, n_paths=200, master_seed=3)
        h = cfg.step_size(setup["model"].params)
        dw = sdde.brownian_increments(3, 200, 32, h)
        own = sdde.simulate_forward(setup["model"], setup["policy"], INITIAL, cfg)
        given = sdde.simulate_forward(setup["model"], setup["policy"], INITIAL, cfg, dw)
        assert given.dw is dw
        for name in ("x", "x1", "x2", "controls", "dw", "initial"):
            assert np.array_equal(getattr(own, name), getattr(given, name))

    @pytest.mark.parametrize("shape", [(200, 31), (32, 200), (199, 32)])
    def test_wrong_shape_fails_before_any_step(self, setup, shape):
        calls = []

        def evaluate(t, x, x1):
            calls.append(t)
            return setup["policy"].at(t, x, x1)

        policy = core.FeedbackPolicy(evaluate=evaluate, n_controls=2, label="counted")
        cfg = core.SimConfig(n_steps=32, n_paths=200, master_seed=3)
        with pytest.raises(core.ConfigError, match="increments"):
            sdde.simulate_forward(setup["model"], policy, INITIAL, cfg, np.zeros(shape))
        assert calls == []


class TestClosedFormCost:
    def test_optimal_cost_matches_value(self, setup):
        cfg = core.SimConfig(n_steps=64, n_paths=4000, master_seed=1)
        ens = sdde.simulate_forward(setup["model"], setup["policy"], INITIAL, cfg)
        check = verify.closed_form_cost_check(
            setup["model"], setup["cand"], ens, setup["basis"]
        )
        assert check.passed, check.to_dict()
        assert check.stderr > 1e-4  # the error estimate must stay honest

    def test_detuned_policy_fails_with_tight_budget(self, setup):
        # Halving the risky allocation moves the cost well outside the
        # tolerance once the Monte Carlo error is small enough.
        policy = verify.scaled_policy(setup["policy"], [0.0, 0.2], "far_off")
        cfg = core.SimConfig(n_steps=64, n_paths=4000, master_seed=1)
        ens = sdde.simulate_forward(setup["model"], policy, INITIAL, cfg)
        check = verify.closed_form_cost_check(
            setup["model"], setup["cand"], ens, setup["basis"]
        )
        assert not check.passed
