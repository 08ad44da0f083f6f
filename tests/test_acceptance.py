"""End-to-end acceptance gate.

Ten criteria covering the closed-form benchmark, the reduced-equation and
compatibility checks, the adjoint system, simulated costs, paired policy
comparisons, the no-memory reduction, the delayed chain-rule defect, and
bit-for-bit reproducibility of command-line artifacts.  Each test prints one
PASS/FAIL summary line.
"""

import json

import numpy as np
import pytest

from delaylab import cli, core, hjb, merton, pmp, sdde, verify
from helpers import (
    SmoothTestFunction,
    closed_form_adjoints,
    constant_policy,
    delayed_ito_check,
    value_adjoints,
)

P0 = dict(
    r=0.03, mu0=0.08, sigma=0.2, beta=0.1, gamma=0.5,
    lam=0.1, delta=1.0, horizon_T=1.0, mu2=0.01,
)

INITIAL = lambda tau: 1.0  # noqa: E731

XS = np.linspace(0.5, 5.0, 9)
X1S = np.linspace(0.25, 5.0, 9)
SS = [0.1, 0.3, 0.5, 0.7, 0.9]
# x2 = 0 first: the residual check reads that slice of the one sweep.
X2S = [0.0, -10.0, -5.0, 5.0, 10.0]


def announce(n, passed, detail):
    print(f"ACCEPTANCE {n}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


def build(mu2=0.01, **overrides):
    p = merton.MertonParams(**{**P0, "mu2": mu2}, **overrides)
    return {
        "params": p,
        "model": merton.build_model(p),
        "policy": merton.build_policy(p),
        "cand": merton.value_function(p),
        "basis": merton.build_basis(p),
    }


@pytest.fixture(scope="module")
def ctx():
    return build()


class CriteriaRunner:
    """Criteria 1 to 7 on a given parameter set, reused for the reduction."""

    def __init__(self, ctx):
        self.ctx = ctx

    def q_benchmark(self):
        worst = 0.0
        for gamma in (0.5, -1.0):
            p = merton.MertonParams(
                **{**P0, "mu2": self.ctx["params"].mu2, "gamma": gamma}
            )
            times, oracle = merton.q_ode_oracle(p, n_steps=10_000)
            closed = merton.q_closed_form(times, p)
            worst = max(worst, float(np.max(np.abs(closed - oracle) / np.abs(oracle))))
        return worst, worst < 1e-8

    def hjb_checks(self):
        c = self.ctx
        xg, x1g = np.meshgrid(XS, X1S, indexing="ij")
        residual, _ = hjb.hjb_residual(
            c["model"], c["cand"], SS, xg, x1g, np.reshape(X2S, (-1, 1, 1, 1)),
            maximizer=c["policy"],
        )
        return hjb.hjb_residual_check(residual[0]), hjb.x2_independence_check(residual)

    def compatibility(self):
        c = self.ctx
        good = hjb.compatibility_pde_check(c["model"], c["cand"], 0.3, XS, X1S, c["policy"])
        broken = build(
            mu2=self.ctx["params"].mu2, mu1=self.ctx["params"].mu1 + 0.01
        )
        bad = hjb.compatibility_pde_check(
            broken["model"], broken["cand"], 0.3, XS, X1S, broken["policy"]
        )
        return good, bad

    def adjoint_checks(self):
        c = self.ctx
        cfg = core.SimConfig(n_steps=256, n_paths=64, master_seed=31)
        ens = sdde.simulate_forward(c["model"], c["policy"], INITIAL, cfg)
        q_exact = merton.exact_q_factor(c["params"], ens.times)
        repq = pmp.q_factor_check(c["model"], ens, q_exact)
        adjoint_of = value_adjoints(c["model"], c["cand"], c["params"])
        rep3 = pmp.check_p3_zero(c["model"], c["cand"], ens, adjoint_of)
        repm = pmp.maximum_condition_check(c["model"], c["cand"], ens, adjoint_of)
        ok = rep3.passed and repm.passed and repq.passed
        return repq.max_residual, rep3.max_residual, repm.max_residual, bool(ok)

    def relations(self):
        c = self.ctx
        cfg = core.SimConfig(n_steps=128, n_paths=64, master_seed=5)
        ens = sdde.simulate_forward(c["model"], c["policy"], INITIAL, cfg)
        adjoint_of = closed_form_adjoints(c["params"])
        return verify.relations_report(c["model"], c["cand"], ens, adjoint_of)

    def cost_check(self, n_paths=10_000, n_steps=128, seed=1):
        c = self.ctx
        cfg = core.SimConfig(n_steps=n_steps, n_paths=n_paths, master_seed=seed)
        ens = sdde.simulate_forward(c["model"], c["policy"], INITIAL, cfg)
        return verify.closed_form_cost_check(c["model"], c["cand"], ens, c["basis"])

    def comparisons(self, n_paths=2000):
        c = self.ctx
        perturbations = [
            verify.scaled_policy(c["policy"], [0.75, 1.0], "u_scaled_0.75"),
            verify.scaled_policy(c["policy"], [1.25, 1.0], "u_scaled_1.25"),
            verify.scaled_policy(c["policy"], [1.0, 0.75], "c_scaled_0.75"),
            verify.scaled_policy(c["policy"], [1.0, 1.25], "c_scaled_1.25"),
            verify.scaled_policy(c["policy"], [0.0, 1.0], "u_zero"),
        ]
        cfg = core.SimConfig(n_steps=64, n_paths=n_paths, master_seed=11)
        return verify.compare_controls(
            c["model"], c["policy"], perturbations, INITIAL, cfg, c["basis"]
        )


def test_criterion_1_closed_form_matches_ode_oracle(ctx):
    worst, ok = CriteriaRunner(ctx).q_benchmark()
    announce(1, ok, f"Q closed form vs RK4 oracle, max rel err {worst:.2e} < 1e-8")


def test_criterion_2_reduced_equation_and_x2_independence(ctx):
    res, flat = CriteriaRunner(ctx).hjb_checks()
    announce(
        2,
        res.passed and flat.passed,
        f"equation residual {res.max_residual:.2e} < 1e-6 on "
        f"{res.probes} probes, x2 spread {flat.max_residual:.2e} < 1e-8",
    )


def test_criterion_3_compatibility_system(ctx):
    good, bad = CriteriaRunner(ctx).compatibility()
    ok = good.passed and (not bad.passed) and bad.max_residual > 1e-3
    announce(
        3, ok,
        f"compatibility residual {good.max_residual:.2e} < 1e-6, "
        f"broken-constraint residual {bad.max_residual:.2e} > 1e-3",
    )


def test_criterion_4_adjoints_and_maximum_condition(ctx):
    q_err, p3_worst, hu_worst, ok = CriteriaRunner(ctx).adjoint_checks()
    announce(
        4, ok,
        f"q factor err {q_err:.2e}, p3 residual {p3_worst:.2e} < 1e-10, "
        f"stationarity {hu_worst:.2e} < 1e-6 on 64 paths",
    )


def test_criterion_5_value_adjoint_relations(ctx):
    rel = CriteriaRunner(ctx).relations()
    announce(5, rel.passed, f"relations max violation {rel.max_residual:.2e} < 1e-4")


def test_criterion_6_simulated_cost_matches_value(ctx):
    check = CriteriaRunner(ctx).cost_check()
    announce(
        6, check.passed,
        f"J = {check.extra['cost']:.5f} +- {check.extra['stderr']:.5f} "
        f"vs V = {check.extra['reference']:.5f} "
        f"(tol {check.tolerance:.5f})",
    )


def test_criterion_7_perturbed_policies_cost_more(ctx):
    report = CriteriaRunner(ctx).comparisons()
    worst = min(c["paired_diff_mean"] for c in report["comparisons"])
    announce(
        7, verify.paired_cost_check(report["comparisons"]).passed,
        f"5 perturbed policies all cost at least as much, "
        f"smallest paired increase {worst:+.4f}",
    )


def test_criterion_8_no_memory_reduction():
    reduced = build(mu2=0.0)
    p = reduced["params"]
    classic = (p.mu0 - p.r) / ((1.0 - p.gamma) * p.sigma**2)
    u_ok = (
        p.theta == 0.0
        and p.mu1 == 0.0
        and float(merton.optimal_u(0.0, 1.0, 3.0, p)) == pytest.approx(classic)
        and classic == pytest.approx(2.5)
    )
    runner = CriteriaRunner(reduced)
    _, ok1 = runner.q_benchmark()
    res, flat = runner.hjb_checks()
    good, bad = runner.compatibility()
    _, _, _, ok4 = runner.adjoint_checks()
    rel = runner.relations()
    cost = runner.cost_check(n_paths=4000, n_steps=64)
    comp = runner.comparisons(n_paths=1000)
    ok = bool(
        u_ok and ok1 and res.passed and flat.passed and good.passed
        and (not bad.passed) and ok4 and rel.passed and cost.passed
        and verify.paired_cost_check(comp["comparisons"]).passed
    )
    announce(
        8, ok,
        f"mu2 = 0 recovers the classical solution (u* = {classic:g}) and "
        f"criteria 1-7 hold with no memory",
    )


def test_criterion_9_delayed_chain_rule_defect():
    params = core.ModelParams(lam=0.1, delta=0.5, horizon_T=1.0)
    model = core.StructuredModel(
        params=params,
        b1=lambda t, x, x1, u: 0.0 * np.asarray(x, float),
        b2=lambda t, x, x1, u: 0.05 * np.ones_like(np.asarray(x, float)),
        sigma=lambda t, x, x1, u: np.ones_like(np.asarray(x, float)),
        f1=lambda t, x, x1, y, z, u: 0.0 * np.asarray(x, float),
        f2=lambda t, x, x1, y, z, u: 0.0 * np.asarray(x, float),
        phi=lambda x, x1: np.asarray(x, float),
        control_set=core.ControlBox(lower=[0.0], upper=[1.0]),
    )
    g = SmoothTestFunction(
        g=lambda t, x, x1: x**2,
        g_t=lambda t, x, x1: 0.0 * x,
        g_x=lambda t, x, x1: 2.0 * x,
        g_xx=lambda t, x, x1: 2.0 + 0.0 * x,
        g_x1=lambda t, x, x1: 0.0 * x,
    )
    policy = constant_policy([0.0])

    def run(n_steps):
        cfg = core.SimConfig(n_steps=n_steps, n_paths=256, master_seed=12)
        ens = sdde.simulate_forward(model, policy, INITIAL, cfg)
        return delayed_ito_check(g, ens, model)

    coarse, fine = run(64), run(128)
    ok = (
        abs(coarse.mean) <= 3.0 * coarse.stderr
        and abs(fine.mean) <= 3.0 * fine.stderr
        and fine.stderr < coarse.stderr
    )
    announce(
        9, ok,
        f"chain-rule defect {coarse.mean:+.2e} (h) and {fine.mean:+.2e} (h/2) "
        f"within 3 stderr, stderr shrinks "
        f"{coarse.stderr:.2e} -> {fine.stderr:.2e}",
    )


def test_criterion_10_reproducible_artifacts(tmp_path):
    cfg = {
        "model": {
            "kind": "merton",
            "params": {
                "r": 0.03, "mu0": 0.08, "sigma": 0.2, "beta": 0.1,
                "gamma": 0.5, "lambda": 0.1, "delta": 1.0,
                "horizon_T": 1.0, "mu2": 0.01,
            },
        },
        "sim": {"n_steps": 32, "n_paths": 100, "master_seed": 7},
        "initial_path": {"kind": "constant", "value": 1.0},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    codes = [
        cli.main(
            ["simulate", "--config", str(cfg_path), "--out", str(tmp_path / d),
             "--quiet"]
        )
        for d in ("a", "b")
    ]
    same = all(
        (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in ("forward.csv", "backward.csv", "report.json")
    )
    ok = codes == [0, 0] and same
    announce(
        10, ok,
        "two identical command-line runs produce byte-identical "
        "forward.csv, backward.csv, and report.json",
    )
