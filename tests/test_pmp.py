"""Adjoint factor, vanishing x2-adjoint, maximum condition, convexity probe."""

import dataclasses
import io
import math
import weakref

import numpy as np
import pytest

from delaylab import core, hjb, merton, pmp, sdde, verify
from helpers import (
    ADJOINT_FIELDS, closed_form_adjoints, constant_policy, node_map, simulated_q, value_adjoints,
)

P0 = dict(
    r=0.03, mu0=0.08, sigma=0.2, beta=0.1, gamma=0.5,
    lam=0.1, delta=1.0, horizon_T=1.0, mu2=0.01,
)

INITIAL = lambda tau: 1.0  # noqa: E731


@pytest.fixture(scope="module")
def merton_run():
    p = merton.MertonParams(**P0)
    model = merton.build_model(p)
    policy = merton.build_policy(p)
    cand = merton.value_function(p)
    cfg = core.SimConfig(n_steps=128, n_paths=16, master_seed=31)
    ensemble = sdde.simulate_forward(model, policy, INITIAL, cfg)
    q = merton.exact_q_factor(p, ensemble.times)
    return {
        "params": p, "model": model, "policy": policy,
        "cand": cand, "ensemble": ensemble, "q": q,
    }


class TestQFactor:
    def test_recursive_utility_factor_exponential(self, merton_run):
        # Constant f_y = -beta, f_z = 0: q(t) = e^{-beta t} to rounding.
        q_sim = simulated_q(merton_run["model"], merton_run["ensemble"])
        q_ref = merton_run["q"]
        assert np.max(np.abs(q_sim - q_ref[np.newaxis, :])) < 1e-12

    def test_linear_generator_factor(self):
        # f = a y + zeta z gives q(t) = exp(zeta W + (a - zeta^2/2) t).
        a, zeta = -0.3, 0.4
        params = core.ModelParams(lam=0.0, delta=0.0, horizon_T=1.0)
        zero = lambda t, x, x1, y, z, u: np.zeros_like(np.asarray(x, float))  # noqa: E731
        ones = lambda x: np.ones_like(np.asarray(x, float))  # noqa: E731
        model = core.StructuredModel(
            params=params,
            b1=lambda t, x, x1, u: np.zeros_like(np.asarray(x, float)),
            b2=lambda t, x, x1, u: np.zeros_like(np.asarray(x, float)),
            sigma=lambda t, x, x1, u: np.ones_like(np.asarray(x, float)),
            f1=lambda t, x, x1, y, z, u: a * y + zeta * z,
            f2=zero,
            phi=lambda x, x1: np.asarray(x, float),
            control_set=core.ControlBox(lower=[0.0], upper=[1.0]),
            f_y=lambda t, x, x1, x2, y, z, u: a * ones(x),
            f_z=lambda t, x, x1, x2, y, z, u: zeta * ones(x),
        )
        cfg = core.SimConfig(n_steps=64, n_paths=8, master_seed=2)
        ens = sdde.simulate_forward(model, constant_policy([0.0]), INITIAL, cfg)
        q_sim = simulated_q(model, ens)
        w = np.concatenate(
            [np.zeros((ens.n_paths, 1)), np.cumsum(ens.dw, axis=1)], axis=1
        )
        q_ref = np.exp(zeta * w + (a - 0.5 * zeta**2) * ens.times[np.newaxis, :])
        assert np.max(np.abs(q_sim - q_ref)) < 1e-12

    def test_starts_at_one(self, merton_run):
        q_sim = simulated_q(merton_run["model"], merton_run["ensemble"])
        assert np.all(q_sim[:, 0] == 1.0)


class TestAdjointConstruction:
    def test_simulated_ensemble_gives_every_node(self, merton_run):
        # The ensemble keeps X1 at one mark (its 129 nodes fit in one node
        # block); the whole-ensemble producers read X1 at every node, the
        # bits of the sweep's recursion stored row by row.
        p, model, cand = merton_run["params"], merton_run["model"], merton_run["cand"]
        ens, q = merton_run["ensemble"], merton_run["q"]
        assert ens.x1_marks.shape == (ens.n_paths, 1)
        x1 = np.empty(ens.x.shape)
        x1[:, 0] = ens.x1_marks[:, 0]
        for k in range(ens.n_steps):
            x1[:, k + 1] = x1[:, k] + ens.h * model.x1_drift(ens.x[:, k], x1[:, k], ens.x2[:, k])
        every_row = dataclasses.replace(ens, x1_marks=x1, mark_every=1)
        assert np.array_equal(ens.x1, x1)
        for produce in (
            lambda e: pmp.adjoint_from_value(model, cand, e, q),
            lambda e: merton.closed_form_adjoints(p, e),
        ):
            got, want = produce(ens), produce(every_row)
            for name in ADJOINT_FIELDS:
                assert np.array_equal(getattr(got, name), getattr(want, name)), name

    def test_value_derived_matches_closed_form(self, merton_run):
        p = merton_run["params"]
        ens = merton_run["ensemble"]
        built = pmp.adjoint_from_value(
            merton_run["model"], merton_run["cand"], ens, merton_run["q"]
        )
        explicit = merton.closed_form_adjoints(p, ens)
        for name in ("p1", "p2", "k1", "k2"):
            a, b = getattr(built, name), getattr(explicit, name)
            assert a.shape == (ens.n_paths, ens.n_steps + 1), name
            assert np.max(np.abs(a - b)) < 1e-10, name

    def test_terminal_values(self, merton_run):
        # p1(T) = -phi_x q(T), p2(T) = -phi_x1 q(T) via V(T) = -phi.
        p = merton_run["params"]
        ens = merton_run["ensemble"]
        adj = pmp.adjoint_from_value(
            merton_run["model"], merton_run["cand"], ens, merton_run["q"]
        )
        m_T = ens.x[:, -1] + p.theta * ens.x1[:, -1]
        phi_x = m_T ** (p.gamma - 1.0)
        assert adj.p1[:, -1] == pytest.approx(-phi_x * merton_run["q"][-1], rel=1e-12)
        assert adj.p2[:, -1] == pytest.approx(p.theta * adj.p1[:, -1], rel=1e-12)

    def test_p2_proportional_to_p1(self, merton_run):
        p = merton_run["params"]
        adj = pmp.adjoint_from_value(
            merton_run["model"], merton_run["cand"], merton_run["ensemble"],
            merton_run["q"],
        )
        assert np.max(np.abs(adj.p2 - p.theta * adj.p1)) < 1e-12


class TestP3Reduction:
    def test_constrained_model_p3_vanishes(self, merton_run):
        ens = merton_run["ensemble"]
        adj = pmp.adjoint_from_value(
            merton_run["model"], merton_run["cand"], ens, merton_run["q"]
        )
        report = pmp.check_p3_zero(
            merton_run["model"], merton_run["cand"], ens, node_map(ens, adj)
        )
        assert report.passed, report.extra

    def test_broken_theta_leaves_residual(self):
        model, cand, ens, adj = _broken_theta_run(n_paths=2, seed=6)
        report = pmp.check_p3_zero(model, cand, ens, node_map(ens, adj))
        assert not report.passed
        assert report.max_residual > 1e-4


class TestHamiltonianAt:
    # δ = 1 ≥ T − s gives x2 as φ broadcast over the paths (path stride 0);
    # δ = 0.25 gives x2 as a column of its own, node-major like x.
    @pytest.mark.parametrize("delta", [1.0, 0.25])
    def test_same_bits_as_the_written_out_formula(self, delta):
        # The map adds the memory term it computed once in the place a
        # direct evaluation of H does: ((p1·b + memory) + k1·σ) − q·f.
        p = merton.MertonParams(**{**P0, "delta": delta})
        model, cand = merton.build_model(p), merton.value_function(p)
        prm = model.params
        cfg = core.SimConfig(n_steps=128, n_paths=16, master_seed=31)
        ens = sdde.simulate_forward(model, merton.build_policy(p), INITIAL, cfg)
        _, part = next(ens.blocks())
        t, x, x1, x2, u_star = part.times, part.x, part.x1, part.x2, part.u
        assert x.T.flags.c_contiguous
        assert (x2.strides[0] == 0) if delta == 1.0 else x2.T.flags.c_contiguous
        adj = pmp.adjoint_from_value(model, cand, part, merton.exact_q_factor(p, t))
        y, z = hjb.value_slots(model, cand, t, x, x1, u_star)
        h_of_u = pmp.hamiltonian_at(model, t, x, x1, x2, y, z, adj)
        for u in (u_star, u_star + np.reshape([0.1, -0.05], (2, 1, 1))):
            b = model.drift(t, x, x1, x2, u)
            sg = model.sigma(t, x, x1, u)
            f = model.generator(t, x, x1, x2, y, z, u)
            memory = adj.p2 * (x - prm.e_minus * x2 - prm.lam * x1)
            want = adj.p1 * b + memory + adj.k1 * sg - adj.q * f
            assert np.array_equal(h_of_u(u), want)

    def test_map_frees_the_record(self):
        # The map keeps p1, q, k1 and the memory term, not the record, so
        # the record and its k2, which H does not read, die with their
        # last outside reference.
        p = merton.MertonParams(**P0)
        model, cand = merton.build_model(p), merton.value_function(p)
        cfg = core.SimConfig(n_steps=16, n_paths=4, master_seed=31)
        ens = sdde.simulate_forward(model, merton.build_policy(p), INITIAL, cfg)
        t, x, x1, x2, u = ens.times, ens.x, ens.x1, ens.x2, ens.u
        y, z = hjb.value_slots(model, cand, t, x, x1, u)
        adj = merton.closed_form_adjoints(p, ens)
        record, k2 = weakref.ref(adj), weakref.ref(adj.k2)
        h_of_u = pmp.hamiltonian_at(model, t, x, x1, x2, y, z, adj)
        del adj
        assert record() is None
        assert k2() is None
        assert np.all(np.isfinite(h_of_u(u)))


class TestMaximumCondition:
    def test_optimal_controls_stationary(self, merton_run):
        ens = merton_run["ensemble"]
        adj = pmp.adjoint_from_value(
            merton_run["model"], merton_run["cand"], ens, merton_run["q"]
        )
        report = pmp.maximum_condition_check(
            merton_run["model"], merton_run["cand"], ens, node_map(ens, adj)
        )
        assert report.passed, report.extra

    def test_scaled_controls_rejected(self, merton_run):
        # Paths simulated under 1.5 u* have a visibly nonzero H_u.
        policy = verify.scaled_policy(merton_run["policy"], [1.5, 1.0], "u_150")
        cfg = core.SimConfig(n_steps=64, n_paths=2, master_seed=13)
        ens = sdde.simulate_forward(merton_run["model"], policy, INITIAL, cfg)
        q = merton.exact_q_factor(merton_run["params"], ens.times)
        adj = pmp.adjoint_from_value(merton_run["model"], merton_run["cand"], ens, q)
        report = pmp.maximum_condition_check(
            merton_run["model"], merton_run["cand"], ens, node_map(ens, adj)
        )
        assert not report.passed
        assert report.extra["max_abs_h_u"] > 1e-3
    def test_infinite_gradient_reads_infinite(self):
        # H = p1·u on the box [−1, 1] at u* = 0, with p1 = inf at one node.
        # There H_u is inf, and the variational inequality at the box's ends
        # is inf·(0 − (−1)) = inf: the check fails on inf, not on the NaN of
        # inf·0 that an alternative equal to u* would give.
        zeros = lambda t, x, x1, *rest: np.zeros_like(x)  # noqa: E731
        model = core.StructuredModel(
            params=core.ModelParams(lam=0.0, delta=0.5, horizon_T=1.0),
            b1=lambda t, x, x1, u: u[0],
            b2=zeros,
            sigma=lambda t, x, x1, u: np.ones_like(x),
            f1=zeros,
            f2=zeros,
            phi=lambda x, x1: x,
            control_set=core.ControlBox(lower=[-1.0], upper=[1.0]),
        )
        cand = hjb.ValueCandidate(*[zeros] * 6)
        cfg = core.SimConfig(n_steps=4, n_paths=2, master_seed=1)
        ens = sdde.simulate_forward(model, constant_policy([0.0]), INITIAL, cfg)
        zero = np.zeros(ens.x.shape)
        p1 = zero.copy()
        p1[1, 2] = np.inf
        adj = pmp.Adjoints(p1=p1, p2=zero, q=zero, k1=zero, k2=zero)
        with np.errstate(all="ignore"):
            report = pmp.maximum_condition_check(model, cand, ens, node_map(ens, adj))
        assert report.extra == {"max_abs_h_u": math.inf, "max_variational": math.inf}
        assert not report.passed


class TestEnsembleReportIsWorstPath:
    """An ensemble-wide report equals the worst one-path report.

    Two groups of paths start from pre-histories 1 and 20, so their adjoints
    differ in scale; each residual must be scaled by its own path.
    """

    N_PATHS = 6

    @pytest.fixture(scope="class")
    def run(self):
        # Broken theta leaves a p3 residual; 1.5 u* leaves an H_u residual.
        model, cand, small, _ = _broken_theta_run(self.N_PATHS // 2, seed=6, u_factor=1.5)
        _, _, large, _ = _broken_theta_run(
            self.N_PATHS // 2, seed=7, u_factor=1.5, initial=lambda tau: 20.0
        )
        ens = dataclasses.replace(
            small,
            **{f: np.concatenate([getattr(small, f), getattr(large, f)])
               for f in ("x", "x1_marks", "x2", "dw")},
            u=np.concatenate([small.u, large.u], axis=1),
        )
        q = merton.exact_q_factor(merton.MertonParams(**P0), ens.times)
        adj = pmp.adjoint_from_value(model, cand, ens, q)
        return model, cand, ens, adj

    def _one_path(self, ens, adj, i):
        rows = slice(i, i + 1)
        one_ens = dataclasses.replace(
            ens, **{f: getattr(ens, f)[rows] for f in ("x", "x1_marks", "x2", "dw")}, u=ens.u[:, rows]
        )
        one_adj = dataclasses.replace(
            adj, **{f: getattr(adj, f)[rows] for f in ADJOINT_FIELDS}
        )
        return one_ens, node_map(one_ens, one_adj)

    @pytest.mark.parametrize("check", [pmp.check_p3_zero, pmp.maximum_condition_check])
    def test_check_reports_worst_path(self, run, check):
        model, cand, ens, adj = run
        # With p2 = theta p1 the p3 drift is proportional to p1, so every
        # path has the same relative residual.  A fixed offset breaks that
        # and makes the paths of smallest |p1| the worst ones.
        adj = dataclasses.replace(adj, p2=adj.p2 - 1e-3)
        whole = check(model, cand, ens, node_map(ens, adj))
        singles = [
            check(model, cand, *self._one_path(ens, adj, i)) for i in range(self.N_PATHS)
        ]
        assert len({r.max_residual for r in singles}) == self.N_PATHS
        worst = max(singles, key=lambda r: r.max_residual)
        assert whole.max_residual > 0.0
        assert whole.max_residual == pytest.approx(worst.max_residual, rel=1e-12)
        assert whole.extra == pytest.approx(worst.extra, rel=1e-12)
        assert whole.probes == ens.n_steps + 1

    def test_adjoint_mismatch_is_worst_path(self, run):
        model, cand, ens, adj = run
        # Offsets of fixed size give each path a relative mismatch set by
        # its own scale.
        given = dataclasses.replace(
            adj, p1=adj.p1 + 1e-3, p2=adj.p2 - 2e-4, k1=adj.k1 + 3e-3, k2=adj.k2 + 1e-5
        )
        whole = verify.relations_report(model, cand, ens, node_map(ens, given))
        whole = whole.extra["adjoint_mismatch"]
        singles = [
            verify.relations_report(
                model, cand, *self._one_path(ens, given, i)
            ).extra["adjoint_mismatch"]
            for i in range(self.N_PATHS)
        ]
        for name in ("p1", "p2", "k1", "k2"):
            per_path = [s[name] for s in singles]
            assert len(set(per_path)) == self.N_PATHS, name
            assert whole[name] > 0.0
            assert whole[name] == pytest.approx(max(per_path), rel=1e-12), name


class TestAdjointDrift:
    def test_p1_equation_euler_residual_first_order(self, merton_run):
        # -dp1 = H_x dt - k1 dW along the optimal path, H_x by differencing.
        # The mean path-summed defect is first order in h: at seed 19 and
        # P = 32 000 it reads 2.34e-3 ± 1.8e-4 at N = 64 and 1.09e-3 ±
        # 1.25e-4 at N = 128, a gap of 5.7 standard errors (over the
        # antithetic pairs).  At P = 64 the two lay within one standard
        # error of each other.  Each N draws its increments once and
        # simulates them a block of paths at a time, which bounds memory.
        model, cand = merton_run["model"], merton_run["cand"]
        p = merton_run["params"]
        policy = merton_run["policy"]
        n_paths, block = 32_000, 4_000

        def path_defects(ens, h):
            adj = merton.closed_form_adjoints(p, ens)
            t, x, x1, x2, u = ens.times, ens.x, ens.x1, ens.x2, ens.u
            y = -cand.v(t, x, x1)
            z = -model.sigma(t, x, x1, u) * cand.v_x(t, x, x1)
            e = 1e-6 * (1.0 + np.abs(x))
            h_up = pmp.hamiltonian_at(model, t, x + e, x1, x2, y, z, adj)(u)
            h_dn = pmp.hamiltonian_at(model, t, x - e, x1, x2, y, z, adj)(u)
            h_x = (h_up - h_dn) / (2 * e)
            res = (
                -(adj.p1[:, 1:] - adj.p1[:, :-1])
                - h_x[:, :-1] * h
                + adj.k1[:, :-1] * ens.dw
            )
            return res.sum(axis=1)

        def mean_residual(n_steps):
            h = (p.horizon_T - p.start_s) / n_steps
            dw = sdde.brownian_increments(19, n_paths, n_steps, h)
            cfg = core.SimConfig(n_steps=n_steps, n_paths=block, master_seed=19)
            sums = np.concatenate([
                path_defects(sdde.simulate_forward(model, policy, INITIAL, cfg, dw[i : i + block]), h)
                for i in range(0, n_paths, block)
            ])
            return abs(float(np.mean(sums))), sdde.pair_stderr(sums)

        (coarse, coarse_se), (fine, fine_se) = mean_residual(64), mean_residual(128)
        assert coarse - fine > 3.0 * math.hypot(coarse_se, fine_se)
        assert fine < 0.005


class TestConvexityProbe:
    """The probes are path 0 at nodes 0 and n_steps // 2 of the records."""

    def _records(self, model):
        # y = −V = 0.5 and z = −σV_x = 0.1 under the linear model's σ = 0.5.
        ens = _still_ensemble(x=1.0, x1=0.9, x2=0.8, u=[0.5])
        adjoint_of = node_map(ens, _frozen_adjoints(ens))
        return model, _constant_candidate(v=-0.5, v_x=-0.2), ens, adjoint_of

    def test_linear_hamiltonian_passes(self):
        report = pmp.convexity_spot_check(*self._records(_linear_model()))
        assert report.passed

    def test_concave_generator_term_fails(self):
        # f1 = -x^2 with q > 0 contributes +q x^2 to -q f, i.e. H gains a
        # strictly concave x-term through the sign flip below.
        model = _linear_model(f1=lambda t, x, x1, y, z, u: np.asarray(x, float) ** 2)
        report = pmp.convexity_spot_check(*self._records(model))
        assert not report.passed

    def test_nan_adjoint_fails_the_probe(self):
        model, cand, ens, _ = self._records(_linear_model())
        adj = _frozen_adjoints(ens)
        adj.p1[0, ens.n_steps // 2] = np.nan
        report = pmp.convexity_spot_check(model, cand, ens, node_map(ens, adj))
        assert np.isnan(report.max_residual)
        assert np.isnan(report.extra["min_eigenvalues"][1])
        assert not report.passed

    def test_merton_convex_near_optimum(self):
        # The optimal controls at x = 1, x1 = 0.95 at every node, with the
        # value-derived adjoints at q = 1.
        p = merton.MertonParams(**P0)
        model = merton.build_model(p)
        cand = merton.value_function(p)
        ens = _still_ensemble(x=1.0, x1=0.95, x2=0.9, u=[0.0, 0.0], start=0.0)
        x, x1 = ens.x[0], ens.x1[0]
        ens.u[:, 0] = merton.optimal_u(ens.times, x, x1, p), merton.optimal_c(ens.times, x, x1, p)
        adj = pmp.adjoint_from_value(model, cand, ens, np.ones(ens.times.size))
        report = pmp.convexity_spot_check(model, cand, ens, node_map(ens, adj))
        assert report.passed, report.extra

    def test_each_probe_at_its_node_time(self):
        # b1 = -t x^2 and p1 = 1 make -2t the one nonzero entry of the
        # Hessian: each probe's least eigenvalue is -2 t_k at its node k.
        model = _linear_model(b1=lambda t, x, x1, u: -t * np.asarray(x, float) ** 2)
        cand = _constant_candidate(v=-0.5, v_x=-0.2)
        ens = _still_ensemble(x=1.0, x1=0.9, x2=0.8, u=[0.5], start=0.2, n_steps=4, h=0.2)
        report = pmp.convexity_spot_check(model, cand, ens, node_map(ens, _frozen_adjoints(ens)))
        assert report.extra["min_eigenvalues"] == pytest.approx([-0.4, -1.2], rel=1e-6)


class TestZeroP3:
    def test_records_omit_p3_and_the_csv_writes_zero(self, merton_run):
        # p3 ≡ 0 is not held by either producer's record; adjoint.csv
        # writes it as 0 on every row.
        p, model, cand, ens = (merton_run[k] for k in ("params", "model", "cand", "ensemble"))
        for adjoint_of in (value_adjoints(model, cand, p), closed_form_adjoints(p)):
            adj = adjoint_of(ens)
            assert tuple(f.name for f in dataclasses.fields(adj)) == ADJOINT_FIELDS
            assert not hasattr(adj, "p3")
            out = io.BytesIO()
            pmp.write_adjoint_csv(ens, out, adjoint_of)
            header, *rows = out.getvalue().decode("ascii").splitlines()
            column = header.split(",").index("p3")
            assert len(rows) == ens.n_paths * (ens.n_steps + 1)
            assert {row.split(",")[column] for row in rows} == {"0"}


def _broken_theta_run(n_paths, seed, u_factor=1.0, initial=INITIAL):
    """Merton model with theta off its constraint by 0.01, simulated under
    u_factor times the closed-form portfolio, with value-derived adjoints."""
    p_ok = merton.MertonParams(**P0)
    p_bad = merton.MertonParams(**P0, theta=p_ok.theta + 0.01)
    model = merton.build_model(p_bad)
    policy = verify.scaled_policy(merton.build_policy(p_bad), [u_factor, 1.0], "u")
    cand = merton.value_function(p_bad)
    cfg = core.SimConfig(n_steps=64, n_paths=n_paths, master_seed=seed)
    ens = sdde.simulate_forward(model, policy, initial, cfg)
    q = merton.exact_q_factor(p_bad, ens.times)
    return model, cand, ens, pmp.adjoint_from_value(model, cand, ens, q)


def _linear_model(f1=None, b1=None):
    params = core.ModelParams(lam=0.1, delta=0.5, horizon_T=1.0)
    zero = lambda t, x, x1, y, z, u: np.zeros_like(np.asarray(x, float))  # noqa: E731
    return core.StructuredModel(
        params=params,
        b1=b1 or (lambda t, x, x1, u: 0.2 * x + 0.1 * x1 + 0.3 * u[0]),
        b2=lambda t, x, x1, u: 0.4 * np.ones_like(np.asarray(x, float)),
        sigma=lambda t, x, x1, u: 0.5 * np.ones_like(np.asarray(x, float)) + 0.0 * u[0],
        f1=f1 or (lambda t, x, x1, y, z, u: 0.3 * y + 0.2 * z),
        f2=zero,
        phi=lambda x, x1: np.asarray(x, float),
        control_set=core.ControlBox(lower=[-1.0], upper=[1.0]),
    )


def _still_ensemble(x, x1, x2, u, start=0.2, n_steps=2, h=0.1):
    """One path that holds the state (x, x1, x2) and the controls u at
    every node start + h·k, k = 0, ..., n_steps."""
    n_nodes = n_steps + 1
    full = np.ones((1, n_nodes))
    return sdde.ForwardEnsemble(
        times=start + h * np.arange(n_nodes),
        x=x * full,
        x1_marks=x1 * full,
        x2=x2 * full,
        u=np.asarray(u, float)[:, np.newaxis, np.newaxis] * full,
        dw=np.zeros((1, n_steps)),
        h=h,
    )


def _constant_candidate(v, v_x):
    """Candidate with V = v and V_x = v_x everywhere, its other partials 0."""

    def const(c):
        return lambda s, x, x1: np.full(np.shape(x), c, float)

    return hjb.ValueCandidate(
        v=const(v), v_s=const(0.0), v_x=const(v_x), v_xx=const(0.0), v_x1=const(0.0),
        v_xx1=const(0.0),
    )


def _frozen_adjoints(ens, p1=1.0, p2=0.2, q=1.0, k1=0.3):
    """Adjoints that hold (p1, p2, q, k1) at every node, k2 = 0."""

    def full(c):
        return np.full(ens.x.shape, c, float)

    return pmp.Adjoints(p1=full(p1), p2=full(p2), q=full(q), k1=full(k1), k2=full(0.0))
