"""Backward regression solver: oracles, determinism, degradation, layout."""

import dataclasses
import math

import numpy as np
import pytest

from delaylab import bsdde, core, merton, pmp, sdde, verify

INITIAL = lambda tau: 1.0  # noqa: E731


def make_model(drift=0.0, sig=0.3, f1=None, phi=None, lam=0.1, delta=0.5):
    params = core.ModelParams(lam=lam, delta=delta, horizon_T=1.0)
    zero = lambda t, x, x1, y, z, u: np.zeros_like(np.asarray(x, float))  # noqa: E731
    return core.StructuredModel(
        params=params,
        b1=lambda t, x, x1, u: drift * np.asarray(x, float),
        b2=lambda t, x, x1, u: np.zeros_like(np.asarray(x, float)),
        sigma=lambda t, x, x1, u: sig * np.ones_like(np.asarray(x, float)),
        f1=f1 or zero,
        f2=zero,
        phi=phi or (lambda x, x1: np.asarray(x, float)),
        control_set=core.ControlBox(lower=[0.0], upper=[1.0]),
    )


POLICY = core.constant_policy([0.0])


class TestLinearOracles:
    def test_zero_driver_martingale(self):
        # f = 0, phi = x, zero drift: Y(s) = E[X_T] = X(s).
        model = make_model()
        cfg = core.SimConfig(n_steps=32, n_paths=4000, master_seed=21)
        ens = sdde.simulate_forward(model, POLICY, INITIAL, cfg)
        sol = bsdde.solve_backward(model, ens, bsdde.polynomial_basis(2))
        assert sol.y_at_s == pytest.approx(1.0, abs=3 * sol.stderr + 1e-6)

    def test_discounting_driver(self):
        # f = -beta y, phi = K: Y(s) = K e^{-beta (T - s)}.
        beta, K = 0.4, 2.0
        model = make_model(
            f1=lambda t, x, x1, y, z, u: -beta * y,
            phi=lambda x, x1: K * np.ones_like(np.asarray(x, float)),
        )
        cfg = core.SimConfig(n_steps=256, n_paths=64, master_seed=3)
        ens = sdde.simulate_forward(model, POLICY, INITIAL, cfg)
        sol = bsdde.solve_backward(model, ens, bsdde.polynomial_basis(2))
        assert sol.y_at_s == pytest.approx(K * math.exp(-beta), rel=2e-3)

    def test_terminal_condition_exact(self):
        model = make_model()
        cfg = core.SimConfig(n_steps=16, n_paths=32, master_seed=8)
        ens = sdde.simulate_forward(model, POLICY, INITIAL, cfg)
        sol = bsdde.solve_backward(model, ens, bsdde.polynomial_basis(2))
        assert np.array_equal(sol.y[:, -1], model.phi(ens.x[:, -1], ens.x1[:, -1]))


@pytest.fixture(scope="module")
def merton_setup():
    p = merton.resolve_constraints(
        r=0.03, mu0=0.08, sigma=0.2, beta=0.1, gamma=0.5,
        lam=0.1, delta=1.0, horizon_T=1.0, mu2=0.01,
    )
    return p, merton.build_model(p), merton.build_policy(p), merton.value_function(p)


class TestMertonBenchmark:
    def test_cost_matches_value(self, merton_setup):
        p, model, policy, cand = merton_setup
        cfg = core.SimConfig(n_steps=64, n_paths=4000, master_seed=1)
        ens = sdde.simulate_forward(model, policy, INITIAL, cfg)
        est = bsdde.cost_estimate(model, ens, merton.build_basis(p))
        v = float(cand.v(0.0, est.ensemble.x[0, 0], est.ensemble.x1[0, 0]))
        assert est.value == pytest.approx(v, abs=3 * est.stderr + 0.5 / 64)

    def test_basis_enrichment_stable(self, merton_setup):
        # Adding higher-order features shifts the estimate within noise.
        p, model, policy, _ = merton_setup
        cfg = core.SimConfig(n_steps=32, n_paths=2000, master_seed=2)
        ens = sdde.simulate_forward(model, policy, INITIAL, cfg)
        small = bsdde.solve_backward(model, ens, merton.build_basis(p, degree=2))
        big = bsdde.solve_backward(model, ens, merton.build_basis(p, degree=3))
        combined = math.hypot(small.stderr, big.stderr)
        assert abs(small.y_at_s - big.y_at_s) <= 3 * combined + 1e-6


class TestDeterminism:
    def test_identical_cost_bit_for_bit(self):
        model = make_model(sig=0.4)
        cfg = core.SimConfig(n_steps=32, n_paths=500, master_seed=17)
        a = bsdde.cost_estimate(
            model, sdde.simulate_forward(model, POLICY, INITIAL, cfg), bsdde.polynomial_basis(2)
        )
        b = bsdde.cost_estimate(
            model, sdde.simulate_forward(model, POLICY, INITIAL, cfg), bsdde.polynomial_basis(2)
        )
        assert a.value == b.value
        assert np.array_equal(a.samples, b.samples)


def stacked_features(degree, p=None):
    """Column-stacked reference of polynomial_basis, and of merton.build_basis
    when p is given."""

    def features(x, x1):
        cols = [x**i * x1 ** (total - i) for total in range(degree + 1) for i in range(total + 1)]
        if p is not None:
            m = x + p.theta * x1
            cols.append(np.where(m > 0.0, np.abs(m) ** p.gamma, 0.0))
        return np.column_stack(cols)

    return features


def filled(basis, x, x1):
    out = np.full((x.size, basis.n_features), np.nan)  # every column must be written
    basis.fill(x, x1, out)
    return out


def reference_backward(model, ensemble, features, ridge=bsdde.RIDGE):
    """solve_backward with freshly stacked features and one normal matrix per fit."""

    def project(f, target):
        n = f.shape[0]
        with np.errstate(all="ignore"):
            a = f.T @ f / n + ridge * np.eye(f.shape[1])
            rhs = f.T @ target / n
            try:
                pred = f @ np.linalg.solve(a, rhs)
            except np.linalg.LinAlgError:
                return np.full_like(target, target.mean()), True
        if not np.all(np.isfinite(pred)):
            return np.full_like(target, target.mean()), True
        return pred, False

    t = ensemble.times
    h = float(t[1] - t[0])
    x, x1, x2, dw = ensemble.x.T, ensemble.x1.T, ensemble.x2.T, ensemble.dw.T
    u = ensemble.controls.transpose(1, 2, 0)
    n_steps = ensemble.n_steps
    y = np.empty((n_steps + 1, ensemble.n_paths))
    z = np.zeros_like(y)
    y[-1] = model.phi(x[-1], x1[-1])
    degraded = []
    for k in range(n_steps - 1, 0, -1):
        f = features(x[k], x1[k])
        z[k], bad_z = project(f, y[k + 1] * dw[k] / h)
        target = y[k + 1] + h * model.generator(float(t[k]), x[k], x1[k], x2[k], y[k + 1], z[k], u[k])
        y[k], bad_y = project(f, target)
        if bad_z or bad_y:
            degraded.append(k)
    z[0] = float((y[1] * dw[0] / h).mean())
    y_hat = y[-1].copy()
    for k in range(n_steps - 1, -1, -1):
        y_hat = y_hat + h * model.generator(float(t[k]), x[k], x1[k], x2[k], y_hat, z[k], u[k])
    y[0] = y_hat
    stderr = float(y_hat.std(ddof=1) / math.sqrt(y_hat.size))
    return y.T, z.T, float(y_hat.mean()), stderr, degraded


class TestFeatureBuffer:
    @pytest.fixture(scope="class")
    def samples(self):
        # Some rows have m = x + theta x1 <= 0, one has m = 0 exactly.
        rng = np.random.default_rng(6)
        x = np.concatenate([rng.uniform(-2.0, 3.0, 500), [0.0, -1.0, 2.0]])
        x1 = np.concatenate([rng.uniform(-3.0, 3.0, 500), [0.0, 0.5, -400.0]])
        return x, x1

    @pytest.mark.parametrize("degree", [2, 3])
    def test_polynomial_columns_match_stacked(self, samples, degree):
        x, x1 = samples
        basis = bsdde.polynomial_basis(degree)
        assert np.array_equal(filled(basis, x, x1), stacked_features(degree)(x, x1))

    @pytest.mark.parametrize("degree", [2, 3])
    def test_merton_columns_match_stacked(self, samples, merton_setup, degree):
        x, x1 = samples
        p = merton_setup[0]
        assert np.any(x + p.theta * x1 <= 0.0)
        basis = merton.build_basis(p, degree)
        assert np.array_equal(filled(basis, x, x1), stacked_features(degree, p)(x, x1))

    def test_backward_sweep_matches_reference(self, merton_setup):
        # 1.5 u* keeps the ensemble off the optimum, as in TestNodeMajorLayout.
        p, model, policy, _ = merton_setup
        policy = verify.scaled_policy(policy, [1.5, 1.0], "u")
        cfg = core.SimConfig(n_steps=32, n_paths=300, master_seed=4)
        ens = sdde.simulate_forward(model, policy, INITIAL, cfg)
        sol = bsdde.solve_backward(model, ens, merton.build_basis(p))
        y, z, y_at_s, stderr, degraded = reference_backward(model, ens, stacked_features(2, p))
        assert np.array_equal(sol.y, y) and np.array_equal(sol.z, z)
        assert (sol.y_at_s, sol.stderr, sol.degraded_steps) == (y_at_s, stderr, degraded)


class TestDegradation:
    def test_non_finite_features_fall_back_to_mean(self):
        model = make_model()
        cfg = core.SimConfig(n_steps=8, n_paths=50, master_seed=9)
        ens = sdde.simulate_forward(model, POLICY, INITIAL, cfg)

        def bad_features(x, x1, out):
            out[:, 0] = 1.0
            out[:, 1] = x
            with np.errstate(all="ignore"):
                out[:, 2] = 1.0 / (x - x)

        basis = bsdde.RegressionBasis(n_features=3, fill=bad_features, description="broken")
        sol = bsdde.solve_backward(model, ens, basis)
        assert sol.degraded_steps  # flagged
        assert np.all(np.isfinite(sol.y))

    def test_collinear_features_survive(self):
        # Duplicate columns are rank deficient; the ridge keeps predictions
        # finite without triggering the fallback.
        model = make_model()
        cfg = core.SimConfig(n_steps=8, n_paths=200, master_seed=9)
        ens = sdde.simulate_forward(model, POLICY, INITIAL, cfg)

        def dup_features(x, x1, out):
            out[:, 0] = 1.0
            out[:, 1] = x
            out[:, 2] = x
            out[:, 3] = x1

        basis = bsdde.RegressionBasis(n_features=4, fill=dup_features, description="dup")
        sol = bsdde.solve_backward(model, ens, basis)
        assert np.all(np.isfinite(sol.y))


class TestNodeMajorLayout:
    @pytest.fixture(scope="class")
    def run(self, merton_setup):
        # 1.5 u* leaves nonzero maximum-condition and relations residuals.
        p, model, policy, cand = merton_setup
        policy = verify.scaled_policy(policy, [1.5, 1.0], "u")
        cfg = core.SimConfig(n_steps=32, n_paths=300, master_seed=4)
        ens = sdde.simulate_forward(model, policy, INITIAL, cfg)
        path = dataclasses.replace(
            ens,
            **{f: np.ascontiguousarray(getattr(ens, f)) for f in ("x", "x1", "x2", "controls", "dw")},
        )
        return p, model, cand, ens, path

    def test_backward_rows_are_contiguous(self, run):
        p, model, _, ens, _ = run
        sol = bsdde.solve_backward(model, ens, merton.build_basis(p))
        assert sol.y.shape == sol.z.shape == (300, 33)
        assert sol.y.T.flags.c_contiguous and sol.z.T.flags.c_contiguous
        assert pmp.simulate_q(model, ens).T.flags.c_contiguous

    def test_results_independent_of_layout(self, run):
        p, model, cand, ens, path = run
        assert not path.x.T.flags.c_contiguous
        basis = merton.build_basis(p)
        a, b = bsdde.solve_backward(model, ens, basis), bsdde.solve_backward(model, path, basis)
        assert np.array_equal(a.y, b.y) and np.array_equal(a.z, b.z)
        assert (a.y_at_s, a.stderr, a.degraded_steps) == (b.y_at_s, b.stderr, b.degraded_steps)

        qa, qb = pmp.simulate_q(model, ens, a.y, a.z), pmp.simulate_q(model, path, b.y, b.z)
        assert np.array_equal(qa, qb)

        q = merton.exact_q_factor(p, ens.times)
        adj_a = pmp.adjoint_from_value(model, cand, ens, q)
        adj_b = pmp.adjoint_from_value(model, cand, path, q)
        for name in ("p1", "p2", "p3", "q", "k1", "k2"):
            assert np.array_equal(getattr(adj_a, name), getattr(adj_b, name))
        for check in (pmp.check_p3_zero, pmp.maximum_condition_check):
            assert check(model, cand, ens, adj_a) == check(model, cand, path, adj_b)
        rel_a = verify.relations_report(model, cand, ens, adj_a)
        rel_b = verify.relations_report(model, cand, path, adj_b)
        assert rel_a.to_dict() == rel_b.to_dict()
        assert rel_a.grid_optimality > 0.0  # the stored control is off the optimum
