"""Backward regression solver: oracles, determinism, degradation, layout."""

import dataclasses
import math

import numpy as np
import pytest

from delaylab import bsdde, core, merton, pmp, sdde, verify
from helpers import ADJOINT_FIELDS, constant_policy, simulated_q, value_adjoints

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


POLICY = constant_policy([0.0])


class TestLinearOracles:
    def test_zero_driver_martingale(self):
        # f = 0, phi = x, zero drift: Y(s) = E[X_T] = X(s).
        model = make_model()
        cfg = core.SimConfig(n_steps=32, n_paths=4000, master_seed=21)
        ens = sdde.simulate_forward(model, POLICY, INITIAL, cfg)
        sol = bsdde.solve_backward(model, ens, bsdde.polynomial_basis(2))
        assert sol.cost == pytest.approx(-1.0, abs=3 * sol.stderr + 1e-6)

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
        assert sol.cost == pytest.approx(-K * math.exp(-beta), rel=2e-3)

    def test_terminal_condition_exact(self):
        model = make_model()
        cfg = core.SimConfig(n_steps=16, n_paths=32, master_seed=8)
        ens = sdde.simulate_forward(model, POLICY, INITIAL, cfg)
        sol = bsdde.solve_backward(model, ens, bsdde.polynomial_basis(2))
        assert np.array_equal(sol.y[:, -1], model.phi(ens.x[:, -1], ens.x1[:, -1]))


@pytest.fixture(scope="module")
def merton_setup():
    p = merton.MertonParams(
        r=0.03, mu0=0.08, sigma=0.2, beta=0.1, gamma=0.5,
        lam=0.1, delta=1.0, horizon_T=1.0, mu2=0.01,
    )
    return p, merton.build_model(p), merton.build_policy(p), merton.value_function(p)


class TestMertonBenchmark:
    def test_cost_matches_value(self, merton_setup):
        p, model, policy, cand = merton_setup
        cfg = core.SimConfig(n_steps=64, n_paths=4000, master_seed=1)
        ens = sdde.simulate_forward(model, policy, INITIAL, cfg)
        sol = bsdde.solve_backward(model, ens, merton.build_basis(p))
        v = float(cand.v(0.0, ens.x[0, 0], ens.x1[0, 0]))
        assert sol.cost == pytest.approx(v, abs=3 * sol.stderr + 0.5 / 64)

    def test_basis_enrichment_stable(self, merton_setup):
        # Adding higher-order features shifts the estimate within noise.
        p, model, policy, _ = merton_setup
        cfg = core.SimConfig(n_steps=32, n_paths=2000, master_seed=2)
        ens = sdde.simulate_forward(model, policy, INITIAL, cfg)
        small = bsdde.solve_backward(model, ens, merton.build_basis(p, degree=2))
        big = bsdde.solve_backward(model, ens, merton.build_basis(p, degree=3))
        combined = math.hypot(small.stderr, big.stderr)
        assert abs(small.cost - big.cost) <= 3 * combined + 1e-6

    def test_cost_is_pathwise_accumulation(self, merton_setup):
        # The reported cost samples are the driver minus the control variate
        # Z·ΔW, accumulated along each path with the solution's own centred Z
        # down to node 0; the regressed y enter only through that Z.
        p, model, policy, _ = merton_setup
        cfg = core.SimConfig(n_steps=32, n_paths=300, master_seed=5)
        ens = sdde.simulate_forward(model, policy, INITIAL, cfg)
        sol = bsdde.solve_backward(model, ens, merton.build_basis(p))

        t, h, u = ens.times, ens.h, ens.u
        x, x1, x2, dw, z = ens.x.T, ens.x1.T, ens.x2.T, ens.dw.T, sol.z.T
        y_hat = model.phi(x[-1], x1[-1])
        for k in range(ens.n_steps - 1, -1, -1):
            f = model.generator(float(t[k]), x[k], x1[k], x2[k], y_hat, z[k], u[:, :, k])
            y_hat = y_hat + h * f - z[k] * dw[k]
        assert np.array_equal(sol.y[:, 0], y_hat)
        assert sol.cost == float((-y_hat).mean())
        assert sol.stderr == sdde.pair_stderr(y_hat)

    def test_control_variate_keeps_mean_and_cuts_stderr(self, merton_setup):
        # The same ensemble without the control variate: the driver alone,
        # accumulated along each path.  Both estimate the same cost.  The
        # pairs and the control variate both remove the noise odd in ΔW, so
        # the reported error is at least ten times below the driver alone on
        # independent paths, whose error the per-path spread gives (15.6 at
        # seed 1); on the pairs the driver alone is 3.4 times above it.
        p, model, policy, _ = merton_setup
        cfg = core.SimConfig(n_steps=64, n_paths=4000, master_seed=1)
        ens = sdde.simulate_forward(model, policy, INITIAL, cfg)
        sol = bsdde.solve_backward(model, ens, merton.build_basis(p))

        t, h, u = ens.times, ens.h, ens.u
        x, x1, x2, z = ens.x.T, ens.x1.T, ens.x2.T, sol.z.T
        y_hat = model.phi(x[-1], x1[-1])
        for k in range(ens.n_steps - 1, -1, -1):
            y_hat = y_hat + h * model.generator(
                float(t[k]), x[k], x1[k], x2[k], y_hat, z[k], u[:, :, k]
            )
        plain = float((-y_hat).mean())
        plain_stderr = sdde.pair_stderr(y_hat)
        assert abs(sol.cost - plain) <= 3 * math.hypot(sol.stderr, plain_stderr)
        independent_stderr = float(y_hat.std(ddof=1) / math.sqrt(ens.n_paths))
        assert sol.stderr * 10 <= independent_stderr
        assert sol.stderr < plain_stderr < independent_stderr

    def test_stderr_matches_spread_across_seeds(self, merton_setup):
        # An honest error bar: over seeds 1-20 the spread of J - V is within
        # a factor 1.5 of the mean reported standard error, either way.
        p, model, policy, cand = merton_setup
        basis = merton.build_basis(p)
        errors, stderrs = [], []
        for seed in range(1, 21):
            cfg = core.SimConfig(n_steps=64, n_paths=4000, master_seed=seed)
            ens = sdde.simulate_forward(model, policy, INITIAL, cfg)
            sol = bsdde.solve_backward(model, ens, basis)
            errors.append(sol.cost - float(cand.v(0.0, ens.x[0, 0], ens.x1[0, 0])))
            stderrs.append(sol.stderr)
        spread, mean_stderr = float(np.std(errors, ddof=1)), float(np.mean(stderrs))
        assert mean_stderr / 1.5 <= spread <= 1.5 * mean_stderr


class TestGeneratorShapes:
    def test_y_independent_generator_gives_per_path_samples(self):
        # f = 0.5 x returns one row, shape (n_paths,), whatever the y it is
        # given: every path must still accumulate its own driver.
        model = make_model(f1=lambda t, x, x1, y, z, u: 0.5 * np.asarray(x, float))
        cfg = core.SimConfig(n_steps=16, n_paths=200, master_seed=11)
        ens = sdde.simulate_forward(model, POLICY, INITIAL, cfg)
        sol = bsdde.solve_backward(model, ens, bsdde.polynomial_basis(2))

        h = float(ens.times[1] - ens.times[0])
        x, dw, z = ens.x.T, ens.dw.T, sol.z.T
        y_hat = model.phi(x[-1], ens.x1[:, -1])
        for k in range(ens.n_steps - 1, -1, -1):
            y_hat = y_hat + h * (0.5 * x[k]) - z[k] * dw[k]
        assert np.array_equal(sol.y[:, 0], y_hat)
        assert np.unique(sol.y[:, 0]).size == ens.n_paths


class TestDeterminism:
    def test_identical_cost_bit_for_bit(self):
        model = make_model(sig=0.4)
        cfg = core.SimConfig(n_steps=32, n_paths=500, master_seed=17)
        a = bsdde.solve_backward(
            model, sdde.simulate_forward(model, POLICY, INITIAL, cfg), bsdde.polynomial_basis(2)
        )
        b = bsdde.solve_backward(
            model, sdde.simulate_forward(model, POLICY, INITIAL, cfg), bsdde.polynomial_basis(2)
        )
        assert a.cost == b.cost
        assert np.array_equal(a.y[:, 0], b.y[:, 0])


def stacked_features(degree, p=None):
    """Row-stacked reference of polynomial_basis, and of merton.build_basis
    when p is given: one (n_features, n_samples) array."""

    def features(x, x1):
        rows = [x**i * x1 ** (total - i) for total in range(degree + 1) for i in range(total + 1)]
        if p is not None:
            m = x + p.theta * x1
            rows.append(np.where(m > 0.0, np.abs(m) ** p.gamma, 0.0))
        return np.stack(rows)

    return features


def filled(basis, x, x1):
    out = np.full((basis.n_features, x.size), np.nan)  # every row must be written
    basis.fill(x, x1, out)
    return out


def reference_backward(model, ensemble, features, ridge=bsdde.RIDGE):
    """solve_backward with freshly stacked feature rows, one inverse normal
    matrix per fold, and the pathwise cost accumulated in a second sweep.
    The folds are the first ⌊m/2⌋ of the m antithetic pairs and the rest."""

    def products(f):
        out = np.empty((f.shape[0], f.shape[0]))
        for i in range(f.shape[0]):
            out[i, i:] = f[i:] @ f[i]
            out[i:, i] = out[i, i:]
        return out

    def inverse(prod, n):
        return np.linalg.inv(prod / n + ridge * np.eye(prod.shape[0]))

    def project(f, inv, target, at=None):
        at = f if at is None else at
        with np.errstate(all="ignore"):
            pred = (inv @ (f @ target / f.shape[1])) @ at
        if not np.all(np.isfinite(pred)):
            return np.full(at.shape[1], target.mean()), True
        return pred, False

    t, h, u = ensemble.times, ensemble.h, ensemble.u
    x, x1, x2, dw = ensemble.x.T, ensemble.x1.T, ensemble.x2.T, ensemble.dw.T
    n_steps, n_paths = ensemble.n_steps, ensemble.n_paths
    mid = 2 * (math.ceil(n_paths / 2) // 2)
    first, second = slice(0, mid), slice(mid, n_paths)
    y = np.empty((n_steps + 1, n_paths))
    z = np.zeros_like(y)
    y[-1] = model.phi(x[-1], x1[-1])
    degraded = []
    for k in range(n_steps - 1, 0, -1):
        f = features(x[k], x1[k])
        p_first, p_second = products(f[:, first]), products(f[:, second])
        centre, bad = project(f, inverse(p_first + p_second, n_paths), y[k + 1])
        target = (y[k + 1] - centre) * dw[k] / h
        # Z of each half of the paths, fitted on the other half.
        for fit, out, prod in ((first, second, p_first), (second, first, p_second)):
            n_fit = fit.stop - fit.start
            z[k, out], bad_z = project(f[:, fit], inverse(prod, n_fit), target[fit], f[:, out])
            bad = bad or bad_z
        f_k = model.generator(float(t[k]), x[k], x1[k], x2[k], y[k + 1], z[k], u[:, :, k])
        target = y[k + 1] + h * f_k
        y[k], bad_y = project(f, inverse(p_first + p_second, n_paths), target)
        if bad or bad_y:
            degraded.append(k)
    target = (y[1] - y[1].mean()) * dw[0] / h
    z[0, second], z[0, first] = target[first].mean(), target[second].mean()
    y_hat = y[-1].copy()
    for k in range(n_steps - 1, -1, -1):
        f = model.generator(float(t[k]), x[k], x1[k], x2[k], y_hat, z[k], u[:, :, k])
        y_hat = y_hat + h * f - z[k] * dw[k]
    y[0] = y_hat
    return y.T, z.T, float((-y_hat).mean()), sdde.pair_stderr(y_hat), degraded


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
        y, z, cost, stderr, degraded = reference_backward(model, ens, stacked_features(2, p))
        assert np.array_equal(sol.y, y) and np.array_equal(sol.z, z)
        assert (sol.cost, sol.stderr, sol.degraded_steps) == (cost, stderr, degraded)


class TestDegradation:
    def test_non_finite_features_fall_back_to_mean(self):
        model = make_model()
        cfg = core.SimConfig(n_steps=8, n_paths=50, master_seed=9)
        ens = sdde.simulate_forward(model, POLICY, INITIAL, cfg)

        def bad_features(x, x1, out):
            out[0] = 1.0
            out[1] = x
            with np.errstate(all="ignore"):
                out[2] = 1.0 / (x - x)

        basis = bsdde.RegressionBasis(n_features=3, fill=bad_features)
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
            out[0] = 1.0
            out[1] = x
            out[2] = x
            out[3] = x1

        basis = bsdde.RegressionBasis(n_features=4, fill=dup_features)
        sol = bsdde.solve_backward(model, ens, basis)
        assert np.all(np.isfinite(sol.y))


class TestHalves:
    @pytest.mark.parametrize("n_paths", [3, 7, 8, 50, 300, 4000])
    def test_no_pair_straddles_the_folds(self, n_paths):
        # Paths 2i and 2i+1 share their increments up to sign, so a Z fitted
        # on one of them would see the other's increment.
        first, second = bsdde._Halves(n_paths, 3).slices
        assert first.start == 0 and first.stop == second.start and second.stop == n_paths
        assert first.stop % 2 == 0
        groups = first.stop // 2, math.ceil((second.stop - second.start) / 2)
        assert min(groups) > 0 and abs(groups[1] - groups[0]) <= 1

    @pytest.mark.parametrize("n_paths", [1, 2])
    def test_one_group_has_no_fold(self, n_paths):
        assert bsdde._Halves(n_paths, 3).folds == ()


class TestCostSamples:
    """cost_samples runs the backward sweep on a ring of two y rows and one
    z row; its numbers are solve_backward's, bit for bit."""

    @staticmethod
    def assert_same(model, ens, basis):
        sol = bsdde.solve_backward(model, ens, basis)
        run = bsdde.cost_samples(model, ens, basis)
        assert np.array_equal(run.cost, sol.cost) and np.array_equal(run.stderr, sol.stderr)
        assert np.array_equal(run.samples, sol.y[:, 0])
        assert isinstance(sol, bsdde.CostSamples)
        assert np.shares_memory(sol.samples, sol.y) and np.array_equal(sol.samples, sol.y[:, 0])
        assert run.degraded_steps == sol.degraded_steps
        return run

    @pytest.mark.parametrize("n_steps", [1, 2, 16])
    @pytest.mark.parametrize("n_paths", [1, 2, 7, 300])
    def test_matches_solve_backward(self, n_paths, n_steps):
        # A generator in y and z, so the ring's Z row feeds every step; a
        # delay of T fits every grid, one step included.
        f1 = lambda t, x, x1, y, z, u: -0.3 * y + 0.4 * z * x  # noqa: E731
        model = make_model(sig=0.4, f1=f1, delta=1.0)
        cfg = core.SimConfig(n_steps=n_steps, n_paths=n_paths, master_seed=12)
        ens = sdde.simulate_forward(model, POLICY, INITIAL, cfg)
        run = self.assert_same(model, ens, bsdde.polynomial_basis(2))
        assert run.samples.shape == (n_paths,)
        assert (run.stderr == 0.0) == (n_paths <= 2)  # one pair is one sample

    def test_merton_matches_solve_backward(self, merton_setup):
        p, model, policy, _ = merton_setup
        policy = verify.scaled_policy(policy, [1.5, 1.0], "u")
        cfg = core.SimConfig(n_steps=32, n_paths=300, master_seed=4)
        ens = sdde.simulate_forward(model, policy, INITIAL, cfg)
        self.assert_same(model, ens, merton.build_basis(p))

    def test_degraded_steps_match(self):
        model = make_model()
        cfg = core.SimConfig(n_steps=8, n_paths=50, master_seed=9)
        ens = sdde.simulate_forward(model, POLICY, INITIAL, cfg)

        def bad_features(x, x1, out):
            out[0] = 1.0
            out[1] = x
            with np.errstate(all="ignore"):
                out[2] = 1.0 / (x - x)

        basis = bsdde.RegressionBasis(n_features=3, fill=bad_features)
        assert self.assert_same(model, ens, basis).degraded_steps


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
            **{f: np.ascontiguousarray(getattr(ens, f)) for f in ("x", "x1_marks", "x2", "u", "dw")},
        )
        return p, model, cand, ens, path

    def test_backward_rows_are_contiguous(self, run):
        p, model, _, ens, _ = run
        sol = bsdde.solve_backward(model, ens, merton.build_basis(p))
        assert sol.y.shape == sol.z.shape == (300, 33)
        assert sol.y.T.flags.c_contiguous and sol.z.T.flags.c_contiguous
        assert all(q.T.flags.c_contiguous for _, q in pmp.simulate_q(model, ens))

    def test_results_independent_of_layout(self, run):
        p, model, cand, ens, path = run
        assert not path.x.T.flags.c_contiguous
        basis = merton.build_basis(p)
        a, b = bsdde.solve_backward(model, ens, basis), bsdde.solve_backward(model, path, basis)
        assert np.array_equal(a.y, b.y) and np.array_equal(a.z, b.z)
        assert (a.cost, a.stderr, a.degraded_steps) == (b.cost, b.stderr, b.degraded_steps)

        qa, qb = simulated_q(model, ens), simulated_q(model, path)
        assert np.array_equal(qa, qb)

        q = merton.exact_q_factor(p, ens.times)
        adj_a = pmp.adjoint_from_value(model, cand, ens, q)
        adj_b = pmp.adjoint_from_value(model, cand, path, q)
        for name in ADJOINT_FIELDS:
            assert np.array_equal(getattr(adj_a, name), getattr(adj_b, name))
        adjoint_of = value_adjoints(model, cand, p)  # each block's adjoints in its layout
        for check in (pmp.check_p3_zero, pmp.maximum_condition_check):
            assert check(model, cand, ens, adjoint_of) == check(model, cand, path, adjoint_of)
        rel_a = verify.relations_report(model, cand, ens, adjoint_of)
        rel_b = verify.relations_report(model, cand, path, adjoint_of)
        assert rel_a.to_dict() == rel_b.to_dict()
        assert rel_a.extra["grid_optimality"] > 0.0  # the stored control is off the optimum
