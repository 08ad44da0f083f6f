"""Metamorphic relations on the demo Merton problem: transformations of the
input that change the output in a known way, checked without the closed-form
value function.

Each case simulates one Brownian draw three times with sdde.simulate_forward:
as drawn from the initial path φ ≡ 1, from the doubled path φ ≡ 2, and
negated (−dw) from φ ≡ 1.  bsdde.cost_samples with merton.build_basis gives
each run's cost.

- Doubling the initial path doubles every x, x1 and x2 exactly and leaves
  the controls as they are, at the demo's δ = 1, where x2 is φ broadcast
  over the paths, and at δ = 0.25, where x2 has rows of its own; the
  feedback controls are 0-homogeneous in the state.  Utility and the
  terminal payoff are γ-homogeneous, and the generator is linear in y, so in
  exact arithmetic the cost scales by exactly 2^γ.  The basis
  {1, x, x1, x², x·x1, x1², m^γ} spans the same space after the scaling, but
  the ridge of the regression is not scale-free, so the fit misses 2^γ·J by
  a little.
- −dw swaps the two paths of every antithetic pair, so x is the drawn x with
  each pair's paths traded.  The folds of the Z fit keep the same pairs, so
  the cost must not move; how BLAS sums the Gram matrices decides whether it
  moves by rounding.

The delayed linear-quadratic regulator (helpers.LQParams) has its own
doubling relation.  Its drift and its feedback control u* = −P(t)Z are
linear in the state and σ is constant, so doubling both φ (1 → 2) and σ
doubles x, the marks of x1, x2 and u bit for bit on the same draw; its
δ = 0.25 gives x2 rows of its own.  Its utility and payoff are quadratic
and its offset c(s) is proportional to σ², so the cost scales by exactly 4
in exact arithmetic; bsdde.polynomial_basis(2) spans the same space after
the scaling, and again the ridge makes the fit miss 4J by a little.

The bounds on the cost below are the measured misses with a margin: the
regression's target (ROADMAP item 1) may tighten them, never loosen them.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from delaylab import bsdde, core, merton, sdde
from helpers import LQParams, lq_model, lq_policy

DEMO = Path(__file__).resolve().parents[1] / "demos" / "merton.json"

# (P, N) -> the bound on |J(2φ) / (2^γ J(φ)) − 1|.  Measured at seeds 1–3:
# 6.8e-5, 4.3e-5, 2.1e-4 at (200, 16); 5.9e-6, 1.9e-6, 3.2e-6 at (4 000, 64).
SCALING_BOUND = {(200, 16): 5e-4, (4_000, 64): 1.5e-5}

# Bounds on the relative move of the cost and of its standard error under
# −dw.  Measured: 9.2e-8 and 5.7e-6 at (200, 16), seed 1; 0 in the other
# five cases.
SWAP_COST_BOUND = 1e-6
SWAP_STDERR_BOUND = 1e-4

# (P, N) -> the bound on |J(2φ, 2σ) / (4 J(φ, σ)) − 1| of the LQ regulator.
# Measured at seeds 1–3: 3.0e-5, 1.1e-5, 3.6e-5 at (200, 16); 7.5e-6,
# 1.0e-6, 6.6e-6 at (4 000, 64).
LQ_SCALING_BOUND = {(200, 16): 1e-4, (4_000, 64): 2e-5}

CASES = [(size, seed) for size in SCALING_BOUND for seed in (1, 2, 3)]


def demo_params(**changes):
    params = json.loads(DEMO.read_text())["model"]["params"]
    params = {("lam" if key == "lambda" else key): value for key, value in params.items()}
    return merton.MertonParams(**{**params, **changes})


@pytest.fixture(scope="module", params=CASES, ids=lambda c: "P%d-N%d-seed%d" % (*c[0], c[1]))
def runs(request):
    (n_paths, n_steps), seed = request.param
    p = demo_params()
    model, policy, basis = merton.build_model(p), merton.build_policy(p), merton.build_basis(p)
    cfg = core.SimConfig(n_steps=n_steps, n_paths=n_paths, master_seed=seed)
    dw = sdde.brownian_increments(seed, n_paths, n_steps, cfg.step_size(model.params))

    def run(value, increments):
        ens = sdde.simulate_forward(model, policy, lambda tau: value, cfg, increments)
        return ens, bsdde.cost_samples(model, ens, basis)

    return {
        "size": (n_paths, n_steps),
        "gamma": p.gamma,
        "drawn": run(1.0, dw),
        "doubled": run(2.0, dw),
        "negated": run(1.0, -dw),
    }


@pytest.fixture(scope="module", params=CASES, ids=lambda c: "P%d-N%d-seed%d" % (*c[0], c[1]))
def short_delay_runs(request):
    """The drawn and doubled forward runs of one Brownian draw at δ = 0.25."""
    (n_paths, n_steps), seed = request.param
    p = demo_params(delta=0.25)
    model, policy = merton.build_model(p), merton.build_policy(p)
    cfg = core.SimConfig(n_steps=n_steps, n_paths=n_paths, master_seed=seed)
    dw = sdde.brownian_increments(seed, n_paths, n_steps, cfg.step_size(model.params))
    return [
        sdde.simulate_forward(model, policy, lambda tau: value, cfg, dw) for value in (1.0, 2.0)
    ]


@pytest.fixture(scope="module", params=CASES, ids=lambda c: "P%d-N%d-seed%d" % (*c[0], c[1]))
def lq_runs(request):
    """The LQ regulator's forward run and cost from φ ≡ 1 at its σ, and from
    φ ≡ 2 at 2σ, on one Brownian draw."""
    (n_paths, n_steps), seed = request.param
    lq = LQParams()
    cfg = core.SimConfig(n_steps=n_steps, n_paths=n_paths, master_seed=seed)
    dw = sdde.brownian_increments(seed, n_paths, n_steps, cfg.step_size(lq_model(lq).params))

    def run(p, value):
        model = lq_model(p)
        ens = sdde.simulate_forward(model, lq_policy(p), lambda tau: value, cfg, dw)
        return ens, bsdde.cost_samples(model, ens, bsdde.polynomial_basis(2))

    return {
        "size": (n_paths, n_steps),
        "drawn": run(lq, 1.0),
        "doubled": run(dataclasses.replace(lq, sigma=2.0 * lq.sigma), 2.0),
    }


def assert_state_doubles(drawn, doubled):
    """x1, rebuilt from its marks, and x2 double exactly; u does not move."""
    assert np.array_equal(doubled.x1, 2.0 * drawn.x1)
    assert np.array_equal(doubled.x2, 2.0 * drawn.x2)
    assert np.array_equal(doubled.u, drawn.u)


class TestDoubledInitialPath:
    def test_x_doubles_exactly(self, runs):
        (drawn, _), (doubled, _) = runs["drawn"], runs["doubled"]
        assert np.array_equal(doubled.x, 2.0 * drawn.x)

    def test_x1_x2_double_and_u_holds(self, runs):
        (drawn, _), (doubled, _) = runs["drawn"], runs["doubled"]
        assert drawn.x2.strides[0] == 0  # φ broadcast over the paths
        assert_state_doubles(drawn, doubled)

    def test_short_delay_state_doubles_and_u_holds(self, short_delay_runs):
        drawn, doubled = short_delay_runs
        assert drawn.x2.strides[0] != 0  # rows of its own
        assert np.array_equal(doubled.x, 2.0 * drawn.x)
        assert_state_doubles(drawn, doubled)

    def test_cost_scales_by_two_to_the_gamma(self, runs):
        (_, drawn), (_, doubled) = runs["drawn"], runs["doubled"]
        miss = abs(doubled.cost / (2.0 ** runs["gamma"] * drawn.cost) - 1.0)
        assert miss < SCALING_BOUND[runs["size"]]


class TestNegatedIncrements:
    def test_pairs_swap_paths(self, runs):
        (drawn, _), (negated, _) = runs["drawn"], runs["negated"]
        swap = np.arange(drawn.n_paths) ^ 1  # 2i <-> 2i + 1
        assert np.array_equal(negated.x, drawn.x[swap])
        assert np.array_equal(negated.u, drawn.u[:, swap])

    def test_cost_does_not_move(self, runs):
        (_, drawn), (_, negated) = runs["drawn"], runs["negated"]
        assert abs(negated.cost / drawn.cost - 1.0) < SWAP_COST_BOUND
        assert abs(negated.stderr / drawn.stderr - 1.0) < SWAP_STDERR_BOUND


class TestLQDoubledPathAndNoise:
    def test_state_and_control_double_exactly(self, lq_runs):
        (drawn, _), (doubled, _) = lq_runs["drawn"], lq_runs["doubled"]
        assert drawn.x2.strides[0] != 0  # rows of its own
        for name in ("x", "x1_marks", "x2", "u"):
            assert np.array_equal(getattr(doubled, name), 2.0 * getattr(drawn, name)), name

    def test_cost_scales_by_four(self, lq_runs):
        (_, drawn), (_, doubled) = lq_runs["drawn"], lq_runs["doubled"]
        miss = abs(doubled.cost / (4.0 * drawn.cost) - 1.0)
        assert miss < LQ_SCALING_BOUND[lq_runs["size"]]
