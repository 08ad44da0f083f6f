"""Initial segment, parameter validation, and seed derivation."""

import math

import numpy as np
import pytest

from delaylab import core


class TestModelParams:
    def test_valid(self):
        p = core.ModelParams(lam=0.1, delta=1.0, horizon_T=1.0)
        assert p.e_minus == pytest.approx(math.exp(-0.1))
        assert p.e_plus == pytest.approx(math.exp(0.1))

    def test_negative_lam_rejected(self):
        with pytest.raises(core.ConfigError):
            core.ModelParams(lam=-0.1, delta=1.0, horizon_T=1.0)

    def test_negative_delta_rejected(self):
        with pytest.raises(core.ConfigError):
            core.ModelParams(lam=0.1, delta=-1.0, horizon_T=1.0)

    def test_bad_time_window_rejected(self):
        with pytest.raises(core.ConfigError):
            core.ModelParams(lam=0.1, delta=1.0, horizon_T=0.0, start_s=0.5)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["lam", "delta", "horizon_T", "start_s"])
    def test_non_finite_field_rejected(self, name, value):
        # NaN passes every range check written as a comparison.
        fields = dict(lam=0.1, delta=1.0, horizon_T=1.0, start_s=0.0)
        with pytest.raises(core.ConfigError, match=f"{name} must be finite"):
            core.ModelParams(**{**fields, name: value})


class TestDelayBuffer:
    """The delay window [−δ, 0] sampled from the initial segment, and its
    moving average x1(s), as core.initial_segment returns them."""

    def test_constant_path_moving_average(self):
        # Oracle: int_{-d}^{0} e^{l tau} c dtau = c (1 - e^{-l d}) / l.
        lam, delta, c = 0.1, 1.0, 2.0
        _, x1 = core.initial_segment(lambda tau: c, delta, lam, delta / 512)
        exact = c * (1.0 - math.exp(-lam * delta)) / lam
        assert x1 == pytest.approx(exact, abs=1e-6)

    def test_linear_path_moving_average(self):
        # Oracle: int e^{l tau} (a + b tau) dtau evaluated in closed form.
        lam, delta, a, b = 0.3, 0.5, 1.0, -2.0
        el = math.exp(-lam * delta)
        exact = a * (1.0 - el) / lam + b * ((el - 1.0) / lam**2 + delta * el / lam)
        _, x1 = core.initial_segment(lambda tau: a + b * tau, delta, lam, delta / 1024)
        assert x1 == pytest.approx(exact, abs=1e-6)

    def test_quadrature_error_second_order(self):
        lam, delta = 0.4, 1.0
        exact = (1.0 - math.exp(-lam * delta)) / lam

        def err(n):
            _, x1 = core.initial_segment(lambda tau: 1.0, delta, lam, delta / n)
            return abs(x1 - exact)

        assert err(64) / err(128) == pytest.approx(4.0, rel=0.05)

    def test_x2_is_oldest_sample(self):
        samples, _ = core.initial_segment(lambda tau: tau, 1.0, 0.1, 0.25)
        assert samples[0] == pytest.approx(-1.0)

    def test_zero_delay_degenerates(self):
        samples, x1 = core.initial_segment(lambda tau: 3.0, 0.0, 0.5, 0.1)
        assert samples.size == 1
        assert x1 == 0.0
        assert samples[0] == pytest.approx(3.0)

    def test_misaligned_step_rejected(self):
        with pytest.raises(core.ConfigError):
            core.initial_segment(lambda tau: 1.0, 1.0, 0.1, 0.3)

    def test_lag_numpy_cannot_index_rejected(self):
        # δ = 0.5 over 2^64 steps of [0, 1] is a lag of 2^63 steps: its
        # 2^63 + 1 samples exceed the largest numpy index, so the segment is
        # refused before any array is made.
        with pytest.raises(core.ConfigError, match="more samples than numpy can index"):
            core.initial_segment(lambda tau: 1.0, 0.5, 0.1, 1.0 / 2**64)


class TestPathSeeds:
    def test_deterministic(self):
        assert core.derive_path_seed(123, 45) == core.derive_path_seed(123, 45)

    def test_master_seed_matters(self):
        assert core.derive_path_seed(1, 0) != core.derive_path_seed(2, 0)

    def test_injective_over_large_index_range(self):
        idx = np.arange(2**20, dtype=np.uint64)
        seeds = core.derive_path_seed(987654321, idx)
        assert np.unique(seeds).size == idx.size

    def test_scalar_and_vector_agree(self):
        vec = core.derive_path_seed(5, np.arange(10))
        for i in range(10):
            assert core.derive_path_seed(5, i) == int(vec[i])


class TestControlBox:
    def test_clamp(self):
        box = core.ControlBox(lower=[-1.0, 0.0], upper=[1.0, 2.0])
        u = np.array([[5.0, -5.0], [1.0, 3.0]])
        clamped = box.clamp(u)
        assert np.all(clamped[0] == [1.0, -1.0])
        assert np.all(clamped[1] == [1.0, 2.0])

    def test_bad_bounds_rejected(self):
        with pytest.raises(core.ConfigError):
            core.ControlBox(lower=[1.0], upper=[0.0])

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_non_finite_bound_rejected(self, side, value):
        bounds = {"lower": [0.0, 0.0], "upper": [1.0, 1.0]}
        bounds[side][1] = value
        with pytest.raises(core.ConfigError, match="must be finite"):
            core.ControlBox(**bounds)


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(core.ConfigError):
            core.SimConfig(n_steps=0, n_paths=1, master_seed=0)
        with pytest.raises(core.ConfigError):
            core.SimConfig(n_steps=1, n_paths=0, master_seed=0)

    def test_grid_alignment(self):
        params = core.ModelParams(lam=0.1, delta=1.0, horizon_T=1.0)
        cfg = core.SimConfig(n_steps=64, n_paths=1, master_seed=0)
        assert cfg.validate_grid(params) == 64
        short = core.ModelParams(lam=0.1, delta=0.5, horizon_T=1.0)
        bad = core.SimConfig(n_steps=33, n_paths=1, master_seed=0)
        with pytest.raises(core.ConfigError):
            bad.validate_grid(short)
