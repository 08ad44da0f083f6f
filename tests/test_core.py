"""Delay buffer, parameter validation, and seed derivation."""

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
        with pytest.raises(core.InvalidStateError):
            core.ModelParams(lam=-0.1, delta=1.0, horizon_T=1.0)

    def test_negative_delta_rejected(self):
        with pytest.raises(core.InvalidStateError):
            core.ModelParams(lam=0.1, delta=-1.0, horizon_T=1.0)

    def test_bad_time_window_rejected(self):
        with pytest.raises(core.InvalidStateError):
            core.ModelParams(lam=0.1, delta=1.0, horizon_T=0.0, start_s=0.5)


class TestDelayBuffer:
    def test_constant_path_moving_average(self):
        # Oracle: int_{-d}^{0} e^{l tau} c dtau = c (1 - e^{-l d}) / l.
        lam, delta, c = 0.1, 1.0, 2.0
        buf = core.DelayBuffer.from_initial_path(lambda tau: c, delta, delta / 512)
        exact = c * (1.0 - math.exp(-lam * delta)) / lam
        assert core.x1_of_buffer(buf, lam) == pytest.approx(exact, abs=1e-6)

    def test_linear_path_moving_average(self):
        # Oracle: int e^{l tau} (a + b tau) dtau evaluated in closed form.
        lam, delta, a, b = 0.3, 0.5, 1.0, -2.0
        el = math.exp(-lam * delta)
        exact = a * (1.0 - el) / lam + b * ((el - 1.0) / lam**2 + delta * el / lam)
        buf = core.DelayBuffer.from_initial_path(
            lambda tau: a + b * tau, delta, delta / 1024
        )
        assert core.x1_of_buffer(buf, lam) == pytest.approx(exact, abs=1e-6)

    def test_quadrature_error_second_order(self):
        lam, delta = 0.4, 1.0
        exact = (1.0 - math.exp(-lam * delta)) / lam

        def err(n):
            buf = core.DelayBuffer.from_initial_path(lambda tau: 1.0, delta, delta / n)
            return abs(core.x1_of_buffer(buf, lam) - exact)

        assert err(64) / err(128) == pytest.approx(4.0, rel=0.05)

    def test_x2_is_oldest_sample(self):
        buf = core.DelayBuffer.from_initial_path(lambda tau: tau, 1.0, 0.25)
        assert buf.samples[0] == pytest.approx(-1.0)

    def test_zero_delay_degenerates(self):
        buf = core.DelayBuffer.from_initial_path(lambda tau: 3.0, 0.0, 0.1)
        assert buf.samples.size == 1
        assert core.x1_of_buffer(buf, 0.5) == 0.0
        assert buf.samples[0] == pytest.approx(3.0)

    def test_misaligned_step_rejected(self):
        with pytest.raises(core.ConfigError):
            core.DelayBuffer.from_initial_path(lambda tau: 1.0, 1.0, 0.3)


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
        with pytest.raises(core.InvalidStateError):
            core.ControlBox(lower=[1.0], upper=[0.0])


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(core.ConfigError):
            core.SimConfig(n_steps=0, n_paths=1, master_seed=0)
        with pytest.raises(core.ConfigError):
            core.SimConfig(n_steps=1, n_paths=0, master_seed=0)
        with pytest.raises(core.ConfigError):
            core.SimConfig(n_steps=1, n_paths=1, master_seed=0, x1_method="other")

    def test_grid_alignment(self):
        params = core.ModelParams(lam=0.1, delta=1.0, horizon_T=1.0)
        cfg = core.SimConfig(n_steps=64, n_paths=1, master_seed=0)
        assert cfg.validate_grid(params) == 64
        short = core.ModelParams(lam=0.1, delta=0.5, horizon_T=1.0)
        bad = core.SimConfig(n_steps=33, n_paths=1, master_seed=0)
        with pytest.raises(core.ConfigError):
            bad.validate_grid(short)
