"""Tests for the sensor noise models."""

import numpy as np
import pytest

from repro.sensor.noise import SensorNoiseModel


def _noisy(model, signal, rng):
    """One capture's noisy mosaic: a batch of one generator."""
    return model.apply_batch(signal, [rng])[0]


class TestValidation:
    def test_rejects_nonpositive_full_well(self):
        with pytest.raises(ValueError):
            SensorNoiseModel(full_well_electrons=0)

    @pytest.mark.parametrize(
        "field", ["read_noise", "dark_current", "prnu", "row_noise"]
    )
    def test_rejects_negative(self, field):
        with pytest.raises(ValueError):
            SensorNoiseModel(**{field: -0.01})


class TestPrnu:
    def test_fixed_pattern_is_deterministic(self):
        model = SensorNoiseModel(seed=3)
        a = model.prnu_map(16, 16)
        b = model.prnu_map(16, 16)
        assert np.array_equal(a, b)

    def test_different_sensors_different_pattern(self):
        a = SensorNoiseModel(seed=1).prnu_map(16, 16)
        b = SensorNoiseModel(seed=2).prnu_map(16, 16)
        assert not np.array_equal(a, b)

    def test_prnu_magnitude(self):
        model = SensorNoiseModel(prnu=0.01, seed=0)
        gain = model.prnu_map(200, 200)
        assert gain.std() == pytest.approx(0.01, rel=0.1)
        assert gain.mean() == pytest.approx(1.0, abs=1e-3)


class TestTemporalNoise:
    def test_repeat_captures_differ(self):
        model = SensorNoiseModel()
        signal = np.full((32, 32), 0.5, dtype=np.float32)
        rng = np.random.default_rng(0)
        a = _noisy(model, signal, rng)
        b = _noisy(model, signal, rng)
        assert not np.array_equal(a, b)

    def test_same_rng_state_reproduces(self):
        model = SensorNoiseModel()
        signal = np.full((32, 32), 0.5, dtype=np.float32)
        a = _noisy(model, signal, np.random.default_rng(7))
        b = _noisy(model, signal, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_shot_noise_scales_with_signal(self):
        """Photon statistics: brighter signal, more absolute noise."""
        model = SensorNoiseModel(read_noise=0.0, dark_current=0.0, prnu=0.0, row_noise=0.0)
        rng = np.random.default_rng(0)
        dark = _noisy(model, np.full((256, 256), 0.05, dtype=np.float32), rng)
        bright = _noisy(model, np.full((256, 256), 0.8, dtype=np.float32), rng)
        assert bright.std() > dark.std() * 2

    def test_dark_current_offsets(self):
        model = SensorNoiseModel(
            read_noise=0.0, dark_current=0.01, prnu=0.0, row_noise=0.0,
            full_well_electrons=1e9,  # suppress shot noise
        )
        out = _noisy(model, np.zeros((64, 64), dtype=np.float32), np.random.default_rng(0))
        assert out.mean() == pytest.approx(0.01, abs=1e-3)

    def test_row_noise_is_row_correlated(self):
        model = SensorNoiseModel(
            read_noise=0.0, dark_current=0.0, prnu=0.0, row_noise=0.01,
            full_well_electrons=1e12,
        )
        out = _noisy(model, np.zeros((64, 64), dtype=np.float32), np.random.default_rng(0))
        # Within a row the offset is constant.
        assert np.allclose(out.std(axis=1), 0.0, atol=1e-6)
        assert out.std() > 0.005

    def test_noiseless_configuration_is_identity_plus_prnu(self):
        model = SensorNoiseModel(
            read_noise=0.0, dark_current=0.0, prnu=0.0, row_noise=0.0,
            full_well_electrons=1e15,
        )
        signal = np.random.default_rng(1).random((16, 16)).astype(np.float32)
        out = _noisy(model, signal, np.random.default_rng(0))
        assert np.allclose(out, signal, atol=1e-4)
