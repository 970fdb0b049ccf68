"""Batched sensor capture: frame ``i`` of an N-batch equals a batch of one.

``BayerSensor.capture(radiance, rng)`` is ``capture_batch(radiance,
[rng])[0]``, so ``capture_batch(radiance, rngs)`` must reproduce, frame
for frame, exactly what each generator yields alone — same mosaic bytes,
same white-balance gains — for every fleet profile. The noise model's
``apply_batch`` carries the same contract at the mosaic level, including
the per-generator draw order that makes this hold.
"""

import numpy as np
import pytest

from repro.devices import capture_fleet
from repro.devices.phone import Phone
from repro.imaging.image import ImageBuffer


@pytest.fixture(scope="module")
def radiance(small_radiance_sensor):
    return small_radiance_sensor


@pytest.fixture(scope="module")
def small_radiance_sensor():
    from scipy import ndimage

    rng = np.random.default_rng(21)
    field = ndimage.gaussian_filter(rng.random((48, 48, 3)), (3, 3, 0))
    field = (field - field.min()) / (field.max() - field.min())
    return ImageBuffer(field.astype(np.float32))


@pytest.mark.parametrize("profile", capture_fleet(), ids=lambda p: p.name)
def test_capture_batch_matches_serial(profile, radiance):
    phone = Phone(profile)
    serial = [
        phone.capture_raw(radiance, np.random.default_rng((5, r))) for r in range(4)
    ]
    batch = phone.capture_raw_batch(
        radiance, [np.random.default_rng((5, r)) for r in range(4)]
    )
    assert len(batch) == len(serial)
    for one, many in zip(serial, batch):
        assert one.mosaic.dtype == many.mosaic.dtype
        assert one.mosaic.tobytes() == many.mosaic.tobytes()
        assert one.pattern == many.pattern
        assert one.black_level == many.black_level
        assert one.white_level == many.white_level
        assert one.wb_gains == many.wb_gains


def test_capture_batch_empty(radiance):
    phone = Phone(capture_fleet()[0])
    assert phone.capture_raw_batch(radiance, []) == []


def test_noise_apply_batch_matches_serial():
    for profile in capture_fleet():
        noise = profile.sensor.noise
        rng = np.random.default_rng(3)
        signal = rng.random((32, 32)).astype(np.float32)
        serial = np.stack(
            [
                noise.apply_batch(signal, [np.random.default_rng((9, r))])[0]
                for r in range(5)
            ]
        )
        batch = noise.apply_batch(
            signal, [np.random.default_rng((9, r)) for r in range(5)]
        )
        assert batch.dtype == np.float32
        assert serial.tobytes() == batch.tobytes()


def test_noise_apply_batch_empty():
    noise = capture_fleet()[0].sensor.noise
    out = noise.apply_batch(np.zeros((8, 8), np.float32), [])
    assert out.shape == (0, 8, 8) and out.dtype == np.float32
