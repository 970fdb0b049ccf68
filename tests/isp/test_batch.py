"""Batched ISP development: item ``i`` of an N-batch equals a batch of one.

``ISPPipeline.process_batch`` stacks the raw mosaics on a leading batch
axis and runs every stage over the whole stack; ``process(raw)`` is a
batch of one through the same stages. Each item must come out byte for
byte as it does alone, including when items carry different black
levels or Bayer patterns (per-item parameters broadcast over the batch
axis). ``tests/runner/test_golden_payloads.py`` pins the same outputs to
hashes recorded from the former one-capture-at-a-time stage bodies.
"""

import numpy as np
import pytest

from repro.devices import capture_fleet
from repro.devices.phone import Phone
from repro.imaging.image import ImageBuffer, RawImage
from repro.isp.pipeline import ISPPipeline
from repro.isp.stages import ISPStage, ISPState


@pytest.fixture(scope="module")
def raws_by_profile():
    """Four repeat captures per fleet profile (distinct noise draws)."""
    from scipy import ndimage

    rng = np.random.default_rng(17)
    field = ndimage.gaussian_filter(rng.random((48, 48, 3)), (3, 3, 0))
    field = (field - field.min()) / (field.max() - field.min())
    radiance = ImageBuffer(field.astype(np.float32))
    out = {}
    for profile in capture_fleet():
        phone = Phone(profile)
        out[profile.name] = (
            phone,
            [phone.capture_raw(radiance, np.random.default_rng((4, r))) for r in range(4)],
        )
    return out


@pytest.mark.parametrize("name", [p.name for p in capture_fleet()])
def test_process_batch_matches_serial(name, raws_by_profile):
    """Each item of a four-capture batch equals ``develop`` (a batch of one)."""
    phone, raws = raws_by_profile[name]
    serial = [phone.develop(raw) for raw in raws]
    batch = phone.develop_batch(raws)
    assert len(batch) == len(serial)
    for one, many in zip(serial, batch):
        assert one.pixels.dtype == many.pixels.dtype
        assert one.pixels.tobytes() == many.pixels.tobytes()


def test_process_batch_empty(raws_by_profile):
    phone, _ = raws_by_profile[capture_fleet()[0].name]
    assert phone.isp.process_batch([]) == []


def test_state_from_raws_stacks_the_batch(raws_by_profile):
    _, raws = raws_by_profile[capture_fleet()[0].name]
    state = ISPState.from_raws(raws)
    assert len(state) == len(raws)
    assert state.mosaic.shape == (len(raws),) + raws[0].mosaic.shape
    assert state.mosaic.dtype == np.float32
    for i, raw in enumerate(raws):
        assert state.mosaic[i].tobytes() == raw.mosaic.astype(np.float32).tobytes()
    assert state.per_item([r.black_level for r in raws]).shape == (len(raws), 1, 1)


class _NegateStage(ISPStage):
    """A custom stage written against the batched state."""

    name = "negate"

    def process(self, state):
        rgb = state.require_rgb()
        state.rgb = np.float32(1.0) - rgb
        return state


def test_custom_stage_uses_fallback(raws_by_profile):
    """A custom stage needs only ``process``; batches of N and of one agree."""
    phone, raws = raws_by_profile[capture_fleet()[0].name]
    stages = list(phone.isp.stages) + [_NegateStage()]
    pipeline = ISPPipeline(stages, name="custom_with_negate")
    serial = [pipeline.process(raw) for raw in raws]
    batch = pipeline.process_batch(raws)
    for one, many in zip(serial, batch):
        assert one.pixels.tobytes() == many.pixels.tobytes()


def test_mixed_raw_geometry_falls_back():
    """Batches mixing black levels or Bayer patterns develop per item."""
    from repro.isp.profiles import build_isp

    rng = np.random.default_rng(2)
    mosaics = [rng.random((16, 16)).astype(np.float32) for _ in range(3)]
    mixed_black = [
        RawImage(
            mosaic=m,
            pattern="RGGB",
            black_level=bl,
            white_level=1.0,
            wb_gains=(2.0, 1.0, 1.5),
        )
        for m, bl in zip(mosaics, (0.25, 0.0625, 0.25))
    ]
    mixed_pattern = [
        RawImage(mosaic=m, pattern=p, black_level=0.0625, wb_gains=(1.8, 1.0, 1.4))
        for m, p in zip(mosaics, ("RGGB", "BGGR", "GBRG"))
    ]
    for isp in ("samsung_s10", "lg_k10"):  # malvar and bilinear demosaic
        pipeline = build_isp(isp, 16, 16)
        for raws in (mixed_black, mixed_pattern):
            alone = [pipeline.process(raw) for raw in raws]
            batch = pipeline.process_batch(raws)
            for one, many in zip(alone, batch):
                assert one.pixels.tobytes() == many.pixels.tobytes()
