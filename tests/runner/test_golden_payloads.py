"""Golden payload hashes for the whole capture path, under both backends.

The SHA-256 of every payload the capture path can produce is pinned in
``tests/data/golden_payloads.json``. The hashes were recorded from the
one-unit-at-a-time serial path (``execute_unit``, ``ISPPipeline.process``,
``encode_jpeg``/``decode_jpeg``), so they carry the batch == serial
evidence independently of any serial code: a batched or fused path that
changes one bit of any of these outputs fails here.

Covered, on a small seeded radiance field:

* every ``capture_fleet()`` profile, for each unit kind: ``photograph``
  (default codec, three repeats, and each ``format_override``), ``raw``,
  ``raw_vs_jpeg``, and ``develop`` for every ``available_isps()`` entry
  x {no codec, jpeg, png, webp, heif};
* ``decode_jpeg`` under all 12 :class:`JpegDecodeOptions` combinations,
  for 4:2:0 and 4:4:4 files of a non-block-aligned image;
* an ISP batch mixing black levels and one mixing Bayer patterns;
* the ``codec.*`` counters a fleet of photograph units emits.

The digests cover float32 ISP arithmetic (SciPy filters, NumPy
``power``/``matmul``), so they belong to the NumPy/SciPy builds they were
recorded with; on a platform whose builds round differently, record
them again from a known-good commit there before trusting a mismatch.

Regenerate intentionally with::

    PYTHONPATH=src python -m pytest tests/runner/test_golden_payloads.py --regen-golden
"""

import hashlib
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from repro import kernels, obs
from repro.codecs.jpeg import (
    JpegDecodeOptions,
    decode_jpeg,
    encode_jpeg,
    jpeg_roundtrip_batch,
)
from repro.devices import capture_fleet
from repro.devices.phone import Phone
from repro.imaging.image import ImageBuffer, RawImage
from repro.isp.profiles import available_isps
from repro.runner import FleetExecutor, execute_unit, unit_entropy
from repro.runner.units import CaptureUnit, execute_unit_group

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "data" / "golden_payloads.json"

BACKENDS = ("reference", "fast")
CODECS = ("jpeg", "png", "webp", "heif")
PHOTO_REPEATS = 3
COUNTER_REPEATS = 2


def _radiance() -> np.ndarray:
    """A smooth seeded 24x24 radiance field (the sensor resamples it)."""
    from scipy import ndimage

    rng = np.random.default_rng(13)
    field = ndimage.gaussian_filter(rng.random((24, 24, 3)), (2, 2, 0))
    field = (field - field.min()) / (field.max() - field.min())
    return np.ascontiguousarray(0.05 + 0.9 * field, dtype=np.float32)


RADIANCE = _radiance()


def _digest_arrays(arrays) -> str:
    h = hashlib.sha256()
    for name in sorted(arrays):
        value = np.ascontiguousarray(np.asarray(arrays[name]))
        h.update(f"{name}|{value.dtype.str}|{value.shape}|".encode())
        h.update(value.tobytes())
    return h.hexdigest()


def _digest_pixels(image: ImageBuffer) -> str:
    return _digest_arrays({"pixels": image.pixels})


def _capture_unit(profile, kind, repeat=0, **options) -> CaptureUnit:
    return CaptureUnit(
        kind=kind,
        profile=profile,
        radiance=RADIANCE,
        entropy=unit_entropy(0, profile.name, "golden_scene", repeat),
        options=options,
    )


def _unit_table():
    """``{name: [units]}``; a multi-unit entry is one fusable group."""
    table = {}
    for profile in capture_fleet():
        p = profile.name
        table[f"{p}/photograph"] = [
            _capture_unit(profile, "photograph", r) for r in range(PHOTO_REPEATS)
        ]
        for fmt in CODECS:
            table[f"{p}/photograph/{fmt}"] = [
                _capture_unit(profile, "photograph", format_override=fmt)
            ]
        table[f"{p}/raw"] = [_capture_unit(profile, "raw")]
        table[f"{p}/raw_vs_jpeg"] = [_capture_unit(profile, "raw_vs_jpeg")]
    return table


def _develop_units(raw_payloads):
    table = {}
    for profile_name, raw in raw_payloads.items():
        for isp in available_isps():
            for codec in (None,) + CODECS:
                options = {"isp": isp}
                if codec is not None:
                    options["codec"] = codec
                name = f"{profile_name}/develop/{isp}/{codec or 'none'}"
                table[name] = [CaptureUnit(kind="develop", raw=raw, options=options)]
    return table


def _jpeg_sources():
    rng = np.random.default_rng(31)
    base = np.add.outer(np.arange(45) * 5, np.arange(38) * 3)[..., None]
    rgb = (base + rng.integers(0, 48, size=(45, 38, 3))) % 256
    return ImageBuffer.from_uint8(rgb.astype(np.uint8))


def _decode_options():
    return [
        JpegDecodeOptions(idct=idct, rounding=rounding, chroma_upsample=upsample)
        for idct, rounding, upsample in itertools.product(
            ("float", "fixed11", "fixed8"), ("round", "truncate"), ("bilinear", "nearest")
        )
    ]


def _options_key(options: JpegDecodeOptions) -> str:
    return f"{options.idct}/{options.rounding}/{options.chroma_upsample}"


def _mixed_raws():
    """Two ISP batches the stages must handle item by item."""
    rng = np.random.default_rng(2)
    mosaics = [rng.random((16, 16)).astype(np.float32) for _ in range(3)]
    black = [
        RawImage(
            mosaic=m, pattern="RGGB", black_level=bl, white_level=1023,
            wb_gains=(2.0, 1.0, 1.5),
        )
        for m, bl in zip(mosaics, (64, 32, 64))
    ]
    patterns = [
        RawImage(
            mosaic=m, pattern=pattern, black_level=0.0625, white_level=1.0,
            wb_gains=(1.8, 1.0, 1.4),
        )
        for m, pattern in zip(mosaics, ("RGGB", "BGGR", "GRBG"))
    ]
    return {"mixed_black_level": black, "mixed_pattern": patterns}


def _counter_units():
    return [
        _capture_unit(profile, "photograph", r)
        for profile in capture_fleet()
        for r in range(COUNTER_REPEATS)
    ]


def _codec_accounting(snapshot) -> dict:
    counters = {
        name: value
        for name, value in snapshot["counters"].items()
        if name.startswith("codec.") or name == "fleet.units_executed"
    }
    return {
        "counters": dict(sorted(counters.items())),
        "encoded_size": snapshot["histograms"]["codec.encoded_size"],
    }


def _observed_accounting(executor: FleetExecutor) -> dict:
    with obs.observed() as ob:
        executor.run(_counter_units())
    return _codec_accounting(ob.metrics.snapshot())


def _serial_digests() -> dict:
    """Every golden digest, computed one item at a time."""
    payloads = {}
    table = _unit_table()
    for name, units in table.items():
        for i, unit in enumerate(units):
            payloads[name if len(units) == 1 else f"{name}#{i}"] = execute_unit(unit)
    raws = {p.name: payloads[f"{p.name}/raw"] for p in capture_fleet()}
    for name, units in _develop_units(raws).items():
        payloads[name] = execute_unit(units[0])
    digests = {f"unit/{k}": _digest_arrays(v) for k, v in payloads.items()}

    image = _jpeg_sources()
    for subsampling in ("4:2:0", "4:4:4"):
        data = encode_jpeg(image, quality=85, subsampling=subsampling)
        digests[f"jpeg/{subsampling}/bytes"] = hashlib.sha256(data).hexdigest()
        for options in _decode_options():
            decoded = decode_jpeg(data, options)
            digests[f"jpeg/{subsampling}/{_options_key(options)}"] = _digest_pixels(decoded)

    phone = Phone(capture_fleet()[0])
    for batch_name, raws in _mixed_raws().items():
        for i, raw in enumerate(raws):
            digests[f"isp/{batch_name}#{i}"] = _digest_pixels(phone.isp.process(raw))
    return dict(sorted(digests.items()))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_regen_golden_payloads(regen_golden):
    """With ``--regen-golden``, rewrite the file from the serial path."""
    if not regen_golden:
        pytest.skip("pass --regen-golden to rewrite tests/data/golden_payloads.json")
    with kernels.use_backend("reference"):
        digests = _serial_digests()
        accounting = _observed_accounting(FleetExecutor(workers=0, batched=False))
    with kernels.use_backend("fast"):
        assert _serial_digests() == digests, "backends diverge"
    GOLDEN_PATH.write_text(
        json.dumps(
            {"digests": digests, "codec_accounting": accounting},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_serial_payloads_match_golden(backend, golden):
    with kernels.use_backend(backend):
        digests = _serial_digests()
    assert digests.keys() == golden["digests"].keys()
    mismatched = [k for k, v in digests.items() if golden["digests"][k] != v]
    assert not mismatched, f"{len(mismatched)} payloads drifted: {mismatched[:8]}"


@pytest.mark.parametrize("backend", BACKENDS)
def test_grouped_payloads_match_golden(backend, golden):
    """Fused groups and batched helpers land on the serial hashes."""
    expected = golden["digests"]
    with kernels.use_backend(backend):
        for name, units in _unit_table().items():
            if len(units) == 1:
                continue
            for i, payload in enumerate(execute_unit_group(units)):
                assert _digest_arrays(payload) == expected[f"unit/{name}#{i}"], name

        image = _jpeg_sources()
        for subsampling in ("4:2:0", "4:4:4"):
            for options in _decode_options():
                pairs = jpeg_roundtrip_batch(
                    [image, image], quality=85, subsampling=subsampling, options=options
                )
                for data, decoded in pairs:
                    key = f"jpeg/{subsampling}"
                    assert hashlib.sha256(data).hexdigest() == expected[f"{key}/bytes"]
                    assert (
                        _digest_pixels(decoded)
                        == expected[f"{key}/{_options_key(options)}"]
                    )

        phone = Phone(capture_fleet()[0])
        for batch_name, raws in _mixed_raws().items():
            for i, image in enumerate(phone.isp.process_batch(raws)):
                assert _digest_pixels(image) == expected[f"isp/{batch_name}#{i}"]


@pytest.mark.parametrize("batched", (True, False))
def test_codec_accounting_matches_golden(batched, golden):
    """Fused groups emit the codec counters the per-unit path did."""
    accounting = _observed_accounting(FleetExecutor(workers=0, batched=batched))
    assert accounting == golden["codec_accounting"]
