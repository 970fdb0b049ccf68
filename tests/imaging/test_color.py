"""Tests for color-space conversions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.imaging import color


def _rgb_arrays(max_side=6):
    return arrays(
        np.float32,
        st.tuples(
            st.integers(1, max_side), st.integers(1, max_side), st.just(3)
        ),
        elements=st.floats(0.0, 1.0, width=32),
    )


class TestYCbCr:
    def test_white_maps_to_unit_luma(self):
        ycc = color.rgb_to_ycbcr(np.ones((1, 1, 3), dtype=np.float32))
        assert ycc[0, 0, 0] == pytest.approx(1.0, abs=1e-6)
        assert abs(ycc[0, 0, 1]) < 1e-6 and abs(ycc[0, 0, 2]) < 1e-6

    def test_black_maps_to_zero(self):
        ycc = color.rgb_to_ycbcr(np.zeros((1, 1, 3), dtype=np.float32))
        assert np.allclose(ycc, 0.0, atol=1e-7)

    @given(_rgb_arrays())
    @settings(max_examples=50, deadline=None)
    def test_roundtrip(self, rgb):
        back = color.ycbcr_to_rgb(color.rgb_to_ycbcr(rgb))
        assert np.allclose(back, rgb, atol=1e-4)

    def test_red_has_positive_cr(self):
        ycc = color.rgb_to_ycbcr(np.array([[[1.0, 0.0, 0.0]]], dtype=np.float32))
        assert ycc[0, 0, 2] > 0.4


class TestHSV:
    @pytest.mark.parametrize(
        "rgb,expected_h",
        [((1, 0, 0), 0.0), ((0, 1, 0), 1 / 3), ((0, 0, 1), 2 / 3)],
    )
    def test_primary_hues(self, rgb, expected_h):
        hsv = color.rgb_to_hsv(np.array([[rgb]], dtype=np.float32))
        assert hsv[0, 0, 0] == pytest.approx(expected_h, abs=1e-5)
        assert hsv[0, 0, 1] == pytest.approx(1.0)
        assert hsv[0, 0, 2] == pytest.approx(1.0)

    def test_gray_has_zero_saturation(self):
        hsv = color.rgb_to_hsv(np.full((2, 2, 3), 0.5, dtype=np.float32))
        assert np.allclose(hsv[..., 1], 0.0)

    @given(_rgb_arrays())
    @settings(max_examples=50, deadline=None)
    def test_roundtrip(self, rgb):
        back = color.hsv_to_rgb(color.rgb_to_hsv(rgb))
        assert np.allclose(back, rgb, atol=1e-4)


class TestSRGB:
    @given(arrays(np.float32, (4, 4), elements=st.floats(0.0, 1.0, width=32)))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip(self, linear):
        back = color.srgb_decode(color.srgb_encode(linear))
        assert np.allclose(back, linear, atol=1e-5)

    def test_monotonic(self):
        xs = np.linspace(0, 1, 101, dtype=np.float32)
        ys = color.srgb_encode(xs)
        assert np.all(np.diff(ys) > 0)

    def test_encode_brightens_midtones(self):
        assert color.srgb_encode(np.float32(0.18)) > 0.18


class TestColorMatrix:
    def test_identity(self):
        rgb = np.random.default_rng(0).random((3, 3, 3)).astype(np.float32)
        out = color.apply_color_matrix(rgb, np.eye(3))
        assert np.allclose(out, rgb)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            color.apply_color_matrix(np.zeros((2, 2, 3)), np.eye(4))

    def test_channel_swap(self):
        swap = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=np.float32)
        rgb = np.array([[[0.2, 0.7, 0.1]]], dtype=np.float32)
        out = color.apply_color_matrix(rgb, swap)
        assert np.allclose(out, [[[0.7, 0.2, 0.1]]])


class TestWhiteBalance:
    def test_gray_world_on_neutral_image(self):
        rgb = np.full((4, 4, 3), 0.5, dtype=np.float32)
        gains = color.gray_world_gains(rgb)
        assert np.allclose(gains, 1.0)

    def test_gray_world_corrects_cast(self):
        rng = np.random.default_rng(1)
        rgb = rng.random((8, 8, 3)).astype(np.float32)
        rgb[..., 0] *= 0.5  # red-deficient cast
        gains = color.gray_world_gains(rgb)
        balanced = color.apply_wb_gains_batch(rgb[None], gains[None])[0]
        means = balanced.reshape(-1, 3).mean(axis=0)
        assert means[0] == pytest.approx(means[1], rel=1e-4)

    def test_apply_wb_rejects_bad_gains(self):
        with pytest.raises(ValueError):
            color.apply_wb_gains_batch(
                np.zeros((1, 2, 2, 3), np.float32), np.ones((1, 2), np.float32)
            )


def test_luminance_weights():
    lum = color.luminance(np.array([[[1.0, 1.0, 1.0]]], dtype=np.float32))
    assert lum[0, 0] == pytest.approx(1.0, abs=1e-5)
    green = color.luminance(np.array([[[0, 1.0, 0]]], dtype=np.float32))
    red = color.luminance(np.array([[[1.0, 0, 0]]], dtype=np.float32))
    assert green[0, 0] > red[0, 0]
