"""ISP pipeline stages.

An image signal processor turns raw sensor data into a display-referred
image through a sequence of stages (paper §6 lists the common ones:
color correction, lens correction, demosaicing, noise reduction). Each
stage here transforms an :class:`ISPState` — always a batch, with one
capture as a batch of one — and :mod:`repro.isp.pipeline` chains them.

Stage parameterization is the mechanism for modeling *different vendors'
ISPs*: the same stage classes with different parameters (demosaic
algorithm, tone-curve strength, CCM, sharpening) produce visibly and —
downstream of a classifier — behaviourally different images from
identical raw input, which the paper measures as 14.11% instability
(Table 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np
from scipy import ndimage

from ..imaging.color import (
    apply_color_matrix,
    apply_wb_gains_batch,
    gray_world_gains_batch,
    srgb_encode,
)
from ..imaging.image import BAYER_PATTERNS, RawImage
from ..imaging.ops import bilinear_resize_batch, gaussian_blur_batch, unsharp_mask_batch
from ..lint.contracts import tensor_contract

__all__ = [
    "ISPState",
    "ISPStage",
    "BlackLevelCorrection",
    "Demosaic",
    "WhiteBalance",
    "ColorCorrection",
    "ToneMap",
    "GammaEncode",
    "Denoise",
    "Sharpen",
    "Resize",
]


@dataclass
class ISPState:
    """A batch of raw captures flowing through the pipeline together.

    Starts with ``mosaic`` set to the ``(N, H, W)`` stack of raw mosaics
    (and ``rgb`` None); the demosaic stage populates ``rgb`` as
    ``(N, H, W, 3)`` and later stages refine it. ``raws`` keeps each
    item's calibration metadata, which may differ between items (black
    level, Bayer pattern, as-shot gains): stages read it as per-item
    parameters broadcast over the batch axis. One capture is a batch of
    one. The invariant every stage upholds: item ``i`` of the output
    depends on item ``i`` of the input alone.
    """

    raws: List[RawImage]
    mosaic: Optional[np.ndarray] = None
    rgb: Optional[np.ndarray] = None

    @classmethod
    def from_raws(cls, raws: Sequence[RawImage]) -> "ISPState":
        raws = list(raws)
        return cls(raws=raws, mosaic=np.stack([raw.mosaic.astype(np.float32) for raw in raws]))

    def __len__(self) -> int:
        return len(self.raws)

    def require_mosaic(self) -> np.ndarray:
        if self.mosaic is None:
            raise RuntimeError("stage requires mosaic-domain data (before demosaic)")
        return self.mosaic

    def require_rgb(self) -> np.ndarray:
        if self.rgb is None:
            raise RuntimeError("stage requires RGB-domain data (after demosaic)")
        return self.rgb

    def per_item(self, values: Sequence[float]) -> np.ndarray:
        """One float32 scalar per item, shaped ``(N, 1, 1)`` to broadcast
        over the mosaic stack (a Python float meets a float32 array as
        float32 too, so this is the single-capture arithmetic)."""
        return np.asarray(values, dtype=np.float32).reshape(-1, 1, 1)


class ISPStage:
    """Base class: stages transform an :class:`ISPState` and are stateless.

    A stage implements ``process(state)`` over the whole batch. The
    built-in stages also bind ``process_batch`` to the same body, the
    name the per-layer benchmark ledger (``perfbench/layers.py``) times.
    """

    def process(self, state: ISPState) -> ISPState:  # pragma: no cover - abstract
        raise NotImplementedError

    @property
    def name(self) -> str:
        return type(self).__name__


@dataclass
class BlackLevelCorrection(ISPStage):
    """Subtract the pedestal and normalize to [0, 1] sensor range."""

    def process(self, state: ISPState) -> ISPState:
        mosaic = state.require_mosaic()
        black = state.per_item([raw.black_level for raw in state.raws])
        span = state.per_item([raw.white_level - raw.black_level for raw in state.raws])
        state.mosaic = np.clip((mosaic - black) / span, 0.0, 1.0)
        return state

    process_batch = process


def _channel_maps(raws: Sequence[RawImage], height: int, width: int) -> np.ndarray:
    """Each item's CFA channel map: ``(1, H, W)`` when the batch shares
    one Bayer pattern (broadcast over it), else ``(N, H, W)``."""
    patterns = [raw.pattern for raw in raws]
    maps = {
        pattern: np.tile(BAYER_PATTERNS[pattern], (height // 2, width // 2))
        for pattern in dict.fromkeys(patterns)
    }
    if len(maps) == 1:
        return maps[patterns[0]][None]
    return np.stack([maps[pattern] for pattern in patterns])


_BILINEAR_KERNEL = np.array([[[0.25, 0.5, 0.25], [0.5, 1.0, 0.5], [0.25, 0.5, 0.25]]])


@tensor_contract("(N, ?, ?) float32, _ -> (N, ?, ?, ?) float32")
def _bilinear_demosaic(mosaic: np.ndarray, channel_map: np.ndarray) -> np.ndarray:
    """Normalized-convolution bilinear demosaic of ``(N, H, W)`` mosaics.

    The ``(1, 3, 3)`` kernel filters each item's spatial plane on its
    own: the batch axis never mixes.
    """
    n, h, w = mosaic.shape
    rgb = np.empty((n, h, w, 3), dtype=np.float32)
    for c in range(3):
        mask = (channel_map == c).astype(np.float32)
        values = ndimage.convolve(mosaic * mask, _BILINEAR_KERNEL, mode="mirror")
        weights = ndimage.convolve(mask, _BILINEAR_KERNEL, mode="mirror")
        rgb[..., c] = values / np.maximum(weights, 1e-8)
    return rgb


# Malvar-He-Cutler 2004 gradient-corrected kernels, x 1/8.
_MALVAR_G_AT_RB = np.array(
    [
        [0, 0, -1, 0, 0],
        [0, 0, 2, 0, 0],
        [-1, 2, 4, 2, -1],
        [0, 0, 2, 0, 0],
        [0, 0, -1, 0, 0],
    ],
    dtype=np.float64,
) / 8.0

_MALVAR_RB_AT_G_SAME_ROW = np.array(
    [
        [0, 0, 0.5, 0, 0],
        [0, -1, 0, -1, 0],
        [-1, 4, 5, 4, -1],
        [0, -1, 0, -1, 0],
        [0, 0, 0.5, 0, 0],
    ],
    dtype=np.float64,
) / 8.0

_MALVAR_RB_AT_G_SAME_COL = _MALVAR_RB_AT_G_SAME_ROW.T

_MALVAR_RB_AT_OPPOSITE = np.array(
    [
        [0, 0, -1.5, 0, 0],
        [0, 2, 0, 2, 0],
        [-1.5, 0, 6, 0, -1.5],
        [0, 2, 0, 2, 0],
        [0, 0, -1.5, 0, 0],
    ],
    dtype=np.float64,
) / 8.0


@tensor_contract("(N, ?, ?) float32, _ -> (N, ?, ?, ?) float32")
def _malvar_demosaic(mosaic: np.ndarray, channel_map: np.ndarray) -> np.ndarray:
    """Malvar-He-Cutler gradient-corrected linear demosaic.

    Sharper than bilinear with characteristic edge behaviour — exactly the
    kind of algorithmic choice that distinguishes one vendor ISP from
    another. Works on ``(N, H, W)`` mosaics; each ``(1, 5, 5)`` kernel
    filters one item's plane at a time.
    """
    w = mosaic.shape[2]
    m = mosaic.astype(np.float64)

    conv = lambda kern: ndimage.convolve(m, kern[None], mode="mirror")  # noqa: E731
    g_at_rb = conv(_MALVAR_G_AT_RB)
    rb_same_row = conv(_MALVAR_RB_AT_G_SAME_ROW)
    rb_same_col = conv(_MALVAR_RB_AT_G_SAME_COL)
    rb_opposite = conv(_MALVAR_RB_AT_OPPOSITE)

    is_r = channel_map == 0
    is_g = channel_map == 1
    is_b = channel_map == 2

    # Row kind: does this row contain red photosites?
    rows_with_r = is_r.any(axis=2)[:, :, None] & np.ones((1, 1, w), dtype=bool)

    rgb = np.empty(m.shape + (3,), dtype=np.float64)
    # Green: native at G, interpolated at R and B.
    rgb[..., 1] = np.where(is_g, m, g_at_rb)
    # Red.
    r_at_g = np.where(rows_with_r, rb_same_row, rb_same_col)
    rgb[..., 0] = np.where(is_r, m, np.where(is_g, r_at_g, rb_opposite))
    # Blue (mirror of red: blue rows are the non-red rows).
    b_at_g = np.where(rows_with_r, rb_same_col, rb_same_row)
    rgb[..., 2] = np.where(is_b, m, np.where(is_g, b_at_g, rb_opposite))

    return np.clip(rgb, 0.0, 1.0).astype(np.float32)


@dataclass
class Demosaic(ISPStage):
    """Reconstruct full RGB from the Bayer mosaic.

    ``algorithm`` is ``"bilinear"`` or ``"malvar"``.
    """

    algorithm: str = "malvar"

    def process(self, state: ISPState) -> ISPState:
        mosaic = state.require_mosaic()
        channel_map = _channel_maps(state.raws, mosaic.shape[1], mosaic.shape[2])
        if self.algorithm == "bilinear":
            state.rgb = _bilinear_demosaic(mosaic, channel_map)
        elif self.algorithm == "malvar":
            state.rgb = _malvar_demosaic(mosaic, channel_map)
        else:
            raise ValueError(f"unknown demosaic algorithm {self.algorithm!r}")
        state.mosaic = None
        return state

    process_batch = process


@dataclass
class WhiteBalance(ISPStage):
    """Neutralize the illuminant / sensor color response.

    ``source`` selects the gains: ``"as_shot"`` uses the camera's metadata
    estimate; ``"gray_world"`` re-estimates from the image. ``strength``
    blends between no correction (0) and full correction (1) — vendors
    deliberately under-correct to keep scenes "warm".
    """

    source: str = "as_shot"
    strength: float = 1.0

    def process(self, state: ISPState) -> ISPState:
        rgb = state.require_rgb()
        if self.source == "as_shot":
            gains = np.asarray([raw.wb_gains for raw in state.raws], dtype=np.float32)
        elif self.source == "gray_world":
            gains = gray_world_gains_batch(rgb)
        else:
            raise ValueError(f"unknown white balance source {self.source!r}")
        blended = 1.0 + (gains - 1.0) * np.float32(self.strength)
        state.rgb = np.clip(apply_wb_gains_batch(rgb, blended), 0.0, 4.0)
        return state

    process_batch = process


@dataclass
class ColorCorrection(ISPStage):
    """Apply a 3x3 color-correction matrix (sensor space -> sRGB-ish)."""

    matrix: np.ndarray = field(
        default_factory=lambda: np.array(
            [[1.45, -0.30, -0.15], [-0.25, 1.45, -0.20], [-0.10, -0.40, 1.50]],
            dtype=np.float32,
        )
    )

    def process(self, state: ISPState) -> ISPState:
        # ``(..., 3) @ (3, 3).T`` maps each pixel on its own.
        rgb = state.require_rgb()
        state.rgb = np.clip(apply_color_matrix(rgb, self.matrix), 0.0, 4.0)
        return state

    process_batch = process


@dataclass
class ToneMap(ISPStage):
    """Contrast S-curve in linear light.

    ``strength`` 0 is identity; higher values deepen shadows and roll off
    highlights more aggressively (vendor "look").
    """

    strength: float = 0.3

    def process(self, state: ISPState) -> ISPState:
        if self.strength < 0:
            raise ValueError("tone map strength must be non-negative")
        rgb = np.clip(state.require_rgb(), 0.0, 1.0)
        if self.strength == 0:
            return state
        # Smoothstep-family curve blended with identity.
        curved = rgb * rgb * (3.0 - 2.0 * rgb)
        state.rgb = (1 - self.strength) * rgb + self.strength * curved
        return state

    process_batch = process


@dataclass
class GammaEncode(ISPStage):
    """Encode linear light for display: sRGB curve or a pure power law."""

    mode: str = "srgb"
    gamma: float = 2.2

    def process(self, state: ISPState) -> ISPState:
        rgb = np.clip(state.require_rgb(), 0.0, 1.0)
        if self.mode == "srgb":
            state.rgb = srgb_encode(rgb)
        elif self.mode == "power":
            state.rgb = np.power(rgb, np.float32(1.0 / self.gamma))
        else:
            raise ValueError(f"unknown gamma mode {self.mode!r}")
        return state

    process_batch = process


@dataclass
class Denoise(ISPStage):
    """Edge-preserving-ish noise reduction.

    Chroma is smoothed more than luma (the universal ISP trick: human
    vision tolerates chroma blur). ``luma_sigma``/``chroma_sigma`` are
    Gaussian sigmas in pixels.
    """

    luma_sigma: float = 0.4
    chroma_sigma: float = 1.2

    def process(self, state: ISPState) -> ISPState:
        from ..imaging.color import rgb_to_ycbcr, ycbcr_to_rgb

        rgb = state.require_rgb()
        ycc = rgb_to_ycbcr(np.clip(rgb, 0.0, 1.0))
        # The blur filters each (item, channel) plane on its own, so the
        # two chroma planes go through one call.
        if self.luma_sigma > 0:
            ycc[..., :1] = gaussian_blur_batch(ycc[..., :1], self.luma_sigma)
        if self.chroma_sigma > 0:
            ycc[..., 1:] = gaussian_blur_batch(ycc[..., 1:], self.chroma_sigma)
        state.rgb = np.clip(ycbcr_to_rgb(ycc), 0.0, 1.0)
        return state

    process_batch = process


@dataclass
class Sharpen(ISPStage):
    """Unsharp-mask sharpening (applied post-gamma by most vendors)."""

    amount: float = 0.5
    sigma: float = 1.0

    def process(self, state: ISPState) -> ISPState:
        if self.amount < 0:
            raise ValueError("sharpen amount must be non-negative")
        rgb = state.require_rgb()
        state.rgb = np.clip(unsharp_mask_batch(rgb, self.sigma, self.amount), 0.0, 1.0)
        return state

    process_batch = process


@dataclass
class Resize(ISPStage):
    """Scale to the pipeline's output resolution."""

    height: int = 96
    width: int = 96

    def process(self, state: ISPState) -> ISPState:
        rgb = state.require_rgb()
        state.rgb = bilinear_resize_batch(rgb, self.height, self.width)
        return state

    process_batch = process
