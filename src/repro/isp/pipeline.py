"""The ISP pipeline: an ordered chain of stages with tap points.

``ISPPipeline.process_batch(raws)`` runs a batch of
:class:`~repro.imaging.image.RawImage` captures through every stage and
returns the finished :class:`~repro.imaging.image.ImageBuffer` images;
``process(raw)`` is a batch of one. ``process_with_taps`` also
returns the intermediate image after each stage, which the tests and the
ablation benchmarks use to attribute instability to individual stages
(in the spirit of Buckler et al. 2017, which the paper builds on).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .. import obs
from ..imaging.image import ImageBuffer, RawImage
from .stages import BlackLevelCorrection, Demosaic, ISPStage, ISPState

__all__ = ["ISPPipeline"]


class ISPPipeline:
    """An ordered, validated chain of ISP stages."""

    def __init__(self, stages: Sequence[ISPStage], name: str = "custom") -> None:
        stages = list(stages)
        if not stages:
            raise ValueError("pipeline needs at least one stage")
        demosaic_positions = [
            i for i, s in enumerate(stages) if isinstance(s, Demosaic)
        ]
        if len(demosaic_positions) != 1:
            raise ValueError("pipeline must contain exactly one Demosaic stage")
        black_positions = [
            i for i, s in enumerate(stages) if isinstance(s, BlackLevelCorrection)
        ]
        if black_positions and black_positions[0] > demosaic_positions[0]:
            raise ValueError("BlackLevelCorrection must precede Demosaic")
        self.stages: List[ISPStage] = stages
        self.name = name

    def process(self, raw: RawImage) -> ImageBuffer:
        """Run one raw capture through every stage (a batch of one)."""
        return self.process_batch([raw])[0]

    def process_batch(self, raws: Sequence[RawImage]) -> List[ImageBuffer]:
        """Develop a batch of raw captures in one vectorized pass.

        Each stage executes inside its own ``isp.<stage>`` tracing span
        (annotated with the pipeline name) when observability is active,
        so traces attribute develop time stage by stage. Item ``i`` of the
        result depends on ``raws[i]`` alone (see :class:`ISPState`).
        """
        raws = list(raws)
        if not raws:
            return []
        with obs.span("isp.process_batch", pipeline=self.name, items=len(raws)):
            state = ISPState.from_raws(raws)
            for stage in self.stages:
                with obs.span(f"isp.{stage.name}", pipeline=self.name):
                    state = stage.process(state)
            rgb = state.require_rgb()
            return [ImageBuffer(rgb[i]).clipped() for i in range(len(raws))]

    def process_with_taps(self, raw: RawImage) -> Tuple[ImageBuffer, Dict[str, ImageBuffer]]:
        """Run the pipeline, also returning the image after each RGB stage."""
        state = ISPState.from_raws([raw])
        taps: Dict[str, ImageBuffer] = {}
        for i, stage in enumerate(self.stages):
            state = stage.process(state)
            if state.rgb is not None:
                taps[f"{i:02d}:{stage.name}"] = ImageBuffer(state.rgb[0].copy()).clipped()
        return ImageBuffer(state.require_rgb()[0]).clipped(), taps

    def stage_names(self) -> List[str]:
        return [s.name for s in self.stages]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = " -> ".join(self.stage_names())
        return f"ISPPipeline({self.name!r}: {inner})"
