"""The per-layer ledger: which entry points each layer times, what it reports.

:data:`LAYER_METRICS` is the table ``BENCHMARK.json``'s ``per_layer`` list
is checked against (``tests/test_contract.py``). Each row names the
metric, its unit, the public entry points whose timers feed it, and the
end-to-end metrics (on which workloads) a change to that layer should
move. :func:`install` wraps those entry points; :func:`layer_metrics`
turns the recorded spans into the metric values.

Conventions
-----------
* ``<layer>.ms_per_unit`` is the summed *self*-time of the layer's spans
  (sub-layers such as ``isp.demosaic`` count towards ``isp``) in the
  traced timed passes, divided by the units those passes completed.
* ``nn.forward_ms_per_sample`` / ``nn.backward_ms_per_sample`` and
  ``nn.predict_ms_per_image`` are *inclusive* times of the outermost
  call, divided by the samples or images it was given.
* A layer the workload never calls reports ``0``.
"""

from __future__ import annotations

import dataclasses
import math
from importlib import import_module
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ledger import Ledger, end, self_times, unattributed

if TYPE_CHECKING:
    from repro.obs.trace import Span

__all__ = ["LayerMetric", "LAYER_METRICS", "install", "layer_metrics", "percentile"]


#: Per-layer metrics where a larger value is the improvement.
HIGHER_IS_BETTER = {
    "runner.group_size_mean",
    "runner.cache_hit_share",
    "nn.images_per_call",
    "serve.batch_size_mean",
    "serve.coalesced_share",
}


@dataclasses.dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    timed: str
    should_move: Tuple[Tuple[str, str], ...]

    @property
    def better(self) -> str:
        return "higher" if self.name in HIGHER_IS_BETTER else "lower"


def _m(name, unit, timed, *moves) -> LayerMetric:
    return LayerMetric(name, unit, timed, tuple(moves))


LAYER_METRICS: List[LayerMetric] = [
    _m("scenes.ms_per_scene", "ms",
       "scenes.build_dataset, CaptureRig.present (setup and timed passes)",
       ("units_per_s", "capture"), ("setup_s", "serve")),
    _m("runner.self_ms_per_unit", "ms",
       "FleetExecutor.run, execute_unit_group, CaptureCache.get/put, minus children",
       ("units_per_s", "capture")),
    _m("runner.group_size_mean", "count", "execute_unit_group call sizes",
       ("units_per_s", "capture")),
    _m("runner.cache_hit_share", "ratio", "CaptureCache.get results",
       ("latency_p50_ms", "serve"), ("units_per_s", "serve")),
    _m("runner.cache_get_ms_p50", "ms", "CaptureCache.get",
       ("latency_p50_ms", "serve"), ("units_per_s", "serve")),
    _m("runner.cache_put_ms_p50", "ms", "CaptureCache.put",
       ("latency_p50_ms", "serve"), ("units_per_s", "serve")),
    _m("sensor.ms_per_unit", "ms", "Phone.capture_raw, Phone.capture_raw_batch",
       ("units_per_s", "capture"), ("latency_p50_ms", "serve")),
    _m("isp.ms_per_unit", "ms",
       "Phone.develop/develop_batch, ISPPipeline.process/process_batch and stages",
       ("units_per_s", "capture")),
    _m("isp.demosaic.ms_per_unit", "ms", "Demosaic.process/process_batch",
       ("units_per_s", "capture")),
    _m("isp.denoise.ms_per_unit", "ms", "Denoise.process/process_batch",
       ("units_per_s", "capture")),
    _m("isp.sharpen.ms_per_unit", "ms", "Sharpen.process/process_batch",
       ("units_per_s", "capture")),
    _m("isp.elementwise.ms_per_unit", "ms",
       "BlackLevelCorrection, WhiteBalance, ColorCorrection, ToneMap, GammaEncode",
       ("units_per_s", "capture")),
    _m("isp.resize.ms_per_unit", "ms", "Resize.process/process_batch",
       ("units_per_s", "capture")),
    _m("codecs.ms_per_unit", "ms",
       "Codec.encode/decode, decode_any, jpeg_roundtrip_batch",
       ("units_per_s", "capture")),
    _m("codecs.bytes_per_unit", "count",
       "bytes returned by Codec.encode and jpeg_roundtrip_batch (must never move)",
       ("units_per_s", "capture")),
    _m("kernels.ms_per_unit", "ms",
       "repro.kernels dispatch entry points (scan coding, PNG filter, deflate, packing)",
       ("units_per_s", "capture"), ("latency_p50_ms", "serve")),
    _m("nn.ms_per_unit", "ms",
       "all nn spans (runtime, model, losses, optimizer), self-time",
       ("units_per_s", "train"), ("units_per_s", "capture")),
    _m("nn.predict_ms_per_image", "ms", "DeviceRuntime.predict/predict_one, inclusive",
       ("units_per_s", "capture"), ("latency_p50_ms", "serve")),
    _m("nn.images_per_call", "count", "images per outermost DeviceRuntime call",
       ("units_per_s", "capture"), ("latency_p50_ms", "serve")),
    _m("nn.cpu_per_wall", "ratio",
       "process CPU s per wall s inside outermost nn calls",
       ("latency_p95_ms", "serve"), ("units_per_s", "train")),
    _m("nn.forward_ms_per_sample", "ms", "Model.forward, inclusive",
       ("units_per_s", "train"), ("units_per_s", "capture")),
    _m("nn.backward_ms_per_sample", "ms", "Model.backward, inclusive",
       ("units_per_s", "train")),
    _m("nn.optim_ms_per_step", "ms", "Adam.step", ("units_per_s", "train")),
    _m("mitigation.noise_ms_per_sample", "ms", "NoiseGenerator.generate",
       ("units_per_s", "train")),
    _m("core.ms_per_unit", "ms",
       "repro.core.instability functions, lab.common.make_record",
       ("units_per_s", "capture")),
    _m("fleet.stats_ms_per_unit", "ms",
       "ColumnarStore.append_columns, aggregate_tables, population_summary",
       ("units_per_s", "capture")),
    _m("fleet.generate_ms", "ms", "generate_devices, per call",
       ("setup_s", "capture"), ("setup_s", "serve")),
    _m("serve.queue_wait_ms_p50", "ms",
       "paced request latency minus the execute time of the batch that answered it",
       ("latency_p50_ms", "serve")),
    _m("serve.queue_wait_ms_p95", "ms", "as serve.queue_wait_ms_p50",
       ("latency_p95_ms", "serve")),
    _m("serve.execute_ms_p50", "ms",
       "per batch: the service's FleetExecutor.run through its last predict_one",
       ("latency_p95_ms", "serve"), ("units_per_s", "serve")),
    _m("serve.batch_size_mean", "count", "units per service batch",
       ("latency_p95_ms", "serve"), ("units_per_s", "serve")),
    _m("serve.coalesced_share", "ratio", "service accounting: coalesced / accepted",
       ("units_per_s", "serve")),
    _m("serve.refused_share", "ratio",
       "service accounting: (shed + timeout + errors) / sent",
       ("slo_share", "serve"), ("ok_share", "serve")),
    _m("loadgen.lag_ms_p95", "ms",
       "submit time minus scheduled time; should stay near 0",
       ("latency_p95_ms", "serve")),
    _m("trace.unattributed_share", "ratio",
       "traced wall not covered by any root span", ),
    _m("trace.overhead_share", "ratio",
       "median over back-to-back untraced/traced pairs of traced / untraced "
       "time per unit, minus 1", ),
]


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile; ``0.0`` for an empty sample."""
    if not values:
        return 0.0
    data = sorted(values)
    idx = max(0, min(len(data) - 1, math.ceil(p / 100.0 * len(data)) - 1))
    return float(data[idx])


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------
def _len_arg(key: str, index: int = 0):
    """Counter reading ``len`` of positional argument ``index``."""
    return lambda args, kwargs, result: {key: float(len(args[index]))}


def _len_result(key: str):
    return lambda args, kwargs, result: {key: float(len(result))}


def install(ledger: Ledger) -> None:
    """Wrap every entry point the ledger times.

    Imports every module first, so ``from ... import`` bindings exist
    before :meth:`Ledger.patch_function` rebinds them. Must run before
    the workload builds its phones: a :class:`Phone` keeps the codec
    object it was built with.
    """
    # import_module, not "import a.b as c": packages such as repro.core
    # re-export functions under their submodules' names.
    registry = import_module("repro.codecs.registry")
    instability = import_module("repro.core.instability")
    population = import_module("repro.fleet.population")
    fleet_stats = import_module("repro.fleet.stats")
    kernels = import_module("repro.kernels")
    lab_common = import_module("repro.lab.common")
    losses = import_module("repro.nn.losses")
    units = import_module("repro.runner.units")
    dataset = import_module("repro.scenes.dataset")
    for name in ("repro.lab.experiments", "repro.mitigation", "repro.serve"):
        import_module(name)  # binds the names patch_function rebinds
    from repro.devices.phone import Phone
    from repro.devices.runtime import DeviceRuntime
    from repro.fleet.columnar import ColumnarStore
    from repro.isp import stages
    from repro.isp.pipeline import ISPPipeline
    from repro.lab.rig import CaptureRig
    from repro.mitigation import noise
    from repro.nn.model import Model
    from repro.nn.optim import Adam
    from repro.runner.cache import CaptureCache
    from repro.runner.executor import FleetExecutor

    pm, pf = ledger.patch_method, ledger.patch_function

    pf(dataset, "build_dataset", "scenes", "build_dataset")
    pm(CaptureRig, "present", "scenes", "present", count=_len_result("scenes"))

    pm(FleetExecutor, "run", "runner", "FleetExecutor.run", count=_len_arg("units", 1))
    pf(units, "execute_unit_group", "runner", "execute_unit_group",
       count=_len_arg("group_size"))
    pm(CaptureCache, "get", "runner", "CaptureCache.get",
       count=lambda a, k, r: {"hit": float(r is not None)})
    pm(CaptureCache, "put", "runner", "CaptureCache.put")

    pm(Phone, "capture_raw", "sensor", "capture_raw")
    pm(Phone, "capture_raw_batch", "sensor", "capture_raw_batch")

    for attr in ("develop", "develop_batch"):
        pm(Phone, attr, "isp", f"Phone.{attr}")
    for attr in ("process", "process_batch"):
        pm(ISPPipeline, attr, "isp", f"ISPPipeline.{attr}")
    stage_layers = {
        stages.Demosaic: "isp.demosaic",
        stages.Denoise: "isp.denoise",
        stages.Sharpen: "isp.sharpen",
        stages.Resize: "isp.resize",
        stages.BlackLevelCorrection: "isp.elementwise",
        stages.WhiteBalance: "isp.elementwise",
        stages.ColorCorrection: "isp.elementwise",
        stages.ToneMap: "isp.elementwise",
        stages.GammaEncode: "isp.elementwise",
    }
    for cls, layer in stage_layers.items():
        for attr in ("process", "process_batch"):
            pm(cls, attr, layer, f"{cls.__name__}.{attr}")

    encoded = lambda a, k, r: {"bytes": float(len(r))}  # noqa: E731
    for name in registry.available_codecs():
        codec = registry.get_codec(name)
        wrapped = dataclasses.replace(
            codec,
            encode=ledger.timed("codecs", f"{name}.encode", codec.encode, count=encoded),
            decode=ledger.timed("codecs", f"{name}.decode", codec.decode),
        )
        registry.register_codec(wrapped, overwrite=True)
        ledger.on_uninstall(
            lambda codec=codec: registry.register_codec(codec, overwrite=True)
        )
    pf(registry, "decode_any", "codecs", "decode_any")
    pf(units, "jpeg_roundtrip_batch", "codecs", "jpeg_roundtrip_batch",
       count=lambda a, k, r: {"bytes": float(sum(len(data) for data, _ in r))})

    for attr in (
        "encode_jpeg_scan",
        "decode_jpeg_scan",
        "png_filter_scanlines",
        "entropy_deflate",
        "entropy_inflate",
        "pack_coefficients",
        "unpack_coefficients",
        "scan_layout",
    ):
        pf(kernels, attr, "kernels", attr)

    pm(DeviceRuntime, "predict", "nn.predict", "predict", cpu=True,
       count=lambda a, k, r: {"images": float(len(r))})
    pm(DeviceRuntime, "predict_one", "nn.predict", "predict_one", cpu=True,
       count=lambda a, k, r: {"images": 1.0})
    pm(Model, "forward", "nn.forward", "forward", cpu=True, count=_len_arg("samples", 1))
    pm(Model, "backward", "nn.backward", "backward", cpu=True,
       count=_len_arg("samples", 1))
    pm(Adam, "step", "nn.optim", "Adam.step", cpu=True)
    for attr in ("cross_entropy", "kl_stability_loss", "embedding_stability_loss"):
        pf(losses, attr, "nn.loss", attr, cpu=True)

    for cls in (
        noise.NoNoise,
        noise.GaussianNoise,
        noise.DistortionNoise,
        noise.TwoImageNoise,
        noise.SubsampleNoise,
    ):
        pm(cls, "generate", "mitigation", f"{cls.__name__}.generate",
           count=_len_arg("samples", 1))

    for attr in instability.__all__:
        pf(instability, attr, "core", attr)
    pf(lab_common, "make_record", "core", "make_record")

    pm(ColumnarStore, "append_columns", "fleet.stats", "append_columns")
    pf(fleet_stats, "aggregate_tables", "fleet.stats", "aggregate_tables")
    pf(fleet_stats, "population_summary", "fleet.stats", "population_summary")
    pf(population, "generate_devices", "fleet.generate", "generate_devices")


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _top(layer: str) -> str:
    return layer.split(".", 1)[0]


def _outermost(spans: Sequence[Span], prefix: str) -> List[Span]:
    """Spans of layers starting with ``prefix`` whose parent is not one."""
    by_id = {s.span_id: s for s in spans}
    out = []
    for span in spans:
        if not _layer(span).startswith(prefix):
            continue
        parent = by_id.get(span.parent_id)
        if parent is None or not _layer(parent).startswith(prefix):
            out.append(span)
    return out


def _layer(span: Span) -> str:
    return span.attrs["layer"]


def _count(spans: Sequence[Span], key: str) -> float:
    return sum(s.attrs.get(key, 0.0) for s in spans)


def layer_metrics(
    timed_spans: Sequence[Span],
    all_spans: Sequence[Span],
    windows: Sequence[Tuple[float, float]],
    units: int,
    overhead_share: float,
    serve: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """Every :data:`LAYER_METRICS` value from one traced run.

    ``timed_spans`` come from the traced timed passes, which completed
    ``units`` units; ``all_spans`` add the traced set-up, for the
    metrics that are per scene or per call rather than per unit.
    ``trace.unattributed_share`` is the part of the wall-clock
    ``windows`` no root span covers. ``serve`` carries the
    service-level values only the serve workload measures.
    """
    selfs = self_times(timed_spans)
    per_layer: Dict[str, float] = {}
    for span in timed_spans:
        layer = _layer(span)
        per_layer[layer] = per_layer.get(layer, 0.0) + selfs[span.span_id]

    def ms_per_unit(prefix: str) -> float:
        total = sum(v for k, v in per_layer.items() if k == prefix or k.startswith(prefix + "."))
        return 1e3 * total / units if units else 0.0

    def spans_named(layer: str, pool: Sequence[Span]) -> List[Span]:
        return [s for s in pool if _layer(s) == layer]

    out: Dict[str, float] = {}

    all_selfs = self_times(all_spans)
    scene_spans = [s for s in all_spans if s.name == "present"]
    scene_ms = sum(all_selfs[s.span_id] for s in all_spans if _layer(s) == "scenes")
    presented = _count(scene_spans, "scenes")
    out["scenes.ms_per_scene"] = 1e3 * scene_ms / presented if presented else 0.0

    out["runner.self_ms_per_unit"] = ms_per_unit("runner")
    groups = [s for s in timed_spans if s.name == "execute_unit_group"]
    out["runner.group_size_mean"] = (
        _count(groups, "group_size") / len(groups) if groups else 0.0
    )
    gets = [s for s in timed_spans if s.name == "CaptureCache.get"]
    puts = [s for s in timed_spans if s.name == "CaptureCache.put"]
    out["runner.cache_hit_share"] = _count(gets, "hit") / len(gets) if gets else 0.0
    out["runner.cache_get_ms_p50"] = 1e3 * percentile([s.duration for s in gets], 50)
    out["runner.cache_put_ms_p50"] = 1e3 * percentile([s.duration for s in puts], 50)

    out["sensor.ms_per_unit"] = ms_per_unit("sensor")
    out["isp.ms_per_unit"] = ms_per_unit("isp")
    for sub in ("demosaic", "denoise", "sharpen", "elementwise", "resize"):
        out[f"isp.{sub}.ms_per_unit"] = ms_per_unit(f"isp.{sub}")
    out["codecs.ms_per_unit"] = ms_per_unit("codecs")
    codec_spans = spans_named("codecs", timed_spans)
    out["codecs.bytes_per_unit"] = _count(codec_spans, "bytes") / units if units else 0.0
    out["kernels.ms_per_unit"] = ms_per_unit("kernels")

    out["nn.ms_per_unit"] = ms_per_unit("nn")
    predicts = _outermost(spans_named("nn.predict", timed_spans), "nn.predict")
    images = _count(predicts, "images")
    out["nn.predict_ms_per_image"] = (
        1e3 * sum(s.duration for s in predicts) / images if images else 0.0
    )
    out["nn.images_per_call"] = images / len(predicts) if predicts else 0.0
    nn_roots = _outermost(timed_spans, "nn")
    nn_wall = sum(s.duration for s in nn_roots)
    out["nn.cpu_per_wall"] = sum(s.attrs.get("cpu", 0.0) for s in nn_roots) / nn_wall if nn_wall else 0.0
    for key, layer in (("forward", "nn.forward"), ("backward", "nn.backward")):
        calls = _outermost(spans_named(layer, timed_spans), layer)
        samples = _count(calls, "samples")
        out[f"nn.{key}_ms_per_sample"] = (
            1e3 * sum(s.duration for s in calls) / samples if samples else 0.0
        )
    steps = spans_named("nn.optim", timed_spans)
    out["nn.optim_ms_per_step"] = (
        1e3 * sum(s.duration for s in steps) / len(steps) if steps else 0.0
    )
    noise_calls = spans_named("mitigation", timed_spans)
    noise_samples = _count(noise_calls, "samples")
    out["mitigation.noise_ms_per_sample"] = (
        1e3 * sum(selfs[s.span_id] for s in noise_calls) / noise_samples
        if noise_samples
        else 0.0
    )

    out["core.ms_per_unit"] = ms_per_unit("core")
    out["fleet.stats_ms_per_unit"] = ms_per_unit("fleet.stats")
    generates = spans_named("fleet.generate", all_spans)
    out["fleet.generate_ms"] = (
        1e3 * sum(s.duration for s in generates) / len(generates) if generates else 0.0
    )

    for key in (
        "serve.queue_wait_ms_p50",
        "serve.queue_wait_ms_p95",
        "serve.execute_ms_p50",
        "serve.batch_size_mean",
        "serve.coalesced_share",
        "serve.refused_share",
        "loadgen.lag_ms_p95",
    ):
        out[key] = float((serve or {}).get(key, 0.0))

    wall = sum(end - start for start, end in windows)
    out["trace.unattributed_share"] = (
        unattributed(timed_spans, windows) / wall if wall else 0.0
    )
    out["trace.overhead_share"] = overhead_share
    return out
