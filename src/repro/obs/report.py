"""Render observability data as the tables ``python -m repro report`` prints.

Input is what an observed run exports: a JSONL span trace
(``--trace-out``) and/or a metrics snapshot JSON (``--metrics-out``).
Output is three plain-text tables in the house style of
:mod:`repro.core.report`:

* **per-stage timing** — every span name aggregated by *self*-time (its
  duration minus its child spans'): call count, total, mean, p50/p95,
  and share, plus an ``(unattributed)`` row for the time between root
  spans that no span covers; the shares add up to 100%;
* **per-phone timing** — spans attributed to the device that produced
  them (walking parent links up to the nearest span carrying a
  ``device`` attribute), broken down by subsystem prefix (sensor / isp /
  codec / ...);
* **cache efficiency** — hit rates of the capture cache and the rig's
  render cache, plus the headline fleet counters.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core.report import format_percent, format_table
from .trace import Span, read_jsonl

__all__ = [
    "attribute_devices",
    "self_times",
    "unattributed_time",
    "load_metrics_json",
    "render_report",
    "stage_rows",
    "device_rows",
    "cache_rows",
]


def load_metrics_json(path: Union[str, Path]) -> dict:
    """Load a ``--metrics-out`` snapshot back into a plain dict."""
    return json.loads(Path(path).read_text())


def _quantile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of an ascending sequence (empty -> 0)."""
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, max(0, round(q * (len(sorted_values) - 1))))
    return sorted_values[index]


def attribute_devices(spans: Sequence[Span]) -> Dict[int, str]:
    """Map every span id to the device that produced it.

    A span's device is its own ``device`` attribute if present, else the
    nearest ancestor's; spans with no device anywhere in their ancestry
    map to ``"-"`` (e.g. rig rendering, which happens before any phone).
    """
    by_id = {span.span_id: span for span in spans}
    resolved: Dict[int, str] = {}

    def resolve(span_id: int) -> str:
        cached = resolved.get(span_id)
        if cached is not None:
            return cached
        span = by_id[span_id]
        device = span.attrs.get("device")
        if device is None:
            if span.parent_id is not None and span.parent_id in by_id:
                device = resolve(span.parent_id)
            else:
                device = "-"
        resolved[span_id] = str(device)
        return resolved[span_id]

    for span in spans:
        resolve(span.span_id)
    return resolved


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Map span id -> its duration minus its child spans' durations.

    Clamped at zero: spans absorbed from pooled workers may add up to
    more than their parent's wall time.
    """
    child_total: Dict[int, float] = {}
    for span in spans:
        if span.parent_id is not None:
            child_total[span.parent_id] = child_total.get(span.parent_id, 0.0) + span.duration
    return {
        span.span_id: max(0.0, span.duration - child_total.get(span.span_id, 0.0))
        for span in spans
    }


def unattributed_time(spans: Sequence[Span]) -> float:
    """Wall time between the first root span's start and the last one's
    end during which no root span was open (untraced code between them).

    A root span is one whose parent is not in ``spans``.
    """
    ids = {span.span_id for span in spans}
    roots = sorted(
        (span.start, span.start + span.duration)
        for span in spans
        if span.parent_id not in ids
    )
    if not roots:
        return 0.0
    covered = 0.0
    cur_start, cur_end = roots[0]
    for start, stop in roots[1:]:
        if start > cur_end:
            covered += cur_end - cur_start
            cur_start, cur_end = start, stop
        else:
            cur_end = max(cur_end, stop)
    covered += cur_end - cur_start
    window = max(stop for _start, stop in roots) - roots[0][0]
    return max(0.0, window - covered)


def stage_rows(spans: Sequence[Span]) -> List[List[str]]:
    """Per-stage *self*-time rows plus an ``(unattributed)`` row.

    Each span contributes its self-time (see :func:`self_times`) to its
    name's row, so nested stages are never counted twice; time between
    root spans that no span covers gets the ``(unattributed)`` row. The
    share column divides by the sum of every row, so it adds up to 100%.
    """
    selfs = self_times(spans)
    grouped: Dict[str, List[float]] = {}
    for span in spans:
        grouped.setdefault(span.name, []).append(selfs[span.span_id])
    totals = {name: sum(values) for name, values in sorted(grouped.items())}
    gap = unattributed_time(spans)
    total_all = sum(totals.values()) + gap

    def row(name: str, values: List[float], total: float) -> List[str]:
        values = sorted(values)
        return [
            name,
            str(len(values)),
            f"{total:.3f}s",
            f"{1e3 * total / max(1, len(values)):.2f}ms",
            f"{1e3 * _quantile(values, 0.50):.2f}ms",
            f"{1e3 * _quantile(values, 0.95):.2f}ms",
            format_percent(total / total_all if total_all else 0.0, 1),
        ]

    rows = [
        row(name, grouped[name], totals[name])
        for name in sorted(grouped, key=lambda n: (-totals[n], n))
    ]
    if rows:
        rows.append(row("(unattributed)", [gap], gap))
    return rows


#: Subsystem prefixes broken out as per-phone columns.
_SUBSYSTEMS = ("sensor", "isp", "codec", "inference")


def device_rows(spans: Sequence[Span]) -> List[List[str]]:
    """Aggregate spans per device, split by subsystem prefix.

    Only the *topmost* span of each subsystem chain is summed (e.g.
    ``isp.process`` but not its ``isp.demosaic`` child), so nested spans
    are not double-counted.
    """
    devices = attribute_devices(spans)
    by_id = {span.span_id: span for span in spans}
    units: Dict[str, int] = {}
    totals: Dict[str, float] = {}
    by_subsystem: Dict[Tuple[str, str], float] = {}
    for span in spans:
        device = devices[span.span_id]
        if span.name == "unit.execute_group":
            # A group span covers `units` units in one pass.
            units[device] = units.get(device, 0) + int(span.attrs.get("units", 1))
            totals[device] = totals.get(device, 0.0) + span.duration
        prefix = span.name.split(".", 1)[0]
        if prefix in _SUBSYSTEMS:
            parent = by_id.get(span.parent_id) if span.parent_id is not None else None
            if parent is not None and parent.name.split(".", 1)[0] == prefix:
                continue  # nested inside the same subsystem; already counted
            key = (device, prefix)
            by_subsystem[key] = by_subsystem.get(key, 0.0) + span.duration
    rows = []
    for device in sorted(set(units) | {d for d, _ in by_subsystem}):
        row = [
            device,
            str(units.get(device, 0)),
            f"{totals.get(device, 0.0):.3f}s",
        ]
        for prefix in _SUBSYSTEMS:
            row.append(f"{by_subsystem.get((device, prefix), 0.0):.3f}s")
        rows.append(row)
    return rows


def cache_rows(metrics: dict) -> List[List[str]]:
    """Hit-rate rows for every ``<layer>.hit``/``<layer>.miss`` pair."""
    counters = metrics.get("counters", {})
    layers = sorted(
        {
            name.rsplit(".", 1)[0]
            for name in counters
            if name.endswith(".hit") or name.endswith(".miss")
        }
    )
    rows = []
    for layer in layers:
        hits = counters.get(f"{layer}.hit", 0)
        misses = counters.get(f"{layer}.miss", 0)
        lookups = hits + misses
        rows.append(
            [
                layer,
                str(int(hits)),
                str(int(misses)),
                format_percent(hits / lookups if lookups else 0.0, 1),
                str(int(counters.get(f"{layer}.store", 0))),
            ]
        )
    return rows


def _counter_lines(metrics: dict) -> List[str]:
    counters = metrics.get("counters", {})
    gauges = metrics.get("gauges", {})
    skip = tuple(
        suffix for suffix in (".hit", ".miss", ".store")
    )
    lines = []
    for name in sorted(counters):
        if name.endswith(skip):
            continue
        value = counters[name]
        rendered = f"{value:g}" if isinstance(value, float) else str(value)
        lines.append(f"  {name}: {rendered}")
    for name in sorted(gauges):
        lines.append(f"  {name}: {gauges[name]:g} (gauge)")
    return lines


def render_report(
    trace_path: Optional[Union[str, Path]] = None,
    metrics_path: Optional[Union[str, Path]] = None,
) -> str:
    """Render the full report for the given trace and/or metrics files."""
    if trace_path is None and metrics_path is None:
        raise ValueError("need a trace file, a metrics file, or both")
    sections: List[str] = []

    if trace_path is not None:
        spans = read_jsonl(trace_path)
        sections.append(f"=== per-stage timing ({len(spans)} spans) ===")
        rows = stage_rows(spans)
        if rows:
            sections.append(
                format_table(
                    ["stage", "count", "self", "mean", "p50", "p95", "share"],
                    rows,
                )
            )
        else:
            sections.append("(trace is empty)")
        dev_rows = device_rows(spans)
        if dev_rows:
            sections.append("")
            sections.append("=== per-phone timing ===")
            sections.append(
                format_table(
                    ["device", "units", "unit total"]
                    + [f"{p}" for p in _SUBSYSTEMS],
                    dev_rows,
                )
            )

    if metrics_path is not None:
        metrics = load_metrics_json(metrics_path)
        rows = cache_rows(metrics)
        sections.append("")
        sections.append("=== cache efficiency ===")
        if rows:
            sections.append(
                format_table(["layer", "hits", "misses", "hit rate", "stores"], rows)
            )
        else:
            sections.append("(no cache activity recorded)")
        extra = _counter_lines(metrics)
        if extra:
            sections.append("")
            sections.append("=== counters ===")
            sections.extend(extra)

    return "\n".join(sections).strip("\n")
