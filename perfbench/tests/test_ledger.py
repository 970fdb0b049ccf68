"""Span arithmetic and wrapper behaviour of the per-layer ledger."""

import math

import pytest
from repro.obs.trace import Span

from ledger import Ledger, end, self_times, unattributed, union_length


def span(sid, parent, start, stop, layer="x"):
    return Span(sid, parent, f"s{sid}", start, stop - start, {"layer": layer})


def test_union_length_merges_overlaps_and_skips_empty():
    assert union_length([(0, 2), (1, 3), (5, 6), (4, 4)]) == 4
    assert union_length([]) == 0


def test_self_times_plus_unattributed_sum_to_wall():
    # Window [0, 10]: two root trees with a gap and nested children.
    spans = [
        span(0, None, 1.0, 5.0),  # root: children cover [1.5, 2.5] and [3, 4.5]
        span(1, 0, 1.5, 2.5),
        span(2, 0, 3.0, 4.5),  # child with its own child [3.5, 4]
        span(3, 2, 3.5, 4.0),
        span(4, None, 6.0, 9.0),  # second root, no children
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(4.0 - 1.0 - 1.5)
    assert selfs[2] == pytest.approx(1.5 - 0.5)
    assert selfs[3] == pytest.approx(0.5)
    gap = unattributed(spans, [(0.0, 10.0)])
    assert gap == pytest.approx(10.0 - 4.0 - 3.0)
    assert math.isclose(sum(selfs.values()) + gap, 10.0)


def test_unattributed_counts_only_time_inside_windows():
    spans = [span(0, None, -1.0, 1.0), span(1, None, 2.0, 3.0)]
    assert unattributed(spans, [(0.0, 2.5)]) == pytest.approx(2.5 - 1.0 - 0.5)


def test_wrapper_records_parents_and_passes_results_through():
    ledger = Ledger()

    def inner(x):
        return x + 1

    wrapped_inner = ledger.timed("b", "inner", inner)

    def outer(x):
        return wrapped_inner(x) * 2

    wrapped_outer = ledger.timed("a", "outer", outer, count=lambda a, k, r: {"n": a[0]})

    assert wrapped_outer(3) == 8
    assert ledger.tracer.finished() == []  # recording off: straight through

    with ledger.recording("pass-1"):
        assert wrapped_outer(3) == 8
    assert ledger.phase is None
    assert wrapped_outer(3) == 8  # recording off again
    inner_span, outer_span = ledger.in_phases({"pass-1"})
    assert inner_span.parent_id == outer_span.span_id
    assert outer_span.parent_id is None
    assert outer_span.attrs == {"layer": "a", "phase": "pass-1", "n": 3}
    assert outer_span.start <= inner_span.start <= end(inner_span) <= end(outer_span)


def test_trace_file_reads_back_as_repro_obs_spans(tmp_path):
    from repro.obs.trace import read_jsonl

    ledger = Ledger()
    wrapped = ledger.timed("a", "f", lambda: None, cpu=True)
    with ledger.recording("pass-1"):
        wrapped()
        wrapped()
    path = tmp_path / "trace.jsonl"
    assert ledger.tracer.export_jsonl(path) == 2
    spans = read_jsonl(path)
    assert [s.name for s in spans] == ["f", "f"]
    assert all(s.attrs["cpu"] >= 0 and s.attrs["layer"] == "a" for s in spans)


def test_patch_function_rebinds_imports_and_uninstall_restores():
    from importlib import import_module

    import repro.lab.experiments as experiments

    module = import_module("repro.core.instability")
    original = module.instability
    ledger = Ledger()
    ledger.patch_function(module, "instability", "core", "instability")
    assert module.instability is not original
    assert experiments.instability is module.instability
    ledger.uninstall()
    assert module.instability is original
    assert experiments.instability is original
