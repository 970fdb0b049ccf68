"""The ``repro report`` tables on synthetic traces with known timings."""

import pytest

from repro.obs.report import device_rows, self_times, stage_rows, unattributed_time
from repro.obs.trace import Span


def _span(span_id, parent_id, name, start, duration, **attrs):
    return Span(span_id, parent_id, name, start, duration, attrs)


@pytest.fixture
def nested_trace():
    """Two roots 2 s apart; the first nests two levels deep.

    fleet.run [0, 10]: unit.execute_group [1, 4] (isp.demosaic [2, 3]),
    unit.execute_group [5, 8]; inference.predict [12, 15] after a 2 s
    untraced gap.
    """
    return [
        _span(1, None, "fleet.run", 0.0, 10.0),
        _span(2, 1, "unit.execute_group", 1.0, 3.0, device="a", units=4),
        _span(3, 2, "isp.demosaic", 2.0, 1.0),
        _span(4, 1, "unit.execute_group", 5.0, 3.0, device="b", units=2),
        _span(5, None, "inference.predict", 12.0, 3.0),
    ]


def _shares(rows):
    return {row[0]: float(row[-1].rstrip("%")) for row in rows}


def test_self_time_subtracts_children(nested_trace):
    assert self_times(nested_trace) == {1: 4.0, 2: 2.0, 3: 1.0, 4: 3.0, 5: 3.0}


def test_unattributed_is_the_gap_between_roots(nested_trace):
    assert unattributed_time(nested_trace) == pytest.approx(2.0)


def test_stage_shares_sum_to_100_percent(nested_trace):
    rows = stage_rows(nested_trace)
    shares = _shares(rows)
    assert sum(shares.values()) == pytest.approx(100.0, abs=0.2)
    assert rows[-1][0] == "(unattributed)"
    # 15 s of traced window: group self 2 + 3 = 5 s, fleet.run 4 s,
    # inference 3 s, demosaic 1 s, gap 2 s.
    assert shares["unit.execute_group"] == pytest.approx(100 * 5 / 15, abs=0.1)
    assert shares["fleet.run"] == pytest.approx(100 * 4 / 15, abs=0.1)
    assert shares["(unattributed)"] == pytest.approx(100 * 2 / 15, abs=0.1)
    assert [row[0] for row in rows[:2]] == ["unit.execute_group", "fleet.run"]


def test_parallel_children_never_go_negative():
    """Worker spans absorbed under one parent may outlast it."""
    spans = [
        _span(1, None, "fleet.run", 0.0, 2.0),
        _span(2, 1, "unit.execute_group", 0.0, 1.5),
        _span(3, 1, "unit.execute_group", 0.0, 1.5),
    ]
    assert self_times(spans)[1] == 0.0
    assert sum(_shares(stage_rows(spans)).values()) == pytest.approx(100.0, abs=0.2)


def test_device_rows_weight_group_spans_by_units(nested_trace):
    rows = {row[0]: row for row in device_rows(nested_trace)}
    assert rows["a"][1] == "4" and rows["a"][2] == "3.000s"
    assert rows["b"][1] == "2" and rows["b"][2] == "3.000s"
    # The demosaic span inherits device "a" from its group parent.
    assert rows["a"][3 + 1] == "1.000s"  # isp column
