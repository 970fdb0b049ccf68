"""BENCHMARK.json is well formed and agrees with the benchmark's own tables."""

import json
import re
from pathlib import Path

from layers import LAYER_METRICS
from run import END_TO_END_UNITS
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_top_level_keys():
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert 1 <= CONTRACT["run_seconds"] <= 60
    assert isinstance(CONTRACT["run_seconds"], int)
    for path in CONTRACT["paths"]:
        assert (ROOT / path).is_dir()
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_workloads_match_the_implemented_ones():
    names = [w["name"] for w in CONTRACT["workloads"]]
    assert sorted(names) == sorted(WORKLOADS)
    for workload in CONTRACT["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_end_to_end_metrics_match_the_printed_ones():
    metrics = CONTRACT["end_to_end"]
    assert {m["name"]: m["unit"] for m in metrics} == END_TO_END_UNITS
    for m in metrics:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in metrics if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in metrics)


def test_per_layer_metrics_match_the_ledger():
    declared = [(m["name"], m["unit"], m["better"]) for m in CONTRACT["per_layer"]]
    assert declared == [(m.name, m.unit, m.better) for m in LAYER_METRICS]
    for m in CONTRACT["per_layer"]:
        assert set(m) == {"name", "unit", "better"}


def test_names_units_and_should_move_targets_are_valid():
    names = [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
    names += [w["name"] for w in CONTRACT["workloads"]]
    assert len(names) == len(set(names))
    for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    for metric in LAYER_METRICS:
        for end_to_end, workload in metric.should_move:
            assert end_to_end in END_TO_END_UNITS, metric.name
            assert workload in WORKLOADS, metric.name


def test_readme_lists_every_metric():
    readme = (ROOT / "perfbench" / "README.md").read_text()
    for name in list(END_TO_END_UNITS) + [m.name for m in LAYER_METRICS]:
        assert f"`{name}`" in readme, name
