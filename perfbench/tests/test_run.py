"""End-to-end runs of the benchmark command at small size.

Each test runs ``perfbench/run.py`` in a fresh process, as the benchmark
contract does, and reads the JSON object on its last output line.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


def run(*args, cwd=ROOT, timeout=180):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=timeout,
        check=False,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


def small(workload, *extra):
    return run(
        "--workload", workload, "--seed", "0", "--seconds", "0.5",
        "--size", "small", *extra,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace, tmp_path):
    proc, result = small(workload, "--trace", trace, "--digests", str(tmp_path / "d.json"))
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = CONTRACT["end_to_end" if trace == "0" else "per_layer"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: value["unit"] for name, value in result["metrics"].items()
    }
    for name, value in result["metrics"].items():
        assert isinstance(value["value"], float), name
    if trace == "0":
        for name in ("setup_s", "units_per_s", "peak_rss_mb"):
            assert result["metrics"][name]["value"] > 0
        assert result["metrics"]["ok_share"]["value"] == 1.0


@pytest.mark.parametrize("workload", ["capture", "serve"])
def test_a_perturbed_recorded_digest_is_caught(workload, tmp_path):
    digests = tmp_path / "digests.json"
    proc, _ = small(workload, "--record", "--digests", str(digests))
    assert proc.returncode == 0, proc.stderr
    recorded = json.loads(digests.read_text())
    (key,) = recorded

    proc, result = small(workload, "--digests", str(digests))
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] is True and result["failed"] == 0

    value = recorded[key]
    recorded[key] = ("0" if value[0] != "0" else "1") + value[1:]
    digests.write_text(json.dumps(recorded))
    proc, result = small(workload, "--digests", str(digests))
    assert proc.returncode == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["ok_share"]["value"] == 0.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in CONTRACT["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path)
    proc = subprocess.run(
        [*CONTRACT["command"], "--workload", WORKLOADS[0], "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, check=False,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_an_injected_serve_delay_lowers_slo_share(monkeypatch, tmp_path):
    """Every batch made slower than the latency limit misses the SLO.

    The delay is twice the limit: time inside a batch is reported in
    reference seconds, so on a host faster than the reference one a
    delay of exactly the limit would read as less than it.
    """
    import time

    from repro.serve import IngestService

    import run
    from workloads import Serve

    execute = IngestService._execute

    def slow_execute(self, units):
        time.sleep(2 * Serve.slo_ms / 1e3)
        return execute(self, units)

    workload = Serve(0, "small", workdir=tmp_path)
    workload.setup()
    try:
        monkeypatch.setattr(IngestService, "_execute", slow_execute)
        paced, capacity = workload.measure(0.5)
        reference = workload.expected_digest([paced[0], capacity[0]])
        result = run.serve_result(workload, paced, capacity, reference)
    finally:
        workload.close()
    assert result["metrics"]["ok_share"] == 1.0
    assert result["metrics"]["slo_share"] == 0.0
    assert result["metrics"]["latency_p50_ms"] > Serve.slo_ms
