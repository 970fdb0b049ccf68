"""Host-speed calibration: a uniform host slowdown cancels, a program one does not."""

import calibrate
import run
from workloads import Op


class Batch:
    slo_ms = 1000.0


def passes(pass_s, probe_s, count=5):
    out, clock = [], 0.0
    for _ in range(count):
        ops = [Op("call", pass_s, 10)]
        segment = dict(start=clock, end=clock + pass_s, ops=ops, digest="d", probe_s=probe_s)
        out.append(dict(segments=[segment], ops=ops, digest="d", seconds=pass_s))
        clock += pass_s
    return out


def metrics(pass_s, probe_s):
    return run.batch_result(Batch(), passes(pass_s, probe_s), "d")["metrics"]


def test_a_host_twice_as_slow_reports_the_same_figures():
    fast = metrics(0.5, calibrate.REFERENCE_S)
    slow = metrics(1.0, 2 * calibrate.REFERENCE_S)
    for name in ("units_per_s", "latency_p50_ms", "latency_p95_ms", "slo_share"):
        assert abs(slow[name] - fast[name]) <= 1e-9 * abs(fast[name]), name
    assert abs(fast["units_per_s"] - 20.0) < 1e-9
    assert abs(fast["latency_p50_ms"] - 500.0) < 1e-9


def test_a_program_twice_as_slow_reports_half_the_throughput():
    base = metrics(0.5, calibrate.REFERENCE_S)
    slower = metrics(1.0, calibrate.REFERENCE_S)
    assert abs(slower["units_per_s"] - base["units_per_s"] / 2) < 1e-9
    assert abs(slower["latency_p50_ms"] - 2 * base["latency_p50_ms"]) < 1e-9


def test_the_probe_does_fixed_work():
    assert calibrate._work() == calibrate._work()
    assert calibrate.probe() > 0
    assert calibrate.around([1.0, 3.0, 5.0], 1) == 4.0
