"""The repository benchmark: three workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload capture --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20      # each in a fresh process

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` installs the per-layer ledger (:mod:`layers`) and prints the
per-layer metrics instead, writing every span to ``perfbench/out/``. The
last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

Every output is checked: each timed pass must produce the digest that
the program's serial path gives for the same seed (``digests.json``,
written by ``--record``; for a seed not recorded there, every pass must
agree with the first). A mismatch counts the pass's units as failed and
the command exits 1.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

import calibrate  # noqa: E402
from layers import LAYER_METRICS, install, layer_metrics, percentile  # noqa: E402
from ledger import Ledger, end  # noqa: E402
from workloads import WORKLOADS, Serve  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"

#: Set-up samples per run: this process plus fresh child processes.
SETUP_SAMPLES = 3

#: Units of every end-to-end metric, in BENCHMARK.json order.
END_TO_END_UNITS = {
    "setup_s": "s",
    "units_per_s": "units/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "slo_share": "ratio",
    "ok_share": "ratio",
    "peak_rss_mb": "MB",
}


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=[*WORKLOADS, "all"],
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument(
        "--size",
        choices=["full", "small"],
        default="full",
        help="small shrinks every workload for smoke tests",
    )
    parser.add_argument(
        "--digests",
        type=Path,
        default=DIGESTS,
        help="recorded-digest file to check against (and --record into)",
    )
    parser.add_argument(
        "--record",
        action="store_true",
        help="derive the seed's digest from the serial path and store it",
    )
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="set up, print {'setup_s': ...} and exit (one set-up sample)",
    )
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# Environment (read, never set)
# ----------------------------------------------------------------------
def blas_threads() -> Dict[str, int]:
    """Thread count of every OpenBLAS the process has loaded."""
    found: Dict[str, int] = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = int(fn())
                break
    return found


def environment() -> Dict:
    import numpy
    import repro.kernels

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "repro_kernels": repro.kernels.current_backend(),
        "REPRO_KERNELS": os.environ.get("REPRO_KERNELS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


# ----------------------------------------------------------------------
# Digests
# ----------------------------------------------------------------------
def digest_key(workload: str, size: str, seed: int, seconds: float) -> str:
    # The serve schedule grows with --seconds; batch passes do not.
    if workload == "serve":
        return f"serve/{size}/{seconds:g}s/{seed}"
    return f"{workload}/{size}/{seed}"


def load_digests(path: Path) -> Dict[str, str]:
    if not path.exists():
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def store_digest(path: Path, key: str, value: str) -> None:
    digests = load_digests(path)
    digests[key] = value
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(digests.items())), fh, indent=1)
        fh.write("\n")
    os.replace(tmp, path)


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
def measure_batch(workload, seconds: float, ledger, pauses=()) -> List[Dict]:
    """Repeat whole passes until ``seconds`` of passes have gone by.

    A pass runs every part of the workload once (``workload.parts``, or
    the workload itself), each part as one timed *segment*. A host-speed
    probe (:mod:`calibrate`) runs before the first segment and after
    every segment, outside the timed segments; each segment keeps the
    mean of the probes at its two ends as ``probe_s``.

    ``pauses`` run between passes, outside the timed passes, one after
    each equal share of the measuring time. An untraced run takes its
    set-up samples there, so its passes sample the host's varying speed
    over a longer stretch and a slow spell reaches fewer of them.

    In a traced run, even passes run with recording off and odd passes
    with it on; both kinds are kept, to measure the tracing overhead.
    """
    parts = getattr(workload, "parts", (workload,))
    passes = []
    probes = [calibrate.probe_median()]
    pauses = list(pauses)
    shares = len(pauses) + 1
    measured = 0.0
    while True:
        traced = ledger is not None and len(passes) % 2 == 1
        segments = []
        for part in parts:
            recording = (
                ledger.recording(f"pass-{len(passes)}") if traced else nullcontext()
            )
            with recording:
                start = time.perf_counter()
                ops, digest = part.run_pass()
                stop = time.perf_counter()
            probes.append(calibrate.probe_median())
            segments.append(
                dict(
                    start=start, end=stop, ops=ops, digest=digest,
                    probe_s=calibrate.around(probes, len(probes) - 2),
                )
            )
        digests = [seg["digest"] for seg in segments]
        passes.append(
            dict(
                segments=segments,
                ops=[op for seg in segments for op in seg["ops"]],
                digest=digests[0] if len(parts) == 1 else workload.combine(digests),
                seconds=sum(seg["end"] - seg["start"] for seg in segments),
                traced=traced,
            )
        )
        measured += passes[-1]["seconds"]
        while pauses and measured >= seconds * (shares - len(pauses)) / shares:
            pauses.pop(0)()
            probes[-1] = calibrate.probe_median()
        if measured >= seconds and (ledger is None or len(passes) >= 2):
            break
    return passes


def batch_result(workload, passes: List[Dict], reference: str) -> Dict:
    """End-to-end metrics of a batch workload from its timed passes.

    Durations are in reference seconds: each segment's are scaled by
    its own probe (:mod:`calibrate`). Every pass makes the same
    operations, so an operation's latency is its median over the
    passes; each unit it returned is charged that.
    """
    units_per_s, raw_units_per_s = [], []
    op_seconds: Dict[str, List[float]] = {}
    attempted = ok = within = 0
    for p in passes:
        units = sum(op.units for op in p["ops"])
        good = p["digest"] == reference
        reference_seconds = 0.0
        for seg in p["segments"]:
            scale = calibrate.scale(seg["probe_s"])
            reference_seconds += (seg["end"] - seg["start"]) * scale
            for op in seg["ops"]:
                op_seconds.setdefault(op.name, []).append(op.seconds * scale)
                if good and 1e3 * op.seconds * scale <= workload.slo_ms:
                    within += op.units
        units_per_s.append(units / reference_seconds)
        raw_units_per_s.append(units / p["seconds"])
        attempted += units
        ok += units if good else 0
    op_ms = {name: 1e3 * statistics.median(v) for name, v in op_seconds.items()}
    latencies = [op_ms[op.name] for op in passes[0]["ops"] for _ in range(op.units)]
    return {
        "attempted": attempted,
        "ok": ok,
        "metrics": {
            "units_per_s": statistics.median(units_per_s),
            "latency_p50_ms": percentile(latencies, 50),
            "latency_p95_ms": percentile(latencies, 95),
            "slo_share": within / attempted,
            "ok_share": ok / attempted,
        },
        "notes": {
            "passes": len(passes),
            "units_per_pass": len(latencies),
            "op_median_ms": {name: round(ms, 2) for name, ms in op_ms.items()},
            "slo_ms": workload.slo_ms,
            "pass_seconds": [round(p["seconds"], 4) for p in passes],
            "segment_probe_ms": [
                [round(1e3 * seg["probe_s"], 3) for seg in p["segments"]] for p in passes
            ],
            "raw_units_per_s": statistics.median(raw_units_per_s),
        },
        "probes": [seg["probe_s"] for p in passes for seg in p["segments"]],
    }


def reference_latency(phase, sent) -> float:
    """A paced request's latency in reference seconds.

    Only the part of it during which the service was executing a batch
    is host work and gets the round's calibration; the rest (waiting for
    a batch window to close, the event loop) is wall-clock time and is
    kept as measured.
    """
    busy = phase.busy(sent.due, sent.done)
    return (sent.done - sent.due) - busy + busy * calibrate.scale(phase.probe_s)


def serve_result(workload, paced: List, capacity: List, reference: str) -> Dict:
    """End-to-end serve metrics from the paced and capacity rounds.

    Latency percentiles are over every paced request of every round,
    pooled, each in reference seconds (:func:`reference_latency`); a
    request not answered ``ok`` with the serial path's fields has no
    latency and counts as failed.
    """
    phases = paced + capacity
    attempted = sum(len(ph.sent) for ph in phases)
    checks = {ph.name: workload.check(ph) for ph in phases}
    digest_ok = workload.observed_digest([paced[0], capacity[0]]) == reference
    ok = sum(sum(flags) for flags in checks.values()) if digest_ok else 0

    latencies = [
        1e3 * reference_latency(ph, s)
        for ph in paced
        for s, good in zip(ph.sent, checks[ph.name])
        if digest_ok and good
    ]
    within = sum(1 for ms in latencies if ms <= workload.slo_ms)
    sent = [s for ph in paced for s in ph.sent]

    def capacity_per_s(ph, scale):
        return (sum(checks[ph.name]) if digest_ok else 0) / ((ph.end - ph.start) * scale)

    return {
        "attempted": attempted,
        "ok": ok,
        "metrics": {
            "units_per_s": statistics.median(
                capacity_per_s(ph, calibrate.scale(ph.probe_s)) for ph in capacity
            ),
            "latency_p50_ms": percentile(latencies, 50),
            "latency_p95_ms": percentile(latencies, 95),
            "slo_share": within / len(sent),
            "ok_share": ok / attempted,
        },
        "notes": {
            "latency_samples": len(latencies),
            "samples_beyond_p95": len(latencies) - math.ceil(0.95 * len(latencies)),
            "slo_ms": workload.slo_ms,
            "offered_rate_per_s": workload.RATE,
            "loadgen_lag_ms_p95": percentile(
                [1e3 * (s.submitted - s.due) for s in sent], 95
            ),
            "raw_units_per_s": statistics.median(
                capacity_per_s(ph, 1.0) for ph in capacity
            ),
            "phases": {ph.name: phase_counts(ph) for ph in phases},
        },
        "probes": [ph.probe_s for ph in phases],
    }


def phase_counts(phase) -> Dict:
    acc = phase.accounting
    latencies = [1e3 * (s.done - s.due) for s in phase.sent if s.response.status == "ok"]
    return {
        "sent": len(phase.sent),
        "succeeded": phase.count("ok"),
        "shed": acc.get("shed", 0),
        "timed_out": acc.get("timed_out", 0),
        "errored": acc.get("errors", 0),
        "coalesced": acc.get("coalesced", 0),
        "batches": acc.get("batches", 0),
        "seconds": round(phase.end - phase.start, 4),
        "latency_p50_ms": round(percentile(latencies, 50), 2),
        "latency_p95_ms": round(percentile(latencies, 95), 2),
        "probe_ms": round(1e3 * phase.probe_s, 3),
    }



# ----------------------------------------------------------------------
# Per-layer metrics from a traced run
# ----------------------------------------------------------------------
def overhead_share(pairs) -> float:
    """Median over (untraced, traced) pairs of traced / untraced cost, minus 1.

    Each pair runs back to back, so the host's speed changes little
    within a pair; the median keeps a pair split by a slow spell from
    setting the figure.
    """
    return statistics.median(traced / plain for plain, traced in pairs) - 1.0


def traced_batch_layers(ledger, passes: List[Dict]) -> Dict[str, float]:
    traced = [p for p in passes if p["traced"]]
    phases = {f"pass-{i}" for i, p in enumerate(passes) if p["traced"]}
    return layer_metrics(
        timed_spans=ledger.in_phases(phases),
        all_spans=ledger.in_phases(phases | {"setup"}),
        windows=[
            (seg["start"] - ledger.epoch, seg["end"] - ledger.epoch)
            for p in traced
            for seg in p["segments"]
        ],
        units=sum(op.units for p in traced for op in p["ops"]),
        overhead_share=overhead_share(
            (plain["seconds"], trace["seconds"])
            for plain, trace in zip(passes[0::2], passes[1::2])
        ),
    )


def serve_breakdown(ledger, paced) -> Dict[str, float]:
    """Split paced latency into queue wait and batch execution.

    The service runs one batch at a time in a worker thread: a root
    ``FleetExecutor.run`` span starts a batch and the ``predict_one``
    spans after it finish it. A request was answered by the last batch
    that ended before its response arrived.
    """
    roots = sorted(
        (s for s in ledger.in_phases({paced.name}) if s.parent_id is None),
        key=lambda s: s.start,
    )
    batches: List[List[float]] = []
    for span in roots:
        if span.name == "FleetExecutor.run":
            batches.append([span.start, end(span), span.attrs.get("units", 0)])
        elif span.name == "predict_one" and batches:
            batches[-1][1] = max(batches[-1][1], end(span))
    ends = [b[1] for b in batches]
    waits = []
    for sent in paced.sent:
        if sent.response.status != "ok":
            continue
        i = bisect.bisect_right(ends, sent.done - ledger.epoch) - 1
        if i >= 0:
            start, stop, _ = batches[i]
            waits.append(1e3 * ((sent.done - sent.due) - (stop - start)))
    return {
        "serve.queue_wait_ms_p50": percentile(waits, 50),
        "serve.queue_wait_ms_p95": percentile(waits, 95),
        "serve.execute_ms_p50": percentile([1e3 * (b[1] - b[0]) for b in batches], 50),
        "serve.batch_size_mean": (
            sum(b[2] for b in batches) / len(batches) if batches else 0.0
        ),
    }


def traced_serve_layers(ledger, paced: List, capacity: List) -> Dict[str, float]:
    (paced,) = paced
    traced = [ph for ph in capacity if ph.traced]
    phases = [paced] + traced
    serve = serve_breakdown(ledger, paced)
    accepted = sum(ph.accounting.get("accepted", 0) for ph in phases)
    refused = sum(
        ph.accounting.get(key, 0)
        for ph in phases
        for key in ("shed", "timed_out", "errors")
    )
    serve["serve.coalesced_share"] = (
        sum(ph.accounting.get("coalesced", 0) for ph in phases) / accepted
        if accepted
        else 0.0
    )
    serve["serve.refused_share"] = refused / sum(len(ph.sent) for ph in phases)
    serve["loadgen.lag_ms_p95"] = percentile(
        [1e3 * (s.submitted - s.due) for s in paced.sent], 95
    )

    def ms_per_ok(phase):
        return (phase.end - phase.start) / max(1, phase.count("ok"))

    names = {ph.name for ph in phases}
    # The service idles between paced arrivals, so coverage is measured
    # over the traced capacity rounds only, where it is never idle.
    return layer_metrics(
        timed_spans=ledger.in_phases(names),
        all_spans=ledger.in_phases(names | {"setup"}),
        windows=[(ph.start - ledger.epoch, ph.end - ledger.epoch) for ph in traced],
        units=sum(ph.count("ok") for ph in phases),
        overhead_share=overhead_share(
            (ms_per_ok(plain), ms_per_ok(trace))
            for plain, trace in zip(capacity[0::2], capacity[1::2])
        ),
        serve=serve,
    )


# ----------------------------------------------------------------------
# Set-up samples
# ----------------------------------------------------------------------
def setup_probe(args) -> float:
    """One set-up sample in a fresh process (imports included)."""
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--size",
        args.size,
        "--setup-only",
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=False
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def make_workload(args):
    cls = WORKLOADS[args.workload]
    if cls is Serve:
        return cls(args.seed, args.size, workdir=OUT)
    return cls(args.seed, args.size)


def run_all(args) -> int:
    """Run every workload, each in a fresh process; print their lines."""
    status = 0
    for name in WORKLOADS:
        cmd = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload",
            name,
            "--seed",
            str(args.seed),
            "--seconds",
            f"{args.seconds:g}",
            "--trace",
            str(args.trace),
            "--size",
            args.size,
            "--digests",
            str(args.digests),
        ]
        print(f"== {name}", flush=True)
        status = max(status, subprocess.run(cmd, cwd=ROOT, check=False).returncode)
    return status


def record(args, workload) -> int:
    if args.workload == "serve":
        value = workload.reference_digest(args.seconds)
    else:
        value = workload.reference_digest()
    key = digest_key(args.workload, args.size, args.seed, args.seconds)
    store_digest(args.digests, key, value)
    print(json.dumps({"recorded": key, "digest": value}))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no program sources at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)

    ledger = None
    if args.trace:
        ledger = Ledger()
        install(ledger)

    workload = make_workload(args)
    try:
        with ledger.recording("setup") if ledger is not None else nullcontext():
            workload.setup()
        setup_main = time.perf_counter() - _T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_main}))
            return 0
        if args.record:
            return record(args, workload)
        return measure_and_report(args, workload, ledger, setup_main)
    finally:
        close = getattr(workload, "close", None)
        if close is not None:
            close()


def measure_and_report(args, workload, ledger, setup_main: float) -> int:
    recorded = load_digests(args.digests).get(
        digest_key(args.workload, args.size, args.seed, args.seconds)
    )
    samples = [setup_main]

    def setup_sample():
        samples.append(setup_probe(args))

    pauses = [setup_sample] * (SETUP_SAMPLES - 1) if ledger is None else []
    if args.workload == "serve":
        paced, capacity = workload.measure(args.seconds, ledger)
        for pause in pauses:
            pause()
        expected = workload.expected_digest([paced[0], capacity[0]])
        reference_ok = recorded is None or recorded == expected
        result = serve_result(
            workload, paced, capacity, expected if reference_ok else recorded
        )
        source = "serial_reference" + (" + recorded" if recorded else "")
    else:
        passes = measure_batch(workload, args.seconds, ledger, pauses)
        reference = recorded if recorded is not None else passes[0]["digest"]
        result = batch_result(workload, passes, reference)
        source = "recorded" if recorded else "first pass (seed not recorded)"
    result["notes"]["digest_reference"] = source

    env = environment()
    probes = result.pop("probes")
    result["notes"]["probe_median_ms"] = 1e3 * statistics.median(probes)
    if ledger is None:
        # Set-up samples are spread over the run, so the run's median
        # probe stands for the host's speed during them.
        result["metrics"]["setup_s"] = statistics.median(samples) * calibrate.scale(
            statistics.median(probes)
        )
        result["notes"]["setup_samples_s"] = [round(s, 4) for s in samples]
        result["metrics"]["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        names = dict(END_TO_END_UNITS)
    else:
        if args.workload == "serve":
            values = traced_serve_layers(ledger, paced, capacity)
        else:
            values = traced_batch_layers(ledger, passes)
        result["metrics"] = values
        names = {m.name: m.unit for m in LAYER_METRICS}
        trace_path = OUT / f"trace-{args.workload}-{args.size}-seed{args.seed}.jsonl"
        trace_path.unlink(missing_ok=True)  # export_jsonl appends
        result["notes"]["spans"] = ledger.tracer.export_jsonl(trace_path)
        result["notes"]["trace_file"] = str(trace_path.relative_to(ROOT))

    correct = result["ok"] == result["attempted"]
    print(f"workload {args.workload}  seed {args.seed}  size {args.size}")
    print("env " + json.dumps(env, sort_keys=True))
    print("notes " + json.dumps(result["notes"], sort_keys=True))
    for name, unit in names.items():
        print(f"  {name:34s} {result['metrics'][name]:14.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["attempted"] - result["ok"],
                "metrics": {
                    name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in names.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
