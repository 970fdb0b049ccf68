"""The three benchmark workloads, each driving the program as a library.

Every workload builds its inputs from ``seed`` in :meth:`setup` (which
also runs a warm-up over every device, unit kind, codec and ISP profile
the timed work uses, so lazy set-up never lands in a timed pass), then
repeats a fixed unit of work. Each returns a SHA-256 digest of its
outputs, and :meth:`reference_digest` derives the same digest from the
program's serial path, which is what ``digests.json`` records.

* :class:`Population` — ``run_population_study`` over a
  ``generate_devices`` population: fused repeat groups carry the work.
* :class:`Paper` — the five paper phones through ``EndToEndExperiment``,
  then the §5/§6 develop experiments on a ``RawCaptureBank``: one unit
  per group, so fusion is bypassed.
* :class:`Capture` — the ``capture`` workload: a population pass, then a
  paper pass.
* :class:`Train` — ``StabilityTrainer.fit`` with the Table 6 objective
  and ``GaussianNoise``: the only ``nn`` backward / optimizer work.
* :class:`Serve` — an in-process ``IngestService`` with a memory+disk
  ``CaptureCache``, driven open loop (:meth:`Serve.measure`).

Batch workloads time *operations*: one call into the program that hands
results back to its caller. Every unit an operation returns is charged
that operation's duration as its latency, because none of them is
available earlier. Each pass makes the same operations, so an
operation's latency is its median over the run's passes.
"""

from __future__ import annotations

import asyncio
import dataclasses
import functools
import gc
import hashlib
import json
import shutil
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import calibrate

__all__ = [
    "Op",
    "Capture",
    "Population",
    "Paper",
    "Train",
    "Serve",
    "WORKLOADS",
    "Digest",
]


@dataclasses.dataclass(frozen=True)
class Op:
    """One library call: its name, wall time and the units it returned."""

    name: str
    seconds: float
    units: int


class Digest:
    """SHA-256 over a canonical encoding of arrays, numbers and strings."""

    def __init__(self) -> None:
        self._h = hashlib.sha256()

    def add(self, value) -> "Digest":
        if isinstance(value, np.ndarray):
            arr = np.ascontiguousarray(value)
            self._h.update(f"A{arr.dtype.str}{arr.shape}".encode())
            self._h.update(arr.tobytes())
        elif isinstance(value, dict):
            self._h.update(f"M{len(value)}".encode())
            for key in sorted(value, key=repr):
                self.add(key)
                self.add(value[key])
        elif isinstance(value, (list, tuple)):
            self._h.update(f"L{len(value)}".encode())
            for item in value:
                self.add(item)
        else:
            # repr is exact for floats and ints, and for the strings and
            # bools that appear in record fields.
            self._h.update(f"V{type(value).__name__}:{value!r};".encode())
        return self

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def untrained_model():
    """The seed-1 untrained MicroMobileNet every workload classifies with.

    It costs the same to run as a trained one, and needs no four-minute
    pretraining step.
    """
    from repro.nn.model import micro_mobilenet
    from repro.scenes.objects import ALL_CLASSES

    return micro_mobilenet(num_classes=len(ALL_CLASSES), seed=1)


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _records(result) -> List[Tuple]:
    return [
        (
            r.environment,
            r.image_id,
            r.true_label,
            r.predicted_label,
            r.confidence,
            tuple(r.ranking),
            r.angle,
        )
        for r in result.records
    ]


# ======================================================================
# population
# ======================================================================
class Population:
    """The §4 study at fleet scale: devices x shared scenes x repeats."""

    name = "population"
    SIZES = {
        "full": dict(devices=16, scenes=1, repeats=8),
        "small": dict(devices=3, scenes=1, repeats=2),
    }
    #: The device population is fixed configuration, as the serve fleet
    #: is: its codec and ISP mix sets the cost of a pass, so a population
    #: drawn from ``--seed`` moved throughput by up to 25% between seeds.
    #: The seed varies the scenes and every capture's noise.
    FLEET_SEED = 0
    #: Latency limit (ms) behind ``slo_share``: about 3x the study call's
    #: median on a 2-core host (~1 s). Host slow spells stretched single
    #: passes by up to 1.4x; a program 2x slower misses the limit on every
    #: pass that a slow spell also hits.
    slo_ms = 3000.0

    def __init__(self, seed: int, size: str = "full") -> None:
        self.seed = seed
        self.params = self.SIZES[size]

    def setup(self) -> None:
        from repro.fleet.population import generate_devices

        self.devices = generate_devices(self.params["devices"], seed=self.FLEET_SEED)
        self.model = untrained_model()
        # Every device (so every ISP profile and codec) through full-size
        # fused groups; smaller groups leave lazy set-up to the first pass.
        self._study(self.params["scenes"], self.params["repeats"])

    def _study(self, scenes: int, repeats: int):
        from repro.fleet.studies import run_population_study

        return run_population_study(
            devices=self.devices,
            seed=self.seed,
            scenes=scenes,
            repeats=repeats,
            workers=0,
            cache=None,
            model=self.model,
        )

    def _digest(self, outcome) -> str:
        summary = json.dumps(outcome.summary, sort_keys=True, default=repr)
        return Digest().add(outcome.store.table()).add(summary).hexdigest()

    def run_pass(self) -> Tuple[List[Op], str]:
        seconds, outcome = _timed(
            lambda: self._study(self.params["scenes"], self.params["repeats"])
        )
        return [Op("study", seconds, outcome.store.rows)], self._digest(outcome)

    def reference_digest(self) -> str:
        """The same study on the per-unit executor path."""
        import repro.fleet.studies as studies

        fused = studies.FleetExecutor
        studies.FleetExecutor = functools.partial(fused, batched=False)
        try:
            outcome = self._study(self.params["scenes"], self.params["repeats"])
        finally:
            studies.FleetExecutor = fused
        return self._digest(outcome)


# ======================================================================
# paper
# ======================================================================
class Paper:
    """§4 end to end on the five paper phones, then the §5/§6 develop tables."""

    name = "paper"
    SIZES = {
        "full": dict(e2e_per_class=1, angles=5, raws_per_phone=2),
        "small": dict(e2e_per_class=1, angles=1, raws_per_phone=1),
    }
    #: About 3x the longest call (end to end, ~1.3 reference s).
    slo_ms = 4000.0

    def __init__(self, seed: int, size: str = "full") -> None:
        self.seed = seed
        self.params = self.SIZES[size]

    def _experiments(self, executor=None):
        from repro.lab.experiments import (
            CompressionFormatExperiment,
            CompressionQualityExperiment,
            EndToEndExperiment,
            ISPComparisonExperiment,
        )
        from repro.lab.rig import DEFAULT_ANGLES

        angles = DEFAULT_ANGLES if self.params["angles"] == 5 else (0.0,)
        kw = dict(model=self.model, executor=executor)
        return (
            EndToEndExperiment(angles=angles, seed=self.seed, **kw),
            [
                CompressionQualityExperiment(**kw),
                CompressionFormatExperiment(**kw),
                ISPComparisonExperiment(**kw),
            ],
        )

    def setup(self) -> None:
        from repro.lab.experiments import RawCaptureBank

        self.model = untrained_model()
        bank = RawCaptureBank.collect(per_class=1, seed=self.seed)
        self.bank = _per_phone(bank, self.params["raws_per_phone"])
        self.e2e, self.develop = self._experiments()
        # Warm-up: every phone at every angle, and one raw per raw phone
        # through every develop treatment (all codecs, qualities, ISPs).
        self.e2e.run(per_class=1)
        for experiment in self.develop:
            experiment.run(_per_phone(bank, 1))

    def _pass(self, e2e, develop) -> Tuple[List[Op], str]:
        from repro.core.instability import (
            accuracy,
            instability,
            per_class_instability,
        )
        from repro.lab.experiments import topk_comparison

        def end_to_end():
            result = e2e.run(per_class=self.params["e2e_per_class"])
            summary = {
                "instability": instability(result),
                "accuracy": accuracy(result),
                "per_class": per_class_instability(result),
                "topk": topk_comparison(result, k=3),
            }
            return result, summary

        def compression(experiment):
            outcome = experiment.run(self.bank)
            summary = {
                "instability": outcome.instability(),
                "accuracy": outcome.accuracy_by_environment(),
                "sizes": outcome.avg_size_bytes,
            }
            return outcome.result, summary

        def isp(experiment):
            outcome = experiment.run(self.bank)
            summary = {
                "instability": outcome.instability(),
                "accuracy": outcome.accuracy_by_isp(),
            }
            return outcome.result, summary

        calls = {
            "end_to_end": end_to_end,
            "compression_quality": functools.partial(compression, develop[0]),
            "compression_format": functools.partial(compression, develop[1]),
            "isp_comparison": functools.partial(isp, develop[2]),
        }
        ops, digest = [], Digest()
        for name, call in calls.items():
            seconds, (result, summary) = _timed(call)
            ops.append(Op(name, seconds, len(result)))
            digest.add(_records(result)).add(summary)
        return ops, digest.hexdigest()

    def run_pass(self) -> Tuple[List[Op], str]:
        return self._pass(self.e2e, self.develop)

    def reference_digest(self) -> str:
        """The same experiments through the per-unit executor path."""
        from repro.runner.executor import FleetExecutor

        e2e, develop = self._experiments(FleetExecutor(workers=0, batched=False))
        return self._pass(e2e, develop)[1]


def _per_phone(bank, count: int):
    """The first ``count`` raws of each phone in a ``RawCaptureBank``."""
    from repro.lab.experiments import RawCaptureBank

    seen: Dict[str, int] = {}
    keep = []
    for i, name in enumerate(bank.phone_names):
        if seen.get(name, 0) < count:
            seen[name] = seen.get(name, 0) + 1
            keep.append(i)
    return RawCaptureBank(
        raws=[bank.raws[i] for i in keep],
        displayed=[bank.displayed[i] for i in keep],
        phone_names=[bank.phone_names[i] for i in keep],
    )


# ======================================================================
# capture = population + paper
# ======================================================================
class Capture:
    """Both capture sweeps in one pass: the fused fleet study, then the paper.

    :class:`Population` exercises the fused repeat-group path and
    :class:`Paper` the per-unit path with every codec and ISP profile.
    They run as one workload so that each run measures twice as long
    within the benchmark's time budget. A pass runs every part in turn
    (``run.measure_batch`` times each part and probes the host between
    them); its digest combines the parts' digests (:meth:`combine`).
    """

    name = "capture"
    #: The longer of the two parts' limits (paper's end-to-end call).
    slo_ms = Paper.slo_ms

    def __init__(self, seed: int, size: str = "full") -> None:
        self.parts = (Population(seed, size), Paper(seed, size))

    def setup(self) -> None:
        for part in self.parts:
            part.setup()

    @staticmethod
    def combine(digests: Sequence[str]) -> str:
        """A pass's digest from its parts' digests, in part order."""
        return Digest().add(list(digests)).hexdigest()

    def reference_digest(self) -> str:
        return self.combine([part.reference_digest() for part in self.parts])


# ======================================================================
# train
# ======================================================================
class Train:
    """Table 6 stability fine-tuning (KL objective, Gaussian noise)."""

    name = "train"
    SIZES = {
        "full": dict(per_class=6, epochs=2),
        "small": dict(per_class=2, epochs=1),
    }
    #: About 4x the fit call (~0.75 reference s).
    slo_ms = 3000.0

    def __init__(self, seed: int, size: str = "full") -> None:
        self.seed = seed
        self.params = self.SIZES[size]

    def setup(self) -> None:
        from repro.mitigation import build_stability_corpus

        corpus = build_stability_corpus(
            per_class=self.params["per_class"], seed=self.seed
        )
        self.x, self.y = corpus.x_train_primary, corpus.y_train
        self.base = untrained_model()
        self._fit(epochs=1)

    def _fit(self, epochs: int):
        from repro.mitigation import (
            GaussianNoise,
            StabilityTrainConfig,
            StabilityTrainer,
        )

        model = self.base.copy()
        config = StabilityTrainConfig(
            alpha=1.0, stability_loss="kl", epochs=epochs, seed=self.seed
        )
        trainer = StabilityTrainer(model, GaussianNoise(0.04), config)
        history = trainer.fit(self.x, self.y)
        return model, history

    def run_pass(self) -> Tuple[List[Op], str]:
        epochs = self.params["epochs"]
        seconds, (model, history) = _timed(lambda: self._fit(epochs))
        digest = Digest().add(model.state_dict()).add(history).hexdigest()
        return [Op("fit", seconds, epochs * len(self.x))], digest

    def reference_digest(self) -> str:
        """Training has one path; the reference is a plain pass."""
        return self.run_pass()[1]


# ======================================================================
# serve
# ======================================================================
@dataclasses.dataclass
class Sent:
    """One request of a phase, with its client-side timestamps."""

    request_id: int
    coords: Tuple[int, int, int]
    due: float
    submitted: float
    done: float = 0.0
    response: object = None


@dataclasses.dataclass
class Phase:
    name: str
    start: float
    end: float
    sent: List[Sent]
    accounting: Dict[str, int]
    traced: bool = False
    #: Host-speed probe time around the round (:mod:`calibrate`).
    probe_s: Optional[float] = None
    #: ``(start, end)`` of every batch the service executed in the round.
    batches: List[Tuple[float, float]] = dataclasses.field(default_factory=list)

    def busy(self, start: float, end: float) -> float:
        """Seconds of ``[start, end]`` during which a batch was executing."""
        return sum(
            max(0.0, min(end, b_end) - max(start, b_start))
            for b_start, b_end in self.batches
        )

    def count(self, status: str) -> int:
        return sum(1 for s in self.sent if s.response.status == status)


class Serve:
    """Open-loop traffic into an in-process ``IngestService``.

    The service is fixed configuration: its device fleet and scenes come
    from :attr:`SERVICE_SEED`. The traffic is planned from
    :attr:`TRACE_SEED` (:meth:`schedules`): Poisson arrival times at
    :attr:`RATE`, the device of each request, and which requests revisit
    a cached unit. That plan sets the bursts and the hit pattern, and
    with them the latency tail, so it stays fixed; ``--seed`` picks the
    units the requests capture (:meth:`_relabel`).

    An untraced run makes :attr:`ROUNDS` paced rounds, each sending the
    same trace to a fresh service and cache, and times every request
    from its *scheduled* send time. After each paced round a capacity
    round submits one list of distinct, not yet captured units all at
    once to another fresh service.
    """

    name = "serve"
    SIZES = {
        "full": dict(fleet=16, scenes=4),
        "small": dict(fleet=3, scenes=2),
    }
    #: Offered rate: with :attr:`HIT_SHARE` of the requests hits, the
    #: service is busy about half the time on a 2-core host (cold-path
    #: capacity ~35/s).
    RATE = 20.0
    SERVICE_SEED = 0
    TRACE_SEED = 0
    #: Paced and capacity rounds. A paced round is ``PACED_SHARE x
    #: --seconds`` long: 100 requests at 20 s, 400 pooled latency
    #: samples, 20 beyond p95.
    ROUNDS = 4
    PACED_SHARE = 0.25
    #: Capacity requests per ``--seconds``, split over the rounds (100
    #: each at 20 s, two service batches); the median round is reported.
    CAPACITY_PER_S = 20
    #: Share of paced requests that revisit a cached unit: the median
    #: request is a hit and the tail is made of misses, so the p95 is
    #: mostly batch execution, which calibration covers. At 0.9 the p95
    #: (~63 ms) was mostly batch window and thread wake-ups, which the
    #: host stretched by ~25 ms in some stretches of time, so ten runs'
    #: p95 spread 0.35 of its median; at 0.7 the same stall is a sixth.
    HIT_SHARE = 0.7
    #: About 3.5x the pooled paced p95 (~140 reference ms); the 500 ms
    #: p95 target SERVING.md sizes capacity against.
    slo_ms = 500.0

    def __init__(self, seed: int, size: str = "full", workdir: Optional[Path] = None):
        self.seed = seed
        self.params = self.SIZES[size]
        self.workdir = Path(workdir) if workdir is not None else None
        self._tmpdirs: List[str] = []
        self._reference: Dict[Tuple[int, int, int], Tuple] = {}

    def new_service(self):
        """A service on a fresh cache, warmed on every device."""
        from repro.runner.cache import CaptureCache
        from repro.serve import IngestService, ServeConfig

        # Earlier rounds' services sit in reference cycles until the
        # cyclic collector happens to run, which left peak memory
        # anywhere from one to eight services' worth. Collect them first.
        gc.collect()
        if self.workdir is not None:
            self.workdir.mkdir(parents=True, exist_ok=True)
        tmp = tempfile.mkdtemp(prefix="serve-cache-", dir=self.workdir)
        self._tmpdirs.append(tmp)
        config = ServeConfig(
            fleet_size=self.params["fleet"],
            scenes=self.params["scenes"],
            seed=self.SERVICE_SEED,
            queue_capacity=4096,  # the paced rounds never shed
            batch_max=64,
            batch_window_s=0.02,
            request_timeout_s=120.0,
            workers=0,
            window_s=0.0,
            model="untrained",
        )
        service = IngestService(config, cache=CaptureCache(tmp))
        self._warm(service)
        return service

    def _warm(self, service) -> None:
        """Capture one unit per device: the history paced requests revisit."""
        from repro.imaging.image import ImageBuffer
        from repro.serve import CaptureRequest

        units = [
            service.unit_for(CaptureRequest(-1, r.device, r.scene, r.repeat))
            for r in self._relabel(self._history())
        ]
        for payload in service.executor.run(units):
            service.runtime.predict_one(ImageBuffer(payload["pixels"]))

    def setup(self) -> None:
        self.service = self.new_service()

    def close(self) -> None:
        for tmp in self._tmpdirs:
            shutil.rmtree(tmp, ignore_errors=True)
        self._tmpdirs = []

    def _history(self):
        """Plan coordinates of the units every service warms: one per device."""
        from repro.loadgen import ScheduledRequest

        return [ScheduledRequest(-1, 0.0, d, 0, 0) for d in range(self.params["fleet"])]

    def _relabel(self, planned):
        """Move each planned request to the units ``--seed`` names.

        Scenes go through one permutation per device and repeats are
        shifted by one offset, both drawn from ``--seed``. The map is a
        bijection, so requests that named one unit still name one unit:
        arrival times, the device of each request and which requests
        revisit an earlier unit stay as planned, while every seed
        captures other units.
        """
        from repro.loadgen import ScheduledRequest
        from repro.runner.seeds import derive_rng

        rng = derive_rng(self.seed, "perfbench.serve.relabel")
        fleet, scenes = self.params["fleet"], self.params["scenes"]
        perms = [rng.permutation(scenes) for _ in range(fleet)]
        offset = int(rng.integers(0, 1 << 30))
        return [
            ScheduledRequest(
                r.request_id, r.at_s, r.device, int(perms[r.device][r.scene]),
                r.repeat + offset,
            )
            for r in planned
        ]

    def schedules(self, seconds: float):
        """The paced trace and the capacity request list for ``seconds``.

        Both are planned from :attr:`TRACE_SEED`, then relabelled by
        ``--seed``. Arrival times come from ``loadgen.build_schedule``.
        Each paced request revisits, with probability :attr:`HIT_SHARE`,
        a uniformly chosen unit among the warmed history and the units
        earlier requests captured, and otherwise names a new unit; so
        misses arrive evenly through the round instead of crowding its
        start, as they do when coordinates are drawn from a fixed range
        over a cold cache. Capacity requests all name new units.
        """
        from repro.loadgen import ScheduledRequest, build_schedule
        from repro.runner.seeds import derive_rng

        fleet, scenes = self.params["fleet"], self.params["scenes"]
        rng = derive_rng(self.TRACE_SEED, "perfbench.serve.plan")
        count = max(1, round(self.RATE * self.PACED_SHARE * seconds))
        arrivals = build_schedule(
            count=count, rate=self.RATE, devices=fleet, scenes=scenes,
            seed=self.TRACE_SEED,
        )
        known = self._history()
        paced = []
        for a in arrivals:
            if rng.random() < self.HIT_SHARE:
                unit = known[int(rng.integers(len(known)))]
            else:
                unit = ScheduledRequest(
                    -1, 0.0, int(rng.integers(fleet)), int(rng.integers(scenes)),
                    len(known),
                )
                known.append(unit)
            paced.append(
                ScheduledRequest(a.request_id, a.at_s, unit.device, unit.scene, unit.repeat)
            )
        capacity = [
            ScheduledRequest(
                i, 0.0, int(rng.integers(fleet)), int(rng.integers(scenes)), len(known) + i
            )
            for i in range(
                max(1, round(self.CAPACITY_PER_S * seconds / self.ROUNDS))
            )
        ]
        return self._relabel(paced), self._relabel(capacity)

    @staticmethod
    def _record_batches(service) -> List[Tuple[float, float]]:
        """Time every batch ``service`` executes, from outside.

        The service runs each batch through its ``_execute`` in a worker
        thread; an instance attribute shadows it with a timer that calls
        whatever the class defines at call time (the ledger's wrapper in
        a traced run). Two clock reads per batch.
        """
        batches: List[Tuple[float, float]] = []

        def execute(units):
            start = time.perf_counter()
            try:
                return type(service)._execute(service, units)
            finally:
                batches.append((start, time.perf_counter()))

        service._execute = execute
        return batches

    @staticmethod
    async def _drive(service, schedule, paced: bool, name: str) -> Phase:
        from repro.serve import CaptureRequest

        batches = Serve._record_batches(service)
        await service.start()
        sent: List[Sent] = []
        futures = []
        start = time.perf_counter()
        for planned in schedule:
            due = start + planned.at_s if paced else time.perf_counter()
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            record = Sent(
                request_id=planned.request_id,
                coords=(planned.device, planned.scene, planned.repeat),
                due=due,
                submitted=time.perf_counter(),
            )
            future = service.submit(
                CaptureRequest(
                    planned.request_id, planned.device, planned.scene, planned.repeat
                )
            )

            def finished(fut, record=record):
                record.done = time.perf_counter()
                record.response = fut.result()

            future.add_done_callback(finished)
            futures.append(future)
            sent.append(record)
        await asyncio.gather(*futures)
        await asyncio.sleep(0)  # let the last done-callbacks run
        end = max((s.done for s in sent), default=start)
        accounting = await service.drain()
        return Phase(name, start, end, sent, accounting, batches=batches)

    def measure(self, seconds: float, ledger=None) -> Tuple[List[Phase], List[Phase]]:
        """Paced rounds and capacity rounds, interleaved.

        The first paced round runs on the set-up service; every other
        round gets a fresh service and cache. A traced run makes one
        paced round, traced, then capacity rounds that alternate
        untraced and traced, whose pairs give the tracing overhead.

        A host-speed probe (:mod:`calibrate`) runs right before and
        after every round; the round keeps their mean as ``probe_s``.
        """
        paced_schedule, capacity_schedule = self.schedules(seconds)
        # One event loop, so one default executor, for every round, as a
        # long-running deployment has. A loop per round started new
        # worker threads each time, and peak memory varied with the
        # allocator arenas they happened to get.
        loop = asyncio.new_event_loop()

        def run(service, schedule, paced, name, traced=False):
            def drive():
                return loop.run_until_complete(
                    self._drive(service, schedule, paced, name)
                )

            before = calibrate.probe_median()
            if not traced:
                phase = drive()
            else:
                with ledger.recording(name):
                    phase = drive()
                phase.traced = True
            phase.probe_s = 0.5 * (before + calibrate.probe_median())
            return phase

        paced, capacity = [], []
        try:
            if ledger is None:
                for i in range(self.ROUNDS):
                    service = self.service if i == 0 else self.new_service()
                    paced.append(run(service, paced_schedule, True, f"paced-{i}"))
                    del service  # let new_service() collect it
                    capacity.append(
                        run(self.new_service(), capacity_schedule, False, f"capacity-{i}")
                    )
            else:
                paced.append(run(self.service, paced_schedule, True, "paced", traced=True))
                for i in range(self.ROUNDS):
                    capacity.append(
                        run(self.new_service(), capacity_schedule, False,
                            f"capacity-{i}", traced=i % 2 == 1)
                    )
        finally:
            loop.run_until_complete(loop.shutdown_default_executor())
            loop.close()
        return paced, capacity

    # -- correctness ----------------------------------------------------
    def reference(self, coords: Sequence[Tuple[int, int, int]]) -> None:
        """Fill the serial-path answer for every coordinate not yet known."""
        from repro.serve import CaptureRequest

        missing = sorted(set(coords) - set(self._reference))
        requests = [CaptureRequest(-1, d, s, r) for d, s, r in missing]
        for key, response in zip(missing, self.service.serial_reference(requests)):
            self._reference[key] = response.deterministic_fields()[1:]

    def check(self, phase: Phase) -> List[bool]:
        """Per request: answered ``ok`` with the serial path's fields."""
        self.reference([s.coords for s in phase.sent])
        return [
            s.response.status == "ok"
            and s.response.deterministic_fields()[1:] == self._reference[s.coords]
            for s in phase.sent
        ]

    def expected_digest(self, phases: Sequence[Phase]) -> str:
        """Digest of the serial path's answers to every request sent."""
        digest = Digest()
        for phase in phases:
            self.reference([s.coords for s in phase.sent])
            for s in sorted(phase.sent, key=lambda s: s.request_id):
                digest.add((s.request_id,) + self._reference[s.coords])
        return digest.hexdigest()

    @staticmethod
    def observed_digest(phases: Sequence[Phase]) -> str:
        digest = Digest()
        for phase in phases:
            for s in sorted(phase.sent, key=lambda s: s.request_id):
                digest.add(s.response.deterministic_fields())
        return digest.hexdigest()

    def reference_digest(self, seconds: float) -> str:
        """Serial-path digest of the paced + capacity schedules."""
        paced, capacity = self.schedules(seconds)
        phases = [
            Phase("paced", 0, 0, [_planned(p) for p in paced], {}),
            Phase("capacity", 0, 0, [_planned(p) for p in capacity], {}),
        ]
        return self.expected_digest(phases)


def _planned(planned) -> Sent:
    return Sent(planned.request_id, (planned.device, planned.scene, planned.repeat), 0, 0)


WORKLOADS = {w.name: w for w in (Capture, Serve, Train)}
