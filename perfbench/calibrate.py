"""Host-speed calibration: a fixed reference computation timed between passes.

The hosts this benchmark runs on are shared virtual machines whose speed
drifts by a quarter or more over minutes, as other tenants come and go.
A run's own medians are precise, but two runs a few minutes apart can
sit in different speed regimes, and no amount of sampling inside one run
removes a shift that outlasts it.

So every run times :func:`probe` — a fixed mix of the kinds of work the
program does (NumPy elementwise and stencil arithmetic on float32 image
stacks, patch gathering, uint8 quantisation, ``zlib`` deflate and
interpreter-level dict and list work) — right before and after each timed
pass or round. The probe's code and inputs never change, so its duration
tracks only the host. Each timed duration ``t`` is then reported in
*reference seconds*, ``t * REFERENCE_S / probe_s``: what it would have
taken on a host that runs the probe in :data:`REFERENCE_S`. A program
change moves the reported figures exactly as it moves the raw ones; a
host slow spell moves the probe too and cancels. Raw figures are printed
in each run's ``notes`` beside the reference ones.
"""

from __future__ import annotations

import statistics
import time
import zlib
from typing import Sequence

import numpy as np

#: Probe time on the host the bounds were set on (2-vCPU shared VM,
#: Python 3.11, NumPy 2.4). It only sets the scale of the figures.
REFERENCE_S = 0.03

_RNG = np.random.default_rng(20211)
_IMAGES = _RNG.random((4, 96, 96, 3), dtype=np.float32)
_ROUNDS = 14


def _work() -> int:
    acc = 0
    for _ in range(_ROUNDS):
        x = np.clip(_IMAGES * 1.7 + 0.1, 0.0, 1.0) ** np.float32(0.45)
        k = (x[:, :-2, 1:-1] + 2 * x[:, 1:-1, 1:-1] + x[:, 2:, 1:-1]) * np.float32(0.25)
        q = np.round(k * 255).astype(np.uint8)
        patches = np.concatenate(
            [x[:, i : i + 32, j : j + 32] for i in range(3) for j in range(3)], axis=-1
        ).reshape(-1, 27)
        # No matrix product: a multi-threaded BLAS call this small costs
        # mostly the wake-up of its helper thread, which varies 50x.
        acc += int(patches.sum(axis=1).argmax())
        acc += len(zlib.compress(q[0].tobytes(), 6))
        counts = {}
        for v in q[0, :, :, 0].ravel()[:4000].tolist():
            counts[v] = counts.get(v, 0) + 1
        acc += sorted(counts.items())[-1][1]
    return acc


def probe() -> float:
    """Seconds one run of the fixed reference computation takes now."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def probe_median(count: int = 3) -> float:
    """Median of ``count`` back-to-back probes (one slow probe is ignored)."""
    return statistics.median(probe() for _ in range(count))


def scale(probe_s: float) -> float:
    """Factor that turns this host's seconds into reference seconds."""
    return REFERENCE_S / probe_s


def around(samples: Sequence[float], i: int) -> float:
    """Probe time around interval ``i``: the mean of the probes at its ends."""
    return 0.5 * (samples[i] + samples[i + 1])

