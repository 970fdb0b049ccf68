"""Outside-in per-layer ledger: timers around the program's public entry points.

The benchmark never edits the program to trace it. Instead, a traced run
installs :class:`Ledger` wrappers around the public functions and
methods named in :mod:`layers` (``Phone.capture_raw``,
``ISPPipeline.process``, ``kernels.encode_jpeg_scan``, ...). Every
wrapped call opens one span on the program's own
:class:`repro.obs.trace.Tracer`, whose per-thread stacks give each span
its parent; the span's ``attrs`` carry the layer, the run phase, the
process CPU time and the call's counts (units, bytes, images, ...).

A layer's time is its spans' *self*-time: a span's duration minus the
part of it covered by child spans (:func:`self_times`). The traced wall
time not covered by any root span is reported as its own number
(:func:`unattributed`), so nothing hides inside a parent span.

Wrappers are transparent: they return exactly what the wrapped call
returns, and with ``Ledger.phase`` set to ``None`` they call straight
through, which is how a traced run times its untraced comparison passes.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from repro.obs.trace import Span

__all__ = [
    "Ledger",
    "end",
    "union_length",
    "self_times",
    "unattributed",
]

#: Extracts per-call counts from ``(args, kwargs, result)``.
Counter = Callable[[tuple, dict, object], Dict[str, float]]


def end(span: Span) -> float:
    return span.start + span.duration


class Ledger:
    """Records a span per wrapped call while ``phase`` is set.

    ``phase`` labels every span recorded while it is set (``"setup"``,
    ``"pass-3"``, ...); ``None`` turns recording off without removing the
    wrappers. Spans recorded in a worker thread form their own trees.

    Span starts count from the tracer's ``time.perf_counter`` origin,
    :attr:`epoch`; subtract it from a ``perf_counter`` reading to put that
    reading on the spans' clock.
    """

    def __init__(self) -> None:
        from repro.obs.trace import Tracer

        self.tracer = Tracer()
        self.epoch: float = self.tracer._epoch
        self.phase: Optional[str] = None
        self._undo: List[Callable[[], None]] = []

    # -- recording ------------------------------------------------------
    def timed(
        self,
        layer: str,
        name: str,
        fn: Callable,
        count: Optional[Counter] = None,
        cpu: bool = False,
    ) -> Callable:
        """Return ``fn`` wrapped to record a span per call."""
        ledger = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            phase = ledger.phase
            if phase is None:
                return fn(*args, **kwargs)
            with ledger.tracer.span(name, layer=layer, phase=phase) as span:
                cpu0 = time.process_time() if cpu else 0.0
                result = fn(*args, **kwargs)
                if cpu:
                    span.set(cpu=time.process_time() - cpu0)
                if count is not None:
                    span.set(**count(args, kwargs, result))
            return result

        return wrapper

    @contextlib.contextmanager
    def recording(self, phase: str):
        """Record spans labelled ``phase`` inside the ``with`` block."""
        self.phase = phase
        try:
            yield
        finally:
            self.phase = None

    # -- installation ---------------------------------------------------
    def patch_method(self, cls: type, attr: str, layer: str, name: str, **kw) -> None:
        """Wrap a method defined on ``cls`` itself (not inherited)."""
        original = cls.__dict__[attr]
        setattr(cls, attr, self.timed(layer, name, original, **kw))
        self.on_uninstall(lambda: setattr(cls, attr, original))

    def patch_function(self, module, attr: str, layer: str, name: str, **kw) -> None:
        """Wrap a module function and every ``from ... import`` binding of it.

        Modules that imported the function by name hold their own
        reference, so each loaded ``repro`` module attribute bound to the
        original object is replaced too.
        """
        original = getattr(module, attr)
        wrapper = self.timed(layer, name, original, **kw)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self.on_uninstall(
                        lambda mod=mod, key=key: setattr(mod, key, original)
                    )

    def on_uninstall(self, undo: Callable[[], None]) -> None:
        """Register a callable that reverts one patch."""
        self._undo.append(undo)

    def uninstall(self) -> None:
        """Revert every patch, newest first."""
        while self._undo:
            self._undo.pop()()

    # -- queries --------------------------------------------------------
    def in_phases(self, phases: Iterable[str]) -> List[Span]:
        """Spans recorded in any of ``phases``."""
        wanted = set(phases)
        return [s for s in self.tracer.finished() if s.attrs["phase"] in wanted]


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by a set of (possibly overlapping) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, stop in sorted(intervals):
        if stop <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, stop
        elif stop > cur_end:
            cur_end = stop
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Map span id -> duration minus the part its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append((span.start, end(span)))
    out = {}
    for span in spans:
        covered = union_length(
            (max(s, span.start), min(e, end(span)))
            for s, e in children.get(span.span_id, ())
        )
        out[span.span_id] = span.duration - covered
    return out


def unattributed(
    spans: Sequence[Span], windows: Sequence[Tuple[float, float]]
) -> float:
    """Wall time inside ``windows`` that no root span covers.

    A root span is one whose parent is not among ``spans``. For properly
    nested spans, the sum of :func:`self_times` over all spans plus this
    value equals the total window length.
    """
    ids = {s.span_id for s in spans}
    roots = [s for s in spans if s.parent_id not in ids]
    total = 0.0
    for w_start, w_end in windows:
        covered = union_length(
            (max(s.start, w_start), min(end(s), w_end)) for s in roots
        )
        total += (w_end - w_start) - covered
    return total
