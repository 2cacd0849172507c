"""Hierarchical span tracer with Chrome trace-event export.

A *span* is one timed section of work — "run this circuit", "screen
the pool", "exchange these slices" — opened as a context manager and
closed when the block exits.  Spans nest: the tracer keeps a per-thread
stack, so every span knows its parent and depth, and the whole run
becomes a tree whose timeline can be inspected three ways:

* ``Tracer.totals()`` — per-name aggregate (the ``Timer`` view),
* ``Tracer.to_chrome_trace()`` — Chrome trace-event JSON (open the
  file in Perfetto / ``chrome://tracing`` for a flame chart),
* ``RunReport`` (``repro.obs.report``) — the serializable summary.

Two clocks are recorded per span: real wall-clock
(``time.perf_counter``) and, when a
:class:`repro.hpc.perfmodel.SimulatedClock` is attached, the simulated
time the HPC substrate advances for communication/backoff — so traces
of simulated campaigns show both currencies side by side.

Disabled mode is the common case and must cost ~nothing: a disabled
tracer hands out one shared no-op span object and touches no state.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.utils.files import atomic_write

__all__ = ["SpanRecord", "Tracer", "NULL_SPAN"]


class _NullSpan:
    """Shared do-nothing span handed out by disabled tracers."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set_attribute(self, key: str, value: Any) -> None:
        pass


NULL_SPAN = _NullSpan()


@dataclass
class SpanRecord:
    """One completed span."""

    span_id: int
    parent_id: Optional[int]  # id of the enclosing span, None at root
    name: str
    category: str
    start_us: float  # relative to the tracer's epoch
    duration_us: float
    thread_id: int
    depth: int
    attributes: Dict[str, Any] = field(default_factory=dict)
    sim_start_s: Optional[float] = None
    sim_duration_s: Optional[float] = None


class _Span:
    """Live (open) span; becomes a :class:`SpanRecord` on exit."""

    __slots__ = ("_tracer", "name", "category", "attributes", "span_id", "_t0", "_sim0")

    def __init__(self, tracer: "Tracer", name: str, category: str, attributes: Dict[str, Any]):
        self._tracer = tracer
        self.name = name
        self.category = category
        self.attributes = attributes
        self.span_id = -1

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def __enter__(self) -> "_Span":
        self._t0 = time.perf_counter()
        clock = self._tracer.clock
        self._sim0 = clock.now if clock is not None else None
        self._tracer._push(self)
        return self

    def __exit__(self, *exc: object) -> bool:
        self._tracer._pop(self, time.perf_counter())
        return False


class Tracer:
    """Records a tree of timed spans.

    Parameters
    ----------
    enabled:
        When False, :meth:`span` returns the shared no-op span and the
        tracer records nothing.
    clock:
        Optional simulated clock (duck-typed: anything with a ``now``
        float attribute); spans then record simulated start/duration
        next to wall-clock.
    max_spans:
        Safety cap — once reached, further spans are counted in
        ``dropped_spans`` instead of stored, so a runaway loop cannot
        exhaust memory.
    """

    def __init__(
        self,
        enabled: bool = True,
        clock: Optional[object] = None,
        max_spans: int = 200_000,
    ):
        self.enabled = enabled
        self.clock = clock
        self.max_spans = max_spans
        self.spans: List[SpanRecord] = []
        self.dropped_spans = 0
        self.epoch = time.perf_counter()
        self._next_id = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- recording ----------------------------------------------------------

    def span(self, name: str, category: str = "repro", **attributes: Any):
        """Open a named span as a context manager."""
        if not self.enabled:
            return NULL_SPAN
        return _Span(self, name, category, attributes)

    def _stack(self) -> List[_Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, span: _Span) -> None:
        with self._lock:
            span.span_id = self._next_id
            self._next_id += 1
        self._stack().append(span)

    def _pop(self, span: _Span, t1: float) -> None:
        stack = self._stack()
        parent_id: Optional[int] = None
        if stack and stack[-1] is span:
            stack.pop()
        else:  # tolerate exotic exits (generator teardown etc.)
            try:
                stack.remove(span)
            except ValueError:
                pass
        if stack:
            parent_id = stack[-1].span_id
        depth = len(stack)
        with self._lock:
            if len(self.spans) >= self.max_spans:
                self.dropped_spans += 1
                return
            sim0 = span._sim0
            sim_dur = (
                self.clock.now - sim0
                if (sim0 is not None and self.clock is not None)
                else None
            )
            self.spans.append(
                SpanRecord(
                    span_id=span.span_id,
                    parent_id=parent_id,
                    name=span.name,
                    category=span.category,
                    start_us=(span._t0 - self.epoch) * 1e6,
                    duration_us=(t1 - span._t0) * 1e6,
                    thread_id=threading.get_ident(),
                    depth=depth,
                    attributes=span.attributes,
                    sim_start_s=sim0,
                    sim_duration_s=sim_dur,
                )
            )

    def current_span_name(self) -> str:
        """Name of the innermost open span on this thread ("" at root).
        Used by the memory ledger to attribute allocations to spans."""
        stack = getattr(self._local, "stack", None)
        if not stack:
            return ""
        return stack[-1].name

    # -- views --------------------------------------------------------------

    def totals(self) -> Dict[str, Tuple[float, int]]:
        """Per-name (total_seconds, count) aggregate, like ``Timer``."""
        out: Dict[str, Tuple[float, int]] = {}
        for s in self.spans:
            total, count = out.get(s.name, (0.0, 0))
            out[s.name] = (total + s.duration_us / 1e6, count + 1)
        return out

    def to_chrome_trace(self) -> Dict[str, Any]:
        """Chrome trace-event JSON (the ``traceEvents`` array of
        complete-duration ``"X"`` events), loadable in Perfetto."""
        pid = os.getpid()
        events: List[Dict[str, Any]] = []
        for s in self.spans:
            args: Dict[str, Any] = dict(s.attributes)
            if s.sim_duration_s is not None:
                args["sim_start_s"] = s.sim_start_s
                args["sim_duration_s"] = s.sim_duration_s
            # sid/psid are repro extensions (ignored by Perfetto): they
            # let repro.obs.perf rebuild the span tree from a saved
            # trace for offline critical-path analysis.
            events.append(
                {
                    "name": s.name,
                    "cat": s.category,
                    "ph": "X",
                    "ts": s.start_us,
                    "dur": s.duration_us,
                    "pid": pid,
                    "tid": s.thread_id,
                    "sid": s.span_id,
                    "psid": s.parent_id,
                    "args": args,
                }
            )
        events.sort(key=lambda e: e["ts"])
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str) -> None:
        """Serialize :meth:`to_chrome_trace` to ``path`` atomically."""
        atomic_write(path, json.dumps(self.to_chrome_trace()))

    def reset(self) -> None:
        with self._lock:
            self.spans.clear()
            self.dropped_spans = 0
            self.epoch = time.perf_counter()
            self._next_id = 0
        self._local = threading.local()
