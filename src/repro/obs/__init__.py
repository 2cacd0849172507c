"""repro.obs — the unified observability layer.

Zero-dependency tracing + metrics + run reports for the whole stack:

* :mod:`repro.obs.trace` — hierarchical span tracer with Chrome
  trace-event export (view in Perfetto),
* :mod:`repro.obs.metrics` — process-wide counters / gauges /
  histograms with Prometheus text exposition and JSONL snapshots,
* :mod:`repro.obs.report` — the serializable :class:`RunReport`
  aggregating spans, metrics, and the domain ledgers,
* :mod:`repro.obs.perf` — the performance observatory: per-rank
  attribution, communication matrix, load imbalance, critical path,
* :mod:`repro.obs.events` — the durable structured event bus (append-
  only, schema-versioned JSONL with rotation and subscribers),
* :mod:`repro.obs.slo` — per-tenant SLIs / SLO objectives with
  multi-window burn-rate alerting,
* :mod:`repro.obs.flight` — the convergence flight recorder with
  stall / divergence / barren-plateau detectors,
* :mod:`repro.obs.dashboard` — the out-of-process ``repro top`` view,
* :mod:`repro.obs.memory` — the allocation ledger + capacity model
  behind memory-aware admission and the RunReport memory section.

The module-level helpers below are the *instrumentation API* the hot
paths use.  They route to one process-global tracer/registry behind a
single ``_ENABLED`` flag, and when observability is off (the default)
every helper is a constant-time no-op — the disabled overhead budget
is enforced by ``benchmarks/bench_obs_overhead.py``.

Typical use::

    from repro import obs

    obs.enable()                       # or: repro vqe h2 --profile
    with obs.span("sim.run_circuit", gates=128):
        ...
    obs.inc("repro_vqe_energy_evaluations_total")
    print(obs.get_registry().expose())
    obs.get_tracer().write_chrome_trace("trace.json")
"""

from __future__ import annotations

import weakref
from typing import Any, Dict, Optional, Sequence

from repro._lazy import name_table
from repro.obs.events import (
    Event,
    EventBus,
    get_bus as get_event_bus,
    read_events,
    set_bus as set_event_bus,
)
from repro.obs.events import emit as emit_event
from repro.obs.flight import FlightConfig, FlightRecorder, FlightSample
from repro.obs.memory import (
    MemoryLedger,
    estimate_statevector_job_bytes,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import NULL_SPAN, SpanRecord, Tracer

# The analysis side (reports, perf attribution, SLOs, the dashboard)
# runs after a solve or out of process, so it is imported on first use.
_, __getattr__, __dir__ = name_table(
    __name__,
    {
        "dashboard": ["Dashboard"],
        "perf": [
            "CommMatrix",
            "CriticalPath",
            "ImbalanceStats",
            "PerfAnalysis",
            "RankTimeline",
            "critical_path",
        ],
        "report": ["RunReport", "as_plain_dict"],
        "slo": ["FLEET", "SLOAlert", "SLOConfig", "SLOEngine", "SLOReport"],
    },
)

__all__ = [
    "Tracer",
    "SpanRecord",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_BUCKETS",
    "RunReport",
    "as_plain_dict",
    "PerfAnalysis",
    "RankTimeline",
    "ImbalanceStats",
    "CommMatrix",
    "CriticalPath",
    "critical_path",
    "Event",
    "EventBus",
    "read_events",
    "emit_event",
    "get_event_bus",
    "set_event_bus",
    "SLOConfig",
    "SLOAlert",
    "SLOReport",
    "SLOEngine",
    "FLEET",
    "FlightConfig",
    "FlightSample",
    "FlightRecorder",
    "Dashboard",
    "MemoryLedger",
    "estimate_statevector_job_bytes",
    "get_memory_ledger",
    "mem_alloc",
    "mem_free",
    "mem_resize",
    "mem_track",
    "configure",
    "enable",
    "disable",
    "enabled",
    "get_tracer",
    "get_registry",
    "span",
    "inc",
    "observe",
    "gauge_set",
]

_ENABLED = False
_TRACER = Tracer(enabled=False)
_REGISTRY = MetricsRegistry()
# The allocation ledger is a process-lifetime singleton: buffer owners
# (simulators, compiled observables, caches) hold handles into it, so it
# is never replaced — ``reset()`` rebases its watermarks instead.
_MEMORY = MemoryLedger(gauge_hook=lambda *a, **k: gauge_set(*a, **k))


def configure(
    enabled: bool = True,
    tracer: Optional[Tracer] = None,
    registry: Optional[MetricsRegistry] = None,
    clock: Optional[object] = None,
) -> None:
    """(Re)configure the global observability state.

    ``clock`` attaches a simulated clock to the tracer so spans carry
    simulated time next to wall-clock.
    """
    global _ENABLED, _TRACER, _REGISTRY
    if tracer is not None:
        _TRACER = tracer
    if registry is not None:
        _REGISTRY = registry
    if clock is not None:
        _TRACER.clock = clock
    _ENABLED = bool(enabled)
    _TRACER.enabled = _ENABLED
    if _ENABLED:
        # an enabled solve ends in collect_report: load the report side
        # here, in set-up, rather than first inside the solve
        from repro.obs import perf, report  # noqa: F401


def enable() -> None:
    configure(enabled=True)


def disable() -> None:
    configure(enabled=False)


def enabled() -> bool:
    return _ENABLED


def get_tracer() -> Tracer:
    return _TRACER


def get_registry() -> MetricsRegistry:
    return _REGISTRY


def set_clock(clock: Optional[object]) -> None:
    """Attach (or detach, with None) a simulated clock to the tracer."""
    _TRACER.clock = clock


# -- hot-path helpers (constant-time no-ops when disabled) -------------------


def span(name: str, category: str = "repro", **attributes: Any):
    """Open a span on the global tracer (no-op span when disabled)."""
    if not _ENABLED:
        return NULL_SPAN
    return _TRACER.span(name, category, **attributes)


def inc(name: str, amount: float = 1.0, help: str = "", labels: Optional[Dict[str, str]] = None) -> None:
    """Increment a global counter (no-op when disabled)."""
    if not _ENABLED:
        return
    _REGISTRY.counter(name, help=help, labels=labels).inc(amount)


def observe(
    name: str,
    value: float,
    help: str = "",
    buckets: Sequence[float] = DEFAULT_BUCKETS,
    labels: Optional[Dict[str, str]] = None,
) -> None:
    """Record a histogram observation (no-op when disabled)."""
    if not _ENABLED:
        return
    _REGISTRY.histogram(name, help=help, buckets=buckets, labels=labels).observe(value)


def gauge_set(name: str, value: float, help: str = "", labels: Optional[Dict[str, str]] = None) -> None:
    """Set a global gauge (no-op when disabled)."""
    if not _ENABLED:
        return
    _REGISTRY.gauge(name, help=help, labels=labels).set(value)


def get_memory_ledger() -> MemoryLedger:
    return _MEMORY


def mem_alloc(category: str, nbytes: int, rank: Optional[int] = None) -> int:
    """Register a buffer with the memory ledger, attributed to the
    innermost open span.  Returns a handle for :func:`mem_free` /
    :func:`mem_resize`; returns the no-op handle 0 when disabled."""
    if not _ENABLED:
        return 0
    return _MEMORY.alloc(category, nbytes, rank=rank, span=_TRACER.current_span_name())


def mem_free(handle: int) -> None:
    """Release a ledger handle.  Deliberately *not* gated on the enabled
    flag: an owner allocated while enabled may be garbage-collected
    after a ``disable()``, and its bytes must still leave the ledger.
    Handle 0 (and any unknown handle) is a no-op."""
    _MEMORY.free(handle)


def mem_resize(handle: int, nbytes: int) -> None:
    """Adjust a registered buffer's size (no-op for handle 0)."""
    _MEMORY.resize(handle, nbytes)


def mem_track(obj: Any, category: str, nbytes: int, rank: Optional[int] = None) -> int:
    """Register a buffer whose lifetime follows ``obj``: the ledger
    entry is freed automatically when ``obj`` is garbage-collected.
    For owners with explicit close/replace points, prefer
    :func:`mem_alloc` + :func:`mem_free`."""
    if not _ENABLED:
        return 0
    handle = mem_alloc(category, nbytes, rank=rank)
    weakref.finalize(obj, _MEMORY.free, handle)
    return handle


def collect_report(**kwargs: Any) -> RunReport:
    """Build a :class:`RunReport` from the global tracer/registry."""
    from repro.obs.report import RunReport

    return RunReport.collect(tracer=_TRACER, registry=_REGISTRY, memory=_MEMORY, **kwargs)


def reset() -> None:
    """Clear recorded spans and metrics (keeps the enabled flag).
    The memory ledger rebases: still-live buffers stay accounted, the
    watermarks restart from the current live level."""
    _TRACER.reset()
    _REGISTRY.reset()
    _MEMORY.reset()
