"""Exportable run reports: one serializable summary per run.

A :class:`RunReport` rolls everything the stack observed into a single
JSON-able object:

* per-span aggregates from the tracer (name, count, total seconds),
* the metrics registry snapshot,
* the pre-existing domain ledgers — ``CommStats`` byte counters,
  ``RetryStats`` and the ``FaultLedger`` — normalized into plain dicts,
* the performance analysis (``repro.obs.perf``): per-rank timelines,
  the rank-to-rank communication matrix, load-imbalance statistics,
  and the critical path through the span tree,
* convergence traces (per-iteration energy, gradient norm, error),
* free-form ``meta`` (command line, molecule, qubit count, ...).

The report is attached to driver results (``VQEResult.report``,
``AdaptResult.report``, ``CampaignResult.report``), embedded in
campaign checkpoints, and written/pretty-printed by the CLI
(``--report-out`` / ``repro report``).

This module imports nothing from ``repro`` outside ``repro.obs`` but
the standard-library-only ``repro.utils.files`` — ledgers are converted
by duck typing, so the observability layer stays
a leaf dependency every other layer may import.

Version history: v1 had no ``perf`` section; v2 added it; v3 added the
``flight`` section (convergence flight-recorder verdicts and samples,
:mod:`repro.obs.flight`); v4 added the ``memory`` section (allocation-
ledger watermarks, :mod:`repro.obs.memory`).  Loading an older payload
yields the newer sections empty and ignores its ``cache`` key.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.utils.files import atomic_write

__all__ = ["RunReport", "as_plain_dict", "format_bytes"]

REPORT_VERSION = 4
_READABLE_VERSIONS = (1, 2, 3, 4)


def as_plain_dict(obj: Any) -> Dict[str, Any]:
    """Best-effort conversion of a stats/ledger object to a JSON-able
    dict: dataclasses via ``asdict``, ``FaultLedger``-likes via their
    ``by_kind``/``count``, mappings verbatim, else public scalar attrs."""
    if obj is None:
        return {}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if hasattr(obj, "by_kind") and hasattr(obj, "count"):  # FaultLedger
        return {
            "events": int(obj.count()),
            "by_kind": dict(obj.by_kind()),
            "summary": obj.summary() if hasattr(obj, "summary") else "",
        }
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(obj).items()}
    out: Dict[str, Any] = {}
    for name in dir(obj):
        if name.startswith("_"):
            continue
        value = getattr(obj, name)
        if isinstance(value, (int, float, str, bool)):
            out[name] = value
    return out


def format_bytes(n: float) -> str:
    """Human-readable byte count (binary units)."""
    n = float(n)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(n) < 1024.0 or unit == "TiB":
            return f"{n:.0f}{unit}" if unit == "B" else f"{n:.1f}{unit}"
        n /= 1024.0
    return f"{n:.1f}TiB"


def _jsonable(v: Any) -> Any:
    if isinstance(v, (int, float, str, bool)) or v is None:
        return v
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return str(v)


@dataclass
class RunReport:
    """Aggregated observability summary of one run."""

    meta: Dict[str, Any] = field(default_factory=dict)
    spans: List[Dict[str, Any]] = field(default_factory=list)
    metrics: List[Dict[str, Any]] = field(default_factory=list)
    comm: Dict[str, Any] = field(default_factory=dict)
    faults: Dict[str, Any] = field(default_factory=dict)
    perf: Dict[str, Any] = field(default_factory=dict)
    flight: Dict[str, Any] = field(default_factory=dict)
    memory: Dict[str, Any] = field(default_factory=dict)
    convergence: Dict[str, List[float]] = field(default_factory=dict)
    wall_time_s: Optional[float] = None
    created_unix: float = 0.0
    version: int = REPORT_VERSION

    # -- construction -------------------------------------------------------

    @classmethod
    def collect(
        cls,
        meta: Optional[Dict[str, Any]] = None,
        tracer: Optional[object] = None,
        registry: Optional[object] = None,
        comm_stats: Optional[object] = None,
        fault_ledger: Optional[object] = None,
        convergence: Optional[Dict[str, List[float]]] = None,
        flight: Optional[Dict[str, Any]] = None,
        memory: Optional[object] = None,
        wall_time_s: Optional[float] = None,
    ) -> "RunReport":
        """Build a report from live objects.  ``tracer``/``registry``
        default to the process-global ones (``repro.obs``)."""
        if tracer is None or registry is None:
            from repro import obs  # local import: obs/__init__ imports us

            tracer = tracer if tracer is not None else obs.get_tracer()
            registry = registry if registry is not None else obs.get_registry()
        spans = [
            {
                "name": name,
                "count": count,
                "total_s": total,
                "mean_s": total / count if count else 0.0,
            }
            for name, (total, count) in sorted(
                tracer.totals().items(), key=lambda kv: -kv[1][0]
            )
        ]
        from repro.obs.perf import PerfAnalysis  # local: sibling leaf module

        analysis = PerfAnalysis.from_sources(
            spans=getattr(tracer, "spans", []),
            metrics=registry.snapshot(),
            comm=as_plain_dict(comm_stats),
        )
        if memory is None:
            from repro import obs

            memory = obs.get_memory_ledger()
        mem_payload: Dict[str, Any] = (
            memory.to_dict() if hasattr(memory, "to_dict") else dict(memory)
        )
        if not mem_payload.get("allocs_total") and not mem_payload.get("peak_bytes"):
            mem_payload = {}  # ledger never saw an allocation: omit the section
        return cls(
            meta=dict(meta or {}),
            spans=spans,
            metrics=registry.snapshot(),
            comm=as_plain_dict(comm_stats),
            faults=as_plain_dict(fault_ledger),
            perf={} if analysis.is_empty else analysis.to_dict(),
            flight=dict(flight or {}),
            memory=mem_payload,
            convergence={
                k: [float(x) for x in v] for k, v in (convergence or {}).items()
            },
            wall_time_s=wall_time_s,
            created_unix=time.time(),
        )

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": self.version,
            "created_unix": self.created_unix,
            "meta": _jsonable(self.meta),
            "wall_time_s": self.wall_time_s,
            "spans": _jsonable(self.spans),
            "metrics": _jsonable(self.metrics),
            "comm": _jsonable(self.comm),
            "faults": _jsonable(self.faults),
            "perf": _jsonable(self.perf),
            "flight": _jsonable(self.flight),
            "memory": _jsonable(self.memory),
            "convergence": _jsonable(self.convergence),
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def save(self, path: str) -> None:
        atomic_write(path, self.to_json())

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RunReport":
        version = payload.get("version")
        if version not in _READABLE_VERSIONS:
            raise ValueError(f"unsupported run-report version: {version!r}")
        return cls(
            meta=dict(payload.get("meta", {})),
            spans=list(payload.get("spans", [])),
            metrics=list(payload.get("metrics", [])),
            comm=dict(payload.get("comm", {})),
            faults=dict(payload.get("faults", {})),
            perf=dict(payload.get("perf", {})),
            flight=dict(payload.get("flight", {})),
            memory=dict(payload.get("memory", {})),
            convergence={
                k: list(v) for k, v in payload.get("convergence", {}).items()
            },
            wall_time_s=payload.get("wall_time_s"),
            created_unix=float(payload.get("created_unix", 0.0)),
            version=int(version),
        )

    @classmethod
    def load(cls, path: str) -> "RunReport":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    # -- presentation -------------------------------------------------------

    def memory_summary(self) -> str:
        """Render the memory section alone (also used by
        ``repro analyze --memory``)."""
        mem = self.memory
        if not mem:
            return "-- memory --\n  (no allocations recorded)"
        lines = ["-- memory --"]
        lines.append(
            f"  {'peak_bytes':22s} {format_bytes(mem.get('peak_bytes', 0)):>10s}"
            f"   live={format_bytes(mem.get('live_bytes', 0))}"
            f"   buffers={mem.get('tracked_buffers', 0)}"
        )
        peaks = mem.get("peak_by_category", {})
        for cat in sorted(peaks, key=lambda c: -peaks[c]):
            live = mem.get("live_by_category", {}).get(cat, 0)
            lines.append(
                f"    {cat:20s} peak={format_bytes(peaks[cat]):>10s}"
                f"  live={format_bytes(live):>10s}"
            )
        rank_peaks = mem.get("peak_by_rank", {})
        if rank_peaks:
            cells = "  ".join(
                f"r{r}={format_bytes(rank_peaks[r])}"
                for r in sorted(rank_peaks, key=lambda x: int(x))
            )
            lines.append(f"  {'peak_by_rank':22s} {cells}")
        top = mem.get("top_spans", {})
        if top:
            lines.append("  top allocating spans:")
            for name, nbytes in list(top.items())[:8]:
                lines.append(f"    {name:30s} {format_bytes(nbytes):>10s}")
        return "\n".join(lines)

    def summary(self) -> str:
        """Human-readable multi-section report."""
        lines: List[str] = []
        title = self.meta.get("command", "run report")
        lines.append(f"=== {title} ===")
        for k, v in sorted(self.meta.items()):
            if k != "command":
                lines.append(f"  {k:22s} {v}")
        if self.wall_time_s is not None:
            lines.append(f"  {'wall_time_s':22s} {self.wall_time_s:.3f}")
        if self.spans:
            lines.append("-- spans (slowest first) --")
            for s in self.spans:
                lines.append(
                    f"  {s['name']:30s} {s['total_s']:10.4f}s  x{s['count']}"
                )
        if self.flight:
            lines.append("-- flight recorder --")
            verdict = self.flight.get("verdict", "ok")
            detail = self.flight.get("verdict_detail", "")
            lines.append(
                f"  {'verdict':22s} {verdict}"
                + (f" ({detail})" if detail else "")
            )
            for key in ("num_samples", "best_energy", "verdict_at"):
                if self.flight.get(key) is not None:
                    lines.append(f"  {key:22s} {self.flight[key]}")
        if self.memory:
            lines.append(self.memory_summary())
        if self.convergence:
            lines.append("-- convergence --")
            for name, values in sorted(self.convergence.items()):
                if not values:
                    continue
                lines.append(
                    f"  {name:22s} n={len(values)}  first={values[0]:+.6g}  "
                    f"last={values[-1]:+.6g}"
                )
        for section, data in (
            ("comm", self.comm),
            ("faults", self.faults),
        ):
            lines.append(f"-- {section} --")
            if not data:
                lines.append("  (none recorded)")
                continue
            for k, v in sorted(data.items()):
                if isinstance(v, dict):
                    v = ", ".join(f"{a}={b}" for a, b in sorted(v.items()))
                lines.append(f"  {k:22s} {v}")
        if self.perf:
            from repro.obs.perf import PerfAnalysis

            rendered = PerfAnalysis.from_dict(self.perf).render()
            if rendered and "(no performance data" not in rendered:
                lines.append(rendered)
        counters = [m for m in self.metrics if m.get("type") == "counter"]
        if counters:
            lines.append("-- counters --")
            for m in counters:
                label = "".join(
                    f"{{{a}={b}}}" for a, b in sorted(m.get("labels", {}).items())
                )
                lines.append(f"  {m['name'] + label:38s} {m['value']:g}")
        histograms = [
            m
            for m in self.metrics
            if m.get("type") == "histogram" and m.get("count")
        ]
        if histograms:
            lines.append("-- histogram quantiles --")
            for m in histograms:
                label = "".join(
                    f"{{{a}={b}}}" for a, b in sorted(m.get("labels", {}).items())
                )
                q = m.get("quantiles") or {}
                cells = "  ".join(
                    f"{name}={q[name]:.4g}"
                    for name in ("p50", "p95", "p99")
                    if q.get(name) is not None
                )
                lines.append(
                    f"  {m['name'] + label:38s} n={m['count']}"
                    + (f"  {cells}" if cells else "")
                )
        return "\n".join(lines)
