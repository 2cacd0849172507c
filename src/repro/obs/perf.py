"""Performance analysis over recorded telemetry (the HPC observatory).

The tracer (``repro.obs.trace``) and metrics registry record *what
happened*; this module turns those records into the analysis the
paper's scaling figures actually need:

* **per-rank timelines** — seconds classified into compute / comm /
  wait per simulated rank, built from the rank-labelled counters the
  HPC substrate emits (``repro_rank_compute_seconds_total{rank=...}``
  and friends) or, for trace-only analysis, from the per-rank arrays
  attached to ``dsv.*`` span attributes;
* **load-imbalance statistics** — max/mean busy time, idle fraction;
* a rank x rank **communication matrix** (messages + bytes) from the
  per-pair ledger ``CommStats`` keeps next to its aggregate counters;
* **critical-path extraction** over the span tree: the root-to-leaf
  chain that dominates the run, and the top-k spans by *self time*
  (duration minus child durations) along it.

Everything is serializable: a :class:`PerfAnalysis` embeds into a
``RunReport`` (the ``perf`` section) and reconstructs from a saved
Chrome trace (span ids ride along in the events), so ``repro analyze``
works offline from either artifact.

Like the rest of ``repro.obs`` this module is a leaf: it imports only
its sibling ``trace`` module and the standard library, never the HPC
or driver layers it describes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.trace import SpanRecord

__all__ = [
    "RankTimeline",
    "ImbalanceStats",
    "CommMatrix",
    "CriticalPathEntry",
    "CriticalPath",
    "PerfAnalysis",
    "critical_path",
    "spans_from_chrome_trace",
]

# Counter families the HPC substrate emits with a {rank="k"} label.
RANK_COMPUTE_COUNTER = "repro_rank_compute_seconds_total"
RANK_COMM_COUNTER = "repro_rank_comm_seconds_total"
# Simulated-schedule busy time per rank (LPT batch scheduler).
RANK_SCHED_BUSY_COUNTER = "repro_sched_rank_busy_sim_seconds_total"
# Peak ledger bytes per rank (repro.obs.memory mirrors this gauge).
RANK_MEMORY_GAUGE = "repro_rank_memory_peak_bytes"


# -- per-rank timelines -------------------------------------------------------


@dataclass
class RankTimeline:
    """Seconds one rank spent in each activity class.

    ``wait_s`` is imbalance wait: the gap between this rank's busy
    time (compute + comm) and the busiest rank's — the time it would
    sit at the next barrier in a real collective-synchronous run.
    """

    rank: int
    compute_s: float = 0.0
    comm_s: float = 0.0
    wait_s: float = 0.0

    @property
    def busy_s(self) -> float:
        return self.compute_s + self.comm_s

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rank": self.rank,
            "compute_s": self.compute_s,
            "comm_s": self.comm_s,
            "wait_s": self.wait_s,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "RankTimeline":
        return cls(
            rank=int(d["rank"]),
            compute_s=float(d.get("compute_s", 0.0)),
            comm_s=float(d.get("comm_s", 0.0)),
            wait_s=float(d.get("wait_s", 0.0)),
        )


@dataclass
class ImbalanceStats:
    """Load-imbalance summary over a set of rank timelines."""

    max_busy_s: float = 0.0
    mean_busy_s: float = 0.0
    imbalance: float = 1.0  # max/mean; 1.0 = perfectly balanced
    idle_fraction: float = 0.0  # mean wait / makespan

    def to_dict(self) -> Dict[str, Any]:
        return {
            "max_busy_s": self.max_busy_s,
            "mean_busy_s": self.mean_busy_s,
            "imbalance": self.imbalance,
            "idle_fraction": self.idle_fraction,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "ImbalanceStats":
        return cls(
            max_busy_s=float(d.get("max_busy_s", 0.0)),
            mean_busy_s=float(d.get("mean_busy_s", 0.0)),
            imbalance=float(d.get("imbalance", 1.0)),
            idle_fraction=float(d.get("idle_fraction", 0.0)),
        )

    @classmethod
    def from_timelines(
        cls, timelines: Sequence[RankTimeline]
    ) -> "ImbalanceStats":
        if not timelines:
            return cls()
        busy = [t.busy_s for t in timelines]
        max_busy = max(busy)
        mean_busy = sum(busy) / len(busy)
        makespan = max_busy
        idle = (
            sum(t.wait_s for t in timelines) / (len(timelines) * makespan)
            if makespan > 0
            else 0.0
        )
        return cls(
            max_busy_s=max_busy,
            mean_busy_s=mean_busy,
            imbalance=max_busy / mean_busy if mean_busy > 0 else 1.0,
            idle_fraction=idle,
        )


def _fill_wait(timelines: Sequence[RankTimeline]) -> None:
    """Set each timeline's wait to the gap behind the busiest rank."""
    if not timelines:
        return
    makespan = max(t.busy_s for t in timelines)
    for t in timelines:
        t.wait_s = max(0.0, makespan - t.busy_s)


# -- communication matrix -----------------------------------------------------


@dataclass
class CommMatrix:
    """Rank x rank point-to-point traffic (messages and bytes).

    Built from the per-pair ledger ``CommStats`` maintains; row = source
    rank, column = destination rank.  ``total_bytes``/``total_messages``
    equal the aggregate ``CommStats`` point-to-point counters by
    construction — the consistency the acceptance tests assert.
    """

    num_ranks: int = 0
    messages: List[List[int]] = field(default_factory=list)
    bytes: List[List[int]] = field(default_factory=list)

    @property
    def total_messages(self) -> int:
        return sum(sum(row) for row in self.messages)

    @property
    def total_bytes(self) -> int:
        return sum(sum(row) for row in self.bytes)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "num_ranks": self.num_ranks,
            "messages": self.messages,
            "bytes": self.bytes,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "CommMatrix":
        return cls(
            num_ranks=int(d.get("num_ranks", 0)),
            messages=[list(map(int, row)) for row in d.get("messages", [])],
            bytes=[list(map(int, row)) for row in d.get("bytes", [])],
        )

    @classmethod
    def from_pairs(
        cls,
        pair_messages: Mapping[str, int],
        pair_bytes: Mapping[str, int],
        num_ranks: Optional[int] = None,
    ) -> "CommMatrix":
        """Build from the ``"src->dst"``-keyed pair ledgers of
        ``CommStats`` (or their JSON round-trip)."""
        pairs: List[Tuple[int, int]] = []
        for key in list(pair_messages) + list(pair_bytes):
            src, _, dst = str(key).partition("->")
            pairs.append((int(src), int(dst)))
        if num_ranks is None:
            num_ranks = 1 + max((max(s, d) for s, d in pairs), default=-1)
        if num_ranks <= 0:
            return cls()
        msg = [[0] * num_ranks for _ in range(num_ranks)]
        byt = [[0] * num_ranks for _ in range(num_ranks)]
        for key, count in pair_messages.items():
            src, _, dst = str(key).partition("->")
            msg[int(src)][int(dst)] += int(count)
        for key, count in pair_bytes.items():
            src, _, dst = str(key).partition("->")
            byt[int(src)][int(dst)] += int(count)
        return cls(num_ranks=num_ranks, messages=msg, bytes=byt)


# -- critical path ------------------------------------------------------------


@dataclass
class CriticalPathEntry:
    """One span on the critical path."""

    name: str
    category: str
    depth: int
    duration_us: float
    self_us: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "category": self.category,
            "depth": self.depth,
            "duration_us": self.duration_us,
            "self_us": self.self_us,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "CriticalPathEntry":
        return cls(
            name=str(d["name"]),
            category=str(d.get("category", "")),
            depth=int(d.get("depth", 0)),
            duration_us=float(d.get("duration_us", 0.0)),
            self_us=float(d.get("self_us", 0.0)),
        )


@dataclass
class CriticalPath:
    """The dominant root-to-leaf chain of the span tree.

    ``entries`` lists the chain root-first; ``duration_us`` is the root
    entry's duration (and therefore bounds every deeper entry).
    ``top_self`` is the top-k of the chain by self time — where on the
    critical path the run actually spent its exclusive time.
    """

    entries: List[CriticalPathEntry] = field(default_factory=list)
    top_self: List[CriticalPathEntry] = field(default_factory=list)

    @property
    def duration_us(self) -> float:
        return self.entries[0].duration_us if self.entries else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "entries": [e.to_dict() for e in self.entries],
            "top_self": [e.to_dict() for e in self.top_self],
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "CriticalPath":
        return cls(
            entries=[CriticalPathEntry.from_dict(e) for e in d.get("entries", [])],
            top_self=[CriticalPathEntry.from_dict(e) for e in d.get("top_self", [])],
        )


def critical_path(spans: Sequence[SpanRecord], top_k: int = 10) -> CriticalPath:
    """Extract the critical path from a span forest.

    Starting at the longest root span, repeatedly descend into the
    child with the largest duration until a leaf is reached.  Self
    time is a span's duration minus the summed durations of its direct
    children, clamped at zero (clock jitter can make children appear
    marginally longer than their parent).
    """
    if not spans:
        return CriticalPath()
    children: Dict[Optional[int], List[SpanRecord]] = {}
    for s in spans:
        children.setdefault(s.parent_id, []).append(s)
    known_ids = {s.span_id for s in spans}
    # roots: no parent, or a parent that fell outside the recording
    # window (max_spans drop, trace truncation)
    roots = [s for s in spans if s.parent_id is None or s.parent_id not in known_ids]
    if not roots:
        return CriticalPath()
    node = max(roots, key=lambda s: s.duration_us)
    chain: List[CriticalPathEntry] = []
    depth = 0
    while node is not None:
        kids = children.get(node.span_id, [])
        child_total = sum(k.duration_us for k in kids)
        chain.append(
            CriticalPathEntry(
                name=node.name,
                category=node.category,
                depth=depth,
                duration_us=node.duration_us,
                self_us=max(0.0, node.duration_us - child_total),
            )
        )
        node = max(kids, key=lambda s: s.duration_us) if kids else None
        depth += 1
    top = sorted(chain, key=lambda e: -e.self_us)[: max(0, top_k)]
    return CriticalPath(entries=chain, top_self=top)


def span_self_times(spans: Sequence[SpanRecord]) -> Dict[int, float]:
    """Self time (duration minus direct children, clamped >= 0) per
    span id, for the whole forest."""
    child_total: Dict[Optional[int], float] = {}
    for s in spans:
        child_total[s.parent_id] = child_total.get(s.parent_id, 0.0) + s.duration_us
    return {
        s.span_id: max(0.0, s.duration_us - child_total.get(s.span_id, 0.0))
        for s in spans
    }


# -- chrome-trace round trip --------------------------------------------------


def spans_from_chrome_trace(payload: Mapping[str, Any]) -> List[SpanRecord]:
    """Reconstruct :class:`SpanRecord` objects from a Chrome trace the
    tracer exported (span/parent ids ride along as ``sid``/``psid``)."""
    spans: List[SpanRecord] = []
    for k, ev in enumerate(payload.get("traceEvents", [])):
        if ev.get("ph") != "X":
            continue
        args = dict(ev.get("args", {}))
        spans.append(
            SpanRecord(
                span_id=int(ev.get("sid", k)),
                parent_id=(None if ev.get("psid") is None else int(ev["psid"])),
                name=str(ev.get("name", "")),
                category=str(ev.get("cat", "")),
                start_us=float(ev.get("ts", 0.0)),
                duration_us=float(ev.get("dur", 0.0)),
                thread_id=int(ev.get("tid", 0)),
                depth=0,
                attributes=args,
                sim_start_s=args.get("sim_start_s"),
                sim_duration_s=args.get("sim_duration_s"),
            )
        )
    return spans


# -- the aggregate analysis ---------------------------------------------------


def _rank_seconds_from_metrics(
    metrics: Sequence[Mapping[str, Any]], counter_name: str
) -> Dict[int, float]:
    out: Dict[int, float] = {}
    for m in metrics:
        if m.get("name") != counter_name:
            continue
        rank = m.get("labels", {}).get("rank")
        if rank is None:
            continue
        out[int(rank)] = out.get(int(rank), 0.0) + float(m.get("value", 0.0))
    return out


def _rank_seconds_from_spans(
    spans: Sequence[SpanRecord], attr: str
) -> Dict[int, float]:
    """Fallback for trace-only analysis: per-rank second arrays attached
    as span attributes (``rank_compute_s`` / ``rank_comm_s``)."""
    out: Dict[int, float] = {}
    for s in spans:
        values = s.attributes.get(attr)
        if not isinstance(values, (list, tuple)):
            continue
        for rank, v in enumerate(values):
            out[rank] = out.get(rank, 0.0) + float(v)
    return out


@dataclass
class PerfAnalysis:
    """The full observatory view of one run: rank timelines, comm
    matrix, imbalance statistics, and the critical path."""

    timelines: List[RankTimeline] = field(default_factory=list)
    imbalance: ImbalanceStats = field(default_factory=ImbalanceStats)
    comm_matrix: CommMatrix = field(default_factory=CommMatrix)
    path: CriticalPath = field(default_factory=CriticalPath)
    # simulated-schedule busy seconds per rank (LPT scheduler), kept
    # apart from the wall-clock timelines: different currency
    sched_busy_sim_s: Dict[int, float] = field(default_factory=dict)
    # peak ledger bytes per rank (third currency: memory)
    rank_memory_bytes: Dict[int, float] = field(default_factory=dict)

    @property
    def is_empty(self) -> bool:
        return not (
            self.timelines
            or self.sched_busy_sim_s
            or self.rank_memory_bytes
            or self.comm_matrix.num_ranks
            or self.path.entries
        )

    # -- construction --------------------------------------------------------

    @classmethod
    def from_sources(
        cls,
        spans: Sequence[SpanRecord] = (),
        metrics: Sequence[Mapping[str, Any]] = (),
        comm: Optional[Mapping[str, Any]] = None,
        top_k: int = 10,
    ) -> "PerfAnalysis":
        """Build from any combination of recorded spans, a metrics
        snapshot, and a ``CommStats``-shaped mapping."""
        compute = _rank_seconds_from_metrics(metrics, RANK_COMPUTE_COUNTER)
        comm_s = _rank_seconds_from_metrics(metrics, RANK_COMM_COUNTER)
        if not compute and not comm_s:
            compute = _rank_seconds_from_spans(spans, "rank_compute_s")
            comm_s = _rank_seconds_from_spans(spans, "rank_comm_s")
        ranks = sorted(set(compute) | set(comm_s))
        timelines = [
            RankTimeline(
                rank=k,
                compute_s=compute.get(k, 0.0),
                comm_s=comm_s.get(k, 0.0),
            )
            for k in ranks
        ]
        _fill_wait(timelines)
        matrix = CommMatrix()
        if comm:
            pair_messages = comm.get("pair_messages") or {}
            pair_bytes = comm.get("pair_bytes") or {}
            if pair_messages or pair_bytes:
                matrix = CommMatrix.from_pairs(pair_messages, pair_bytes)
        return cls(
            timelines=timelines,
            imbalance=ImbalanceStats.from_timelines(timelines),
            comm_matrix=matrix,
            path=critical_path(spans, top_k=top_k),
            sched_busy_sim_s=_rank_seconds_from_metrics(
                metrics, RANK_SCHED_BUSY_COUNTER
            ),
            rank_memory_bytes=_rank_seconds_from_metrics(
                metrics, RANK_MEMORY_GAUGE
            ),
        )

    @classmethod
    def from_tracer(
        cls,
        tracer: Optional[object] = None,
        registry: Optional[object] = None,
        comm_stats: Optional[object] = None,
        top_k: int = 10,
    ) -> "PerfAnalysis":
        """Build from live objects (defaults to the process globals)."""
        from repro import obs  # local: obs/__init__ imports this module

        tracer = tracer if tracer is not None else obs.get_tracer()
        registry = registry if registry is not None else obs.get_registry()
        comm: Optional[Dict[str, Any]] = None
        if comm_stats is not None:
            from repro.obs.report import as_plain_dict

            comm = as_plain_dict(comm_stats)
        return cls.from_sources(
            spans=list(tracer.spans),
            metrics=registry.snapshot(),
            comm=comm,
            top_k=top_k,
        )

    @classmethod
    def from_chrome_trace(
        cls, payload: Mapping[str, Any], top_k: int = 10
    ) -> "PerfAnalysis":
        return cls.from_sources(
            spans=spans_from_chrome_trace(payload), top_k=top_k
        )

    @classmethod
    def from_chrome_trace_file(cls, path: str, top_k: int = 10) -> "PerfAnalysis":
        with open(path) as fh:
            return cls.from_chrome_trace(json.load(fh), top_k=top_k)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "timelines": [t.to_dict() for t in self.timelines],
            "imbalance": self.imbalance.to_dict(),
            "comm_matrix": self.comm_matrix.to_dict(),
            "critical_path": self.path.to_dict(),
            "sched_busy_sim_s": {
                str(k): v for k, v in sorted(self.sched_busy_sim_s.items())
            },
            "rank_memory_bytes": {
                str(k): v for k, v in sorted(self.rank_memory_bytes.items())
            },
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "PerfAnalysis":
        return cls(
            timelines=[RankTimeline.from_dict(t) for t in d.get("timelines", [])],
            imbalance=ImbalanceStats.from_dict(d.get("imbalance", {})),
            comm_matrix=CommMatrix.from_dict(d.get("comm_matrix", {})),
            path=CriticalPath.from_dict(d.get("critical_path", {})),
            sched_busy_sim_s={
                int(k): float(v)
                for k, v in d.get("sched_busy_sim_s", {}).items()
            },
            rank_memory_bytes={
                int(k): float(v)
                for k, v in d.get("rank_memory_bytes", {}).items()
            },
        )

    # -- presentation --------------------------------------------------------

    def render(self, top_k: int = 10) -> str:
        """Human-readable multi-section performance report."""
        lines: List[str] = []
        if self.timelines:
            lines.append("-- per-rank timeline (wall seconds) --")
            lines.append(
                f"  {'rank':>4} {'compute_s':>12} {'comm_s':>12} "
                f"{'wait_s':>12} {'busy_s':>12}"
            )
            for t in self.timelines:
                lines.append(
                    f"  {t.rank:>4} {t.compute_s:>12.6f} {t.comm_s:>12.6f} "
                    f"{t.wait_s:>12.6f} {t.busy_s:>12.6f}"
                )
            imb = self.imbalance
            lines.append(
                f"  imbalance (max/mean): {imb.imbalance:.3f}   "
                f"idle fraction: {imb.idle_fraction:.1%}"
            )
        if self.sched_busy_sim_s:
            lines.append("-- scheduled busy time (simulated seconds) --")
            makespan = max(self.sched_busy_sim_s.values(), default=0.0)
            for k, busy in sorted(self.sched_busy_sim_s.items()):
                bar = "#" * int(30 * busy / makespan) if makespan > 0 else ""
                lines.append(f"  rank {k:>3} {busy:>12.6f}  {bar}")
        if self.rank_memory_bytes:
            from repro.obs.report import format_bytes  # sibling leaf module

            lines.append("-- per-rank memory (peak ledger bytes) --")
            peak = max(self.rank_memory_bytes.values(), default=0.0)
            for k, nbytes in sorted(self.rank_memory_bytes.items()):
                bar = "#" * int(30 * nbytes / peak) if peak > 0 else ""
                lines.append(
                    f"  rank {k:>3} {format_bytes(nbytes):>12}  {bar}"
                )
        if self.comm_matrix.num_ranks:
            m = self.comm_matrix
            lines.append(
                f"-- communication matrix ({m.num_ranks} ranks; "
                f"msgs / bytes; row=src, col=dst) --"
            )
            header = "  " + " " * 6 + "".join(
                f"{('r' + str(j)):>16}" for j in range(m.num_ranks)
            )
            lines.append(header)
            for i in range(m.num_ranks):
                cells = "".join(
                    f"{m.messages[i][j]:>6}/{m.bytes[i][j]:<9}"
                    for j in range(m.num_ranks)
                )
                lines.append(f"  r{i:<4} {cells}")
            lines.append(
                f"  totals: {m.total_messages} messages, {m.total_bytes} bytes"
            )
        if self.path.entries:
            lines.append("-- critical path (root -> leaf) --")
            for e in self.path.entries:
                lines.append(
                    f"  {'  ' * e.depth}{e.name:<30} "
                    f"{e.duration_us / 1e6:>10.6f}s  (self {e.self_us / 1e6:.6f}s)"
                )
            lines.append(f"-- top {min(top_k, len(self.path.top_self))} "
                         f"critical-path spans by self time --")
            for e in self.path.top_self[:top_k]:
                lines.append(
                    f"  {e.name:<30} self {e.self_us / 1e6:>10.6f}s  "
                    f"of {e.duration_us / 1e6:.6f}s"
                )
        if not lines:
            lines.append("(no performance data recorded)")
        return "\n".join(lines)
