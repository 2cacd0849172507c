"""``repro top`` — the live operator view of a campaign server.

Everything here is reconstructed **out-of-process from on-disk
artifacts only**: the atomically-published ``status.json``, the
append-only event log (``events.jsonl`` + one rotated generation), and
the optional metrics snapshot (``metrics.jsonl``).  No server
internals are imported — the dashboard works on a live server, a
killed one, or a copied-away state directory, and it can never disturb
the service it is watching.

* :meth:`Dashboard.snapshot` assembles one point-in-time view: fleet
  health, queue composition, per-tenant job states, SLO report with
  burn alerts (:mod:`repro.obs.slo` replayed over the event log),
  flight-recorder verdicts, and the recent event tail.
* :meth:`Dashboard.render` draws it as a fixed-layout text screen;
  ``repro top`` redraws it in place with plain ANSI cursor-home (no
  curses), and ``--once`` / ``--json`` serve scripting and CI.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, List, Optional

from repro.obs.events import Event, read_events
from repro.obs.slo import FLEET, SLOConfig, SLOEngine

__all__ = ["Dashboard"]

# ANSI: cursor home + clear-to-end (redraw in place without flicker)
CLEAR = "\x1b[H\x1b[J"

_EVENTS_FILE = "events.jsonl"
_METRICS_FILE = "metrics.jsonl"
_STATUS_FILE = "status.json"


def _read_json(path: str) -> Optional[Dict[str, Any]]:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None


def _read_jsonl(path: str) -> List[Dict[str, Any]]:
    rows: List[Dict[str, Any]] = []
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    rows.append(json.loads(line))
                except json.JSONDecodeError:
                    continue  # torn tail
    except OSError:
        pass
    return rows


def _fmt(value: Optional[float], digits: int = 3) -> str:
    if value is None:
        return "-"
    return f"{value:.{digits}g}"


class Dashboard:
    """Read-only assembler/renderer of a server state directory."""

    def __init__(
        self,
        state_dir: str,
        slo_config: Optional[SLOConfig] = None,
        event_limit: int = 12,
    ):
        self.state_dir = state_dir
        self.slo_config = slo_config or SLOConfig()
        self.event_limit = event_limit

    # -- gathering ------------------------------------------------------------

    def snapshot(self, now: Optional[float] = None) -> Dict[str, Any]:
        """One point-in-time view, purely from on-disk artifacts."""
        status = _read_json(os.path.join(self.state_dir, _STATUS_FILE)) or {}
        health = status.get("health", {})
        jobs = status.get("jobs", [])
        events = read_events(os.path.join(self.state_dir, _EVENTS_FILE))
        metrics = _read_jsonl(os.path.join(self.state_dir, _METRICS_FILE))

        engine = SLOEngine(self.slo_config, time_source="wall")
        for event in events:
            engine.ingest(event)
        if metrics:
            engine.observe_metrics(metrics, now=events[-1].t_wall if events else None)
        slo = engine.report(now=now)

        # last flight verdict per job (events carry job context)
        flight: Dict[str, Dict[str, Any]] = {}
        for event in events:
            if event.type == "flight.verdict":
                job_id = str(event.attrs.get("job_id", event.attrs.get("kind", "?")))
                flight[job_id] = {
                    "verdict": event.attrs.get("verdict"),
                    "detail": event.attrs.get("detail", ""),
                    "index": event.attrs.get("index"),
                    "tenant": event.attrs.get("tenant"),
                }
        # job-table flight column from status.json too (server mirrors
        # the recorder's verdict there), events win when present
        tenants: Dict[str, Dict[str, int]] = {}
        tenant_bytes: Dict[str, int] = {}
        for job in jobs:
            tenant = str(job.get("tenant", "?"))
            t = tenants.setdefault(tenant, {})
            state = str(job.get("state", "?"))
            t[state] = t.get(state, 0) + 1
            if state in ("queued", "running"):
                # live predicted footprint per tenant (capacity model)
                tenant_bytes[tenant] = tenant_bytes.get(tenant, 0) + int(
                    job.get("est_bytes", 0) or 0
                )

        return {
            "state_dir": self.state_dir,
            "at": now if now is not None else time.time(),
            "health": health,
            "tenants": tenants,
            "tenant_bytes": tenant_bytes,
            "memory": health.get("memory", {}),
            "batch": health.get("batch", {}),
            "jobs": jobs,
            "slo": slo.to_dict(),
            "alerts": [a.to_dict() for a in slo.alerts],
            "flight": flight,
            "events_total": len(events),
            "recent_events": [
                self._event_row(e) for e in events[-self.event_limit:]
            ],
        }

    @staticmethod
    def _event_row(event: Event) -> Dict[str, Any]:
        return {
            "seq": event.seq,
            "type": event.type,
            "t_wall": event.t_wall,
            "attrs": event.attrs,
        }

    # -- rendering ------------------------------------------------------------

    def render(self, snap: Optional[Dict[str, Any]] = None) -> str:
        """Fixed-layout text screen for one snapshot."""
        if snap is None:
            snap = self.snapshot()
        health = snap["health"]
        lines: List[str] = []
        status = health.get("status", "unknown")
        alive = health.get("alive_ranks", [])
        lost = health.get("lost_ranks", [])
        lines.append(
            f"repro top — {snap['state_dir']}   "
            f"[{status}]   ticks={health.get('ticks', '-')}   "
            f"seq={health.get('journal_seq', '-')}"
        )
        lines.append(
            f"fleet: {len(alive)} ranks alive"
            + (f", lost {lost}" if lost else "")
            + f"   queue={health.get('queue_depth', 0)}"
            + f" running={health.get('running', 0)}"
            + f" dedup={health.get('dedup_hits', 0)}"
            + f" shed={health.get('shed', 0)}"
        )
        by_state = health.get("jobs", {})
        if by_state:
            lines.append(
                "jobs:  "
                + "  ".join(f"{k}={v}" for k, v in sorted(by_state.items()))
            )
        mem = snap.get("memory") or {}
        if mem:
            from repro.obs.report import format_bytes

            lines.append(
                "memory: queued "
                f"{format_bytes(mem.get('queued_est_bytes', 0))}"
                f" + running {format_bytes(mem.get('running_est_bytes', 0))}"
                f" of pool {format_bytes(mem.get('fleet_capacity_bytes', 0))}"
                f"   ledger live {format_bytes(mem.get('ledger_live_bytes', 0))}"
                f" peak {format_bytes(mem.get('ledger_peak_bytes', 0))}"
            )
        batch = snap.get("batch") or {}
        if batch:
            lines.append(
                "batch:  "
                f"waves={batch.get('waves', 0)}"
                f" groups={batch.get('groups_executed', 0)}"
                f" batched={batch.get('batched_evals', 0)}"
                f" solo={batch.get('solo_evals', 0)}"
                f"   occupancy mean/max "
                f"{batch.get('mean_occupancy', 0)}/"
                f"{batch.get('max_occupancy', 0)}"
            )
        # per-tenant table with SLO columns
        slo_tenants = snap["slo"].get("tenants", {})
        tenant_names = sorted(set(snap["tenants"]) | set(slo_tenants) - {FLEET})
        if tenant_names:
            lines.append("")
            lines.append(
                f"{'tenant':12s} {'queued':>6} {'running':>7} {'done':>5} "
                f"{'mem':>9} "
                f"{'qlat p95':>9} {'hit%':>6} {'shed%':>6} {'alerts':>6}"
            )
            from repro.obs.report import format_bytes as _fb

            for name in tenant_names:
                counts = snap["tenants"].get(name, {})
                slis = slo_tenants.get(name, {})
                ql = slis.get("queue_latency_s", {})
                dh = slis.get("deadline_hit_ratio", {})
                sr = slis.get("shed_rate", {})
                n_alerts = sum(
                    1 for a in snap["alerts"] if a["tenant"] == name
                )
                done = sum(
                    v
                    for k, v in counts.items()
                    if k not in ("queued", "running")
                )
                hit = dh.get("ratio")
                shed = sr.get("rate")
                live_bytes = snap.get("tenant_bytes", {}).get(name, 0)
                lines.append(
                    f"{name[:12]:12s} {counts.get('queued', 0):>6} "
                    f"{counts.get('running', 0):>7} {done:>5} "
                    f"{(_fb(live_bytes) if live_bytes else '-'):>9} "
                    f"{_fmt(ql.get('p95')):>9} "
                    f"{_fmt(hit * 100 if hit is not None else None, 4):>6} "
                    f"{_fmt(shed * 100 if shed is not None else None, 3):>6} "
                    f"{n_alerts:>6}"
                )
        fleet = slo_tenants.get(FLEET, {})
        td = fleet.get("tick_duration_s")
        ev = fleet.get("evals_per_s")
        if td or ev:
            parts = []
            if td:
                parts.append(
                    f"tick p50/p95 {_fmt(td.get('p50'))}/"
                    f"{_fmt(td.get('p95'))}s (target {td.get('target_s')}s)"
                )
            if ev and ev.get("rate") is not None:
                parts.append(f"evals/s {_fmt(ev['rate'])}")
            lines.append("fleet SLIs: " + "   ".join(parts))
        if snap["alerts"]:
            lines.append("")
            lines.append("ALERTS (multi-window burn):")
            for a in snap["alerts"]:
                lines.append(
                    f"  !! {a['tenant']:10s} {a['sli']:20s} "
                    f"burn {a['burn_short']:g}x/{a['burn_long']:g}x  "
                    f"{a['detail']}"
                )
        if snap["flight"]:
            lines.append("")
            lines.append("flight recorder:")
            for job_id, verdict in sorted(snap["flight"].items()):
                lines.append(
                    f"  {job_id:20s} {str(verdict.get('verdict')):14s} "
                    f"{verdict.get('detail', '')}"
                )
        if snap["recent_events"]:
            lines.append("")
            lines.append(f"recent events ({snap['events_total']} total):")
            for row in snap["recent_events"]:
                attrs = row["attrs"]
                keys = (
                    "job_id",
                    "tenant",
                    "verdict",
                    "rank",
                    "reason",
                    "duration_s",
                )
                detail = " ".join(
                    f"{k}={attrs[k]}" for k in keys if k in attrs
                )
                lines.append(f"  #{row['seq']:<6d} {row['type']:22s} {detail}")
        return "\n".join(lines)

    # -- live loop ------------------------------------------------------------

    def run(
        self,
        interval_s: float = 1.0,
        max_frames: Optional[int] = None,
        out=None,
    ) -> int:
        """Redraw-in-place loop (the interactive ``repro top``)."""
        import sys

        stream = out or sys.stdout
        frames = 0
        try:
            while True:
                stream.write(CLEAR + self.render() + "\n")
                stream.flush()
                frames += 1
                if max_frames is not None and frames >= max_frames:
                    return 0
                time.sleep(interval_s)
        except KeyboardInterrupt:
            return 0
