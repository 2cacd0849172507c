"""Structured event bus: the durable "what happened" log.

Metrics say *how much*, traces say *how long* — events say *what
happened, in order*.  The campaign server and the recovery machinery
emit one :class:`Event` per state transition (admit, shed, dispatch,
complete, timeout, retry, breaker trip, rank loss, drain, checkpoint,
injected fault, flight-recorder verdict), and this module makes that
stream durable and consumable:

* **Append-only JSONL log** — one JSON object per line, written
  through an :class:`EventBus` bound to a file.  The format is
  schema-versioned (``v`` field) so readers can reject records from a
  future writer instead of misparsing them.
* **Crash-safe by construction** — a ``kill -9`` mid-write leaves at
  most one torn final line.  The writer truncates a torn tail before
  appending (so a partial record can never merge with the next one),
  and :func:`read_events` skips an unparseable final line.
* **Bounded size** — when the live file exceeds ``max_bytes`` it is
  rotated to ``<path>.1`` (one generation kept), so a long-running
  server's event history is bounded while ``repro top`` still sees a
  deep window.
* **In-process subscribers** — callables registered with
  :meth:`EventBus.subscribe` see every event as it is emitted; the SLO
  engine (:mod:`repro.obs.slo`) folds the stream live this way.
* **Sequence-numbered** — ``seq`` is strictly increasing and continues
  across process restarts (the bus scans the existing log tail on
  open), which is what the soak test's replay-consistency check keys
  on.

The module-level :func:`emit` routes to one process-global bus (set by
the campaign server, or by tests); with no bus installed it is a
constant-time no-op, so library code (``repro.core``, ``repro.hpc``)
can emit unconditionally without violating the disabled-overhead
budget enforced by ``benchmarks/bench_obs_overhead.py``.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

__all__ = [
    "EVENT_SCHEMA_VERSION",
    "Event",
    "EventBus",
    "read_events",
    "set_bus",
    "get_bus",
    "emit",
]

EVENT_SCHEMA_VERSION = 1


@dataclass
class Event:
    """One structured occurrence on the bus."""

    seq: int
    type: str
    t_wall: float
    t_sim: Optional[float] = None
    attrs: Dict[str, Any] = field(default_factory=dict)
    version: int = EVENT_SCHEMA_VERSION

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "v": self.version,
            "seq": self.seq,
            "type": self.type,
            "t_wall": self.t_wall,
        }
        if self.t_sim is not None:
            out["t_sim"] = self.t_sim
        if self.attrs:
            out["attrs"] = self.attrs
        return out

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Event":
        version = payload.get("v")
        if not isinstance(version, int) or version > EVENT_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported event schema version {version!r} "
                f"(this reader speaks <= {EVENT_SCHEMA_VERSION})"
            )
        return cls(
            seq=int(payload["seq"]),
            type=str(payload["type"]),
            t_wall=float(payload["t_wall"]),
            t_sim=(
                float(payload["t_sim"]) if payload.get("t_sim") is not None else None
            ),
            attrs=dict(payload.get("attrs", {})),
            version=version,
        )

    def time(self, source: str = "wall") -> float:
        """Event timestamp on the requested clock; ``sim`` falls back
        to wall time for events that carried no simulated stamp."""
        if source == "sim" and self.t_sim is not None:
            return self.t_sim
        return self.t_wall


def _truncate_torn_tail(path: str) -> None:
    """Drop a partial final line left by a crash mid-append, so the
    next append starts on a clean record boundary."""
    try:
        size = os.path.getsize(path)
    except OSError:
        return
    if size == 0:
        return
    with open(path, "rb+") as fh:
        fh.seek(-1, os.SEEK_END)
        if fh.read(1) == b"\n":
            return
        # walk back to the last newline (or the start) and truncate
        data = None
        with open(path, "rb") as rd:
            data = rd.read()
        cut = data.rfind(b"\n")
        fh.truncate(cut + 1 if cut >= 0 else 0)


def _last_seq(path: str) -> int:
    """Highest seq in an existing log (0 if none readable)."""
    last = 0
    for ev in _read_one_file(path):
        if ev.seq > last:
            last = ev.seq
    return last


def _read_one_file(path: str) -> List[Event]:
    if not os.path.isfile(path):
        return []
    out: List[Event] = []
    with open(path, "rb") as fh:
        lines = fh.read().split(b"\n")
    for i, raw in enumerate(lines):
        if not raw.strip():
            continue
        try:
            out.append(Event.from_dict(json.loads(raw.decode("utf-8"))))
        except (ValueError, KeyError, TypeError, UnicodeDecodeError):
            if i == len(lines) - 1:
                continue  # torn tail from a crash mid-write
            continue  # unreadable interior line: skip, don't abort
    return out


def read_events(path: str, include_rotated: bool = True) -> List[Event]:
    """Load the event log (rotated generation first), tolerating a torn
    tail and unreadable lines.  This is the out-of-process reader the
    ``repro top`` dashboard uses."""
    events: List[Event] = []
    if include_rotated:
        events.extend(_read_one_file(path + ".1"))
    events.extend(_read_one_file(path))
    events.sort(key=lambda e: e.seq)
    return events


class EventBus:
    """Append-only, size-bounded, subscriber-fanout event writer.

    Parameters
    ----------
    path:
        JSONL log file (``None`` = in-memory only: subscribers still
        fire, nothing is persisted — handy for tests).
    max_bytes:
        Rotate the live file to ``<path>.1`` once it grows past this.
    sim_clock:
        Optional object with a ``now`` attribute
        (:class:`repro.hpc.perfmodel.SimulatedClock`); when set, every
        event carries a ``t_sim`` stamp next to wall time.
    wall_clock:
        Injectable wall-time source (default ``time.time``).
    """

    def __init__(
        self,
        path: Optional[str] = None,
        max_bytes: int = 4_000_000,
        sim_clock: Optional[object] = None,
        wall_clock: Callable[[], float] = time.time,
    ):
        if max_bytes < 1024:
            raise ValueError("max_bytes must be >= 1024")
        self.path = path
        self.max_bytes = max_bytes
        self.sim_clock = sim_clock
        self.wall_clock = wall_clock
        self._subscribers: List[Callable[[Event], None]] = []
        self._fh = None
        # the bus is process-global, so any thread of the process may
        # emit; the lock keeps seq strictly increasing and lines un-torn
        self._lock = threading.Lock()
        self.seq = 0
        self.emitted = 0
        if path is not None:
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
            _truncate_torn_tail(path)
            self.seq = max(_last_seq(path), _last_seq(path + ".1"))
            self._fh = open(path, "a", encoding="utf-8")

    # -- emission -------------------------------------------------------------

    def emit(self, type: str, **attrs: Any) -> Event:
        """Append one event (and fan it out to subscribers)."""
        with self._lock:
            self.seq += 1
            self.emitted += 1
            event = Event(
                seq=self.seq,
                type=type,
                t_wall=self.wall_clock(),
                t_sim=(
                    float(self.sim_clock.now) if self.sim_clock is not None else None
                ),
                attrs={k: v for k, v in attrs.items() if v is not None},
            )
            if self._fh is not None:
                self._fh.write(json.dumps(event.to_dict()) + "\n")
                self._fh.flush()
                self._maybe_rotate()
            subscribers = list(self._subscribers)
        for fn in subscribers:
            fn(event)
        return event

    def _maybe_rotate(self) -> None:
        assert self.path is not None and self._fh is not None
        if self._fh.tell() < self.max_bytes:
            return
        self._fh.close()
        os.replace(self.path, self.path + ".1")
        self._fh = open(self.path, "a", encoding="utf-8")

    # -- subscribers ----------------------------------------------------------

    def subscribe(self, fn: Callable[[Event], None]) -> Callable[[Event], None]:
        """Register a live consumer; returns ``fn`` for unsubscribing."""
        self._subscribers.append(fn)
        return fn

    def unsubscribe(self, fn: Callable[[Event], None]) -> None:
        try:
            self._subscribers.remove(fn)
        except ValueError:
            pass

    # -- lifecycle ------------------------------------------------------------

    def read(self) -> List[Event]:
        """Everything persisted so far (rotated + live)."""
        if self.path is None:
            return []
        if self._fh is not None:
            self._fh.flush()
        return read_events(self.path)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        if get_bus() is self:
            set_bus(None)


# -- process-global routing ---------------------------------------------------

_BUS: Optional[EventBus] = None


def set_bus(bus: Optional[EventBus]) -> None:
    """Install (or, with None, remove) the process-global bus that
    :func:`emit` routes to."""
    global _BUS
    _BUS = bus


def get_bus() -> Optional[EventBus]:
    return _BUS


def emit(type: str, **attrs: Any) -> Optional[Event]:
    """Emit on the global bus; constant-time no-op when none is
    installed (the hot-path contract)."""
    if _BUS is None:
        return None
    return _BUS.emit(type, **attrs)
