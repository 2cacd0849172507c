"""Crash-safe write-ahead journal for the campaign server.

Every state transition the server makes (submission accepted, job
started, job finished, rank lost, ...) is appended to a JSONL journal
*before* the transition takes effect, so a hard kill at any instant
loses at most the record being written.  Records carry:

* ``seq`` — a strictly increasing sequence number.  Replay is
  idempotent by construction: a fold over the journal ignores any
  record whose ``seq`` it has already applied, so replaying a prefix
  twice (or re-reading an overlapping journal after a crash) cannot
  double-apply a transition.  ``tests/test_serve.py`` pins this with a
  Hypothesis property.
* ``crc`` — CRC-32 of the canonical record body.  A torn final line
  (the classic crash-mid-append artifact) is detected, dropped on
  replay, and truncated away before the next append so it can never
  merge with a later record; corruption *before* the tail is a real
  integrity violation and raises :class:`JournalCorruptionError`.

The journal is the source of truth for job lifecycle; bulky state
(checkpointed parameters, converged results) lives next door in the
shared checkpoint log and the content-addressed store, keyed by job id
and content key.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = ["JournalCorruptionError", "JournalRecord", "Journal"]


class JournalCorruptionError(RuntimeError):
    """A record before the journal tail failed its integrity check."""


def _canonical(body: Dict[str, Any]) -> str:
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


@dataclass
class JournalRecord:
    """One journaled state transition."""

    seq: int
    type: str
    payload: Dict[str, Any] = field(default_factory=dict)

    def to_line(self) -> str:
        body = {"seq": self.seq, "type": self.type, "payload": self.payload}
        blob = _canonical(body)
        crc = zlib.crc32(blob.encode())
        body["crc"] = crc
        return json.dumps(body, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_line(cls, line: str) -> "JournalRecord":
        obj = json.loads(line)
        if not isinstance(obj, dict):
            raise ValueError("journal record is not an object")
        crc = obj.pop("crc", None)
        blob = _canonical(
            {"seq": obj["seq"], "type": obj["type"], "payload": obj["payload"]}
        )
        if crc != zlib.crc32(blob.encode()):
            raise ValueError("journal record checksum mismatch")
        return cls(seq=int(obj["seq"]), type=str(obj["type"]), payload=obj["payload"])


class Journal:
    """Append-only JSONL write-ahead journal.

    Parameters
    ----------
    path:
        Journal file; created (with parents) on first append.
    fsync:
        Force records to disk on every append.  Durable but slow —
        the soak test turns it on, the unit tests leave it off.
    """

    def __init__(self, path: str, fsync: bool = False):
        self.path = path
        self.fsync = fsync
        self._next_seq = 1
        self._fh = None
        self._tail_repair: Optional[Tuple[str, int]] = None
        existing = self.replay()
        if existing:
            self._next_seq = existing[-1].seq + 1

    # -- writing --------------------------------------------------------------

    def _repair_tail(self) -> None:
        """Make the file safe to append to.

        A torn final line would otherwise merge with the next appended
        record ('a' mode writes directly after the partial bytes),
        producing one unparseable line with valid records after it —
        which the *following* replay would reject as mid-file
        corruption.  So before the first append: truncate a torn tail
        back to the end of the last intact record, and complete a
        missing final newline.  Deliberately lazy (write path only), so
        read-only users (``repro status``, the soak checker) never
        mutate the journal.
        """
        if self._tail_repair is None or not os.path.isfile(self.path):
            self._tail_repair = None
            return
        kind, offset = self._tail_repair
        with open(self.path, "r+b") as fh:
            if kind == "truncate":
                fh.truncate(offset)
            else:  # "newline": last record is intact but unterminated
                fh.seek(0, os.SEEK_END)
                fh.write(b"\n")
        self._tail_repair = None

    def _ensure_open(self):
        if self._fh is None:
            os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
            self._repair_tail()
            self._fh = open(self.path, "a")
        return self._fh

    def append(self, type: str, **payload: Any) -> JournalRecord:
        """Durably append one record and return it."""
        record = JournalRecord(seq=self._next_seq, type=type, payload=payload)
        fh = self._ensure_open()
        fh.write(record.to_line() + "\n")
        fh.flush()
        if self.fsync:
            os.fsync(fh.fileno())
        self._next_seq += 1
        return record

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    # -- reading --------------------------------------------------------------

    def replay(self) -> List[JournalRecord]:
        """Read every intact record, dropping a torn tail.

        A record that fails to parse or checksum is tolerated only if
        nothing valid follows it (crash mid-append); otherwise the file
        was corrupted in place and :class:`JournalCorruptionError` is
        raised — restoring from a good copy beats silently resuming
        from a hole in history.

        Scanning also schedules a tail repair (applied before the next
        append, see :meth:`_repair_tail`) so a tolerated torn tail is
        physically removed rather than left to merge with future
        records.
        """
        self._tail_repair = None
        if not os.path.isfile(self.path):
            return []
        with open(self.path, "rb") as fh:
            data = fh.read()
        records: List[JournalRecord] = []
        bad_at: Optional[int] = None
        valid_end = 0  # byte offset just past the last intact line
        offset = 0
        lineno = 0
        for raw in data.splitlines(keepends=True):
            lineno += 1
            offset += len(raw)
            line = raw.decode("utf-8", errors="replace").strip()
            if not line:
                if bad_at is None:
                    valid_end = offset
                continue
            try:
                rec = JournalRecord.from_line(line)
            except (ValueError, KeyError) as err:
                if bad_at is None:
                    bad_at = lineno
                    last_err = err
                continue
            if bad_at is not None:
                raise JournalCorruptionError(
                    f"journal {self.path!r} line {bad_at} is corrupt "
                    f"({last_err}) but intact records follow it — "
                    "mid-file corruption, refusing to replay"
                )
            valid_end = offset
            if records and rec.seq <= records[-1].seq:
                # duplicate/out-of-order append (e.g. overlapping
                # replay written back); idempotent fold: skip it
                continue
            records.append(rec)
        if bad_at is not None:
            self._tail_repair = ("truncate", valid_end)
        elif data and not data.endswith(b"\n"):
            self._tail_repair = ("newline", len(data))
        return records

    def __iter__(self) -> Iterator[JournalRecord]:
        return iter(self.replay())
