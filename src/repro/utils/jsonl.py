"""Append-only JSON-lines files whose last line may be torn.

A process killed mid-write leaves at most its last line incomplete.
Readers skip lines that do not parse; writers terminate such a line
before appending, so it never merges with the next record.
"""

from __future__ import annotations

import json
import os
from typing import Any, BinaryIO, Callable, Dict, Hashable, List, Optional, Tuple

__all__ = ["KeyedLog", "open_append", "parse_line", "parse_lines"]


def open_append(path: str) -> BinaryIO:
    """Binary append handle on ``path`` (created if missing) whose next
    write starts on a fresh line.  The handle can also be read with
    ``os.pread``."""
    fh = open(path, "a+b")
    if fh.seek(0, os.SEEK_END):
        fh.seek(-1, os.SEEK_END)
        if fh.read(1) != b"\n":
            fh.write(b"\n")
    return fh


def parse_line(raw: bytes) -> Any:
    """The JSON value of one line, or ``None`` if it does not parse."""
    try:
        return json.loads(raw)
    except ValueError:  # torn or garbled line (incl. bad UTF-8)
        return None


def parse_lines(data: bytes) -> List[Any]:
    """Every line of ``data`` that parses as JSON, in file order."""
    values = []
    for raw in data.splitlines():
        value = parse_line(raw)
        if value is not None:
            values.append(value)
    return values


class KeyedLog:
    """An append-only JSON-lines file of objects, folded by key: the
    last line per key that parses wins.

    ``key_of(obj)`` names the key of one line's object (a line it
    raises ``KeyError`` or ``TypeError`` on belongs to no key).  Only
    each key's byte range is held in memory; :meth:`get` reads and
    parses the line again, and reads a line that no longer parses as
    absent.  The file is opened for appends on the first append and
    stays open until :meth:`close`; every append is flushed, none
    fsynced.
    """

    def __init__(self, path: str, key_of: Callable[[Dict[str, Any]], Hashable]):
        self.path = path
        self._key_of = key_of
        self._fh: Optional[BinaryIO] = None
        self._end = 0  # where the handle's last append ended
        # key -> (offset, length) of its last line that parsed
        self._index: Dict[Hashable, Tuple[int, int]] = {}
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            data = b""
        parsed = 0
        offset = 0
        for raw in data.splitlines(keepends=True):
            obj = parse_line(raw)
            if obj is not None:
                parsed += 1
                key = self._line_key(obj)
                if key is not None:
                    self._index[key] = (offset, len(raw))
            offset += len(raw)
        # bytes on disk of which no line parses as JSON
        self.unreadable = bool(data.strip()) and not parsed

    def _line_key(self, obj: Any) -> Optional[Hashable]:
        if not isinstance(obj, dict):
            return None
        try:
            key = self._key_of(obj)
            hash(key)
        except (KeyError, TypeError):
            return None
        return key

    def __contains__(self, key: Hashable) -> bool:
        return key in self._index

    def __len__(self) -> int:
        return len(self._index)

    def location(self, key: Hashable) -> Optional[Tuple[int, int]]:
        """``(offset, length)`` of the key's line, or ``None``."""
        return self._index.get(key)

    def get(self, key: Hashable) -> Optional[Dict[str, Any]]:
        """The object on the key's last line, or ``None`` when it has
        none or the line no longer parses to an object of that key."""
        loc = self._index.get(key)
        if loc is None:
            return None
        offset, length = loc
        if self._fh is not None:
            raw = os.pread(self._fh.fileno(), length, offset)
        else:  # nothing appended since open or close: no handle to keep
            with open(self.path, "rb") as fh:
                raw = os.pread(fh.fileno(), length, offset)
        obj = parse_line(raw)
        return obj if self._line_key(obj) == key else None

    def append(self, obj: Dict[str, Any]) -> None:
        """Write ``obj`` as one flushed line; it becomes its key's line."""
        line = json.dumps(obj).encode() + b"\n"
        fh = self._fh
        if fh is None:
            fh = self._fh = open_append(self.path)
            self._end = fh.tell()
        offset = fh.seek(0, os.SEEK_END)
        if offset != self._end and offset and os.pread(fh.fileno(), 1, offset - 1) != b"\n":
            fh.write(b"\n")  # the file was cut mid-line under us
            offset += 1
        fh.write(line)
        fh.flush()
        self._end = offset + len(line)
        self._index[self._key_of(obj)] = (offset, len(line))

    def forget(self, key: Hashable) -> None:
        """Drop the key from the in-memory index (its lines stay)."""
        self._index.pop(key, None)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
