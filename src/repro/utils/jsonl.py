"""Append-only JSON-lines files whose last line may be torn.

A process killed mid-write leaves at most its last line incomplete.
Readers skip lines that do not parse; writers terminate such a line
before appending, so it never merges with the next record.
"""

from __future__ import annotations

import json
import os
from typing import Any, BinaryIO, List

__all__ = ["open_append", "parse_lines"]


def open_append(path: str) -> BinaryIO:
    """Binary append handle on ``path`` (created if missing) whose next
    write starts on a fresh line."""
    fh = open(path, "a+b")
    if fh.seek(0, os.SEEK_END):
        fh.seek(-1, os.SEEK_END)
        if fh.read(1) != b"\n":
            fh.write(b"\n")
    return fh


def parse_lines(data: bytes) -> List[Any]:
    """Every line of ``data`` that parses as JSON, in file order."""
    values = []
    for raw in data.splitlines():
        try:
            values.append(json.loads(raw))
        except ValueError:  # torn or garbled line (incl. bad UTF-8)
            continue
    return values
