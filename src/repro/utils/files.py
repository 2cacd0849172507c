"""Atomic whole-file writes."""

from __future__ import annotations

import os

__all__ = ["atomic_write"]


def atomic_write(path: str, text: str) -> None:
    """Replace ``path`` with ``text`` by writing ``path + ".tmp"`` and
    renaming it over, so a reader (or a crash) never sees a torn file."""
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)
