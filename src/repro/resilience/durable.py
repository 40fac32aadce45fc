"""Durable file operations: the one place that fsyncs what a crash must keep.

A write survives a crash only once its bytes are fsync'd *and* the directory
entry that names it is fsync'd too.  :func:`atomic_write_text` is the
publish sequence every small state file uses — the phase-journal manifest,
the ``CURRENT`` version pointer, ``LAST_UPDATE.json`` and an update's
``update.json``: write a temp file, fsync it, ``os.replace`` it over the
target, fsync the directory.  A reader sees the old file or the new one,
never a torn one, and after the call returns a crash keeps the new one.
"""

from __future__ import annotations

import os
from pathlib import Path

__all__ = ["atomic_write_text", "fsync_dir", "fsync_file"]


def fsync_file(path: Path) -> None:
    """Flush ``path``'s data and metadata to stable storage."""
    with open(path, "rb") as handle:
        os.fsync(handle.fileno())


def fsync_dir(path: Path) -> None:
    """Make the entries of directory ``path`` (creates, renames) durable."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic filesystems
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover
        pass
    finally:
        os.close(fd)


def atomic_write_text(path: Path, text: str) -> None:
    """Replace ``path`` with ``text``: temp write, fsync, replace, fsync the directory."""
    path = Path(path)
    temp = path.with_suffix(".tmp")
    with open(temp, "w") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp, path)
    fsync_dir(path.parent)
