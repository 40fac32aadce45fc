"""Durable file operations: the one module that renames, replaces or copies a tree.

A write survives a crash only once its bytes are fsync'd *and* the directory
entry that names it is fsync'd too, and a rename is the one step a reader
sees happen at once.  So every ordering decision of the commit protocol
lives here, and nothing else in ``repro`` calls ``os.replace``,
``os.rename`` or ``shutil.copytree`` (``tests/test_crash_points.py`` checks
it, crashing builds, updates and prunes before each durable operation):

* :func:`atomic_write_text` publishes every small state file (journal
  manifest and rewrite, ``CURRENT``, ``LAST_UPDATE.json``, ``update.json``):
  temp write, fsync, replace, fsync the directory;
* :func:`install_dir` publishes every store directory (a build's ``root``,
  an update's ``vNNNN``);
* :func:`copy_tree` stages an update's clone of its source version;
* :func:`retire_dirs` removes pruned versions.

Staging and aside directories carry their maker's pid
(``.<name>.staging-<pid>``, ``.<name>.old-<pid>``, ``.<name>.dead-<pid>``,
``ppgnn-propagate-<pid>-*``).  A killed process cleans nothing up, so
:func:`fresh_staging`, :func:`install_dir`, :func:`retire_dirs` and
:func:`fresh_scratch` first settle what dead pids left: an aside store whose
successor never arrived is renamed back, the rest is removed.
"""

from __future__ import annotations

import os
import re
import shutil
import tempfile
from pathlib import Path
from typing import Iterator, Optional, Sequence, Tuple

from repro.resilience.janitor import pid_alive

__all__ = [
    "atomic_write_text",
    "copy_tree",
    "fresh_scratch",
    "fresh_staging",
    "fsync_dir",
    "fsync_file",
    "install_dir",
    "retire_dirs",
]

#: the blocked engine's ping/pong scratch directories
_SCRATCH_PREFIX = "ppgnn-propagate"
#: a retired directory on its way out; never renamed back
_RETIRED = re.compile(r"^\..+\.dead-(?P<pid>\d+)$")


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


def _dead_entries(parent: Path, pattern: "re.Pattern[str]") -> Iterator[Tuple[Path, "re.Match[str]"]]:
    """Entries of ``parent`` matching ``pattern`` whose ``pid`` group names a dead process."""
    if not parent.is_dir():
        return
    for entry in sorted(parent.iterdir()):
        match = pattern.match(entry.name)
        if match is not None and not pid_alive(int(match.group("pid"))):
            yield entry, match


def _settle_dead(dest: Path) -> None:
    """Settle the staging and aside directories dead processes left beside ``dest``.

    A dead ``.<name>.old-<pid>`` while ``dest`` is missing is the previous
    store of a process killed between its two renames: it is renamed back.
    Every other dead ``.<name>.staging-<pid>`` or ``.<name>.old-<pid>`` is
    removed, and so is every dead ``.*.dead-<pid>`` in the parent.
    """
    pattern = re.compile(rf"^\.{re.escape(dest.name)}\.(?P<kind>staging|old)-(?P<pid>\d+)$")
    for entry, match in _dead_entries(dest.parent, pattern):
        if match.group("kind") == "old" and not dest.exists():
            os.replace(entry, dest)
            fsync_dir(dest.parent)
        else:
            shutil.rmtree(entry, ignore_errors=True)
    _sweep_retired(dest.parent)


def _sweep_retired(parent: Path) -> None:
    for entry, _ in _dead_entries(parent, _RETIRED):
        shutil.rmtree(entry, ignore_errors=True)


def fresh_staging(root: Path) -> Path:
    """An empty, process-private staging directory beside ``root``."""
    root = Path(root)
    root.parent.mkdir(parents=True, exist_ok=True)
    _settle_dead(root)
    staging = root.parent / f".{root.name}.staging-{os.getpid()}"
    if staging.exists():
        shutil.rmtree(staging)
    staging.mkdir()
    return staging


def fresh_scratch(parent: Optional[Path] = None) -> Path:
    """A new ``ppgnn-propagate-<pid>-*`` directory under ``parent`` (the system temp dir by default).

    Those of dead pids are removed first: a killed run leaves its scratch
    behind, and no one else would.
    """
    parent = Path(parent) if parent is not None else Path(tempfile.gettempdir())
    for entry, _ in _dead_entries(parent, re.compile(rf"^{_SCRATCH_PREFIX}-(?P<pid>\d+)-")):
        shutil.rmtree(entry, ignore_errors=True)
    return Path(tempfile.mkdtemp(prefix=f"{_SCRATCH_PREFIX}-{os.getpid()}-", dir=parent))


def install_dir(staging: Path, dest: Path) -> None:
    """Make the complete directory ``staging`` (its files already fsync'd) ``dest``, durably.

    An existing ``dest`` waits aside as ``.<name>.old-<pid>`` until
    ``staging`` is renamed in and the parent fsync'd, so a crash destroys no
    data; once this returns, a crash keeps the new ``dest``.
    """
    staging, dest = Path(staging), Path(dest)
    _settle_dead(dest)
    fsync_dir(staging)
    aside = dest.parent / f".{dest.name}.old-{os.getpid()}"
    if aside.exists():
        shutil.rmtree(aside)
    if dest.exists():
        os.replace(dest, aside)
    os.replace(staging, dest)
    fsync_dir(dest.parent)
    if aside.exists():
        shutil.rmtree(aside, ignore_errors=True)


def retire_dirs(parent: Path, names: Sequence[str]) -> None:
    """Remove the directories ``names`` of ``parent`` so no crash leaves one half-deleted.

    Each is renamed to ``.<name>.dead-<pid>`` and ``parent`` fsync'd before
    its tree is removed: a crash leaves it whole under its name or gone from
    it.  Retired directories of dead pids are removed first, whatever
    ``names`` holds.
    """
    parent = Path(parent)
    _sweep_retired(parent)
    for name in names:
        aside = parent / f".{name}.dead-{os.getpid()}"
        if aside.exists():
            shutil.rmtree(aside)
        os.replace(parent / name, aside)
        fsync_dir(parent)
        shutil.rmtree(aside, ignore_errors=True)


def copy_tree(src: Path, dst: Path) -> None:
    """Copy the tree ``src`` to ``dst`` (a leftover ``dst`` is removed first), every file and ``dst`` fsync'd."""
    dst = Path(dst)
    if dst.exists():
        shutil.rmtree(dst)
    shutil.copytree(src, dst)
    for path in sorted(dst.rglob("*")):
        if path.is_file():
            fsync_file(path)
    fsync_dir(dst)
