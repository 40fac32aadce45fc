"""Versioned feature-store roots with an atomic current-version pointer.

A store published by preprocessing lives at its ``root`` directory — that is
version ``"base"``.  Incremental updates never mutate a published version;
each update stages a full store copy, patches it, and publishes it as
``<root>.versions/vNNNN/``, then atomically repoints the ``CURRENT`` file.
Readers resolve ``CURRENT`` once at open and keep reading their pinned
version's files for as long as they hold them open — published version
directories are immutable, so a reader can never observe a torn row.
Preprocessing a root again installs a new ``base`` and repoints ``CURRENT``
to it (:func:`~repro.prepropagation.store.write_store`): the versions
patched from the old build stay listed until pruned, but are no longer
current.

Layout::

    <root>/                  # version "base" (what preprocessing wrote)
    <root>.versions/
        CURRENT              # one line: the active version name
        v0001/               # complete, immutable store directories
        v0002/
        .staging/            # the in-flight update (journal + staged store)

:meth:`VersionedStore.publish` installs the staged store as ``vNNNN`` with
:func:`~repro.resilience.durable.install_dir` and then writes ``CURRENT``
with :func:`~repro.resilience.durable.atomic_write_text`: the pointer names
the old version or the new one, never a torn in-between, and never a
directory a crash could still lose.  Old versions are kept until
:meth:`VersionedStore.prune` — never pruned automatically, because a serving
engine may still be pinned to one.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import List

from repro.resilience.durable import atomic_write_text, install_dir, retire_dirs

__all__ = ["VersionedStore", "BASE_VERSION"]

#: the name of the version preprocessing itself publishes (the store root)
BASE_VERSION = "base"

_CURRENT_FILENAME = "CURRENT"
_STAGING_DIRNAME = ".staging"
_VERSION_PATTERN = re.compile(r"^v(\d{4,})$")


class VersionedStore:
    """Resolve, publish and enumerate the versions of one store root."""

    def __init__(self, base_root: Path) -> None:
        self.base_root = Path(base_root)
        self.versions_root = self.base_root.parent / f"{self.base_root.name}.versions"
        self.current_path = self.versions_root / _CURRENT_FILENAME

    # ------------------------------------------------------------------ #
    def current_version(self) -> str:
        """The active version name (``"base"`` until an update published)."""
        try:
            name = self.current_path.read_text().strip()
        except FileNotFoundError:
            return BASE_VERSION
        if name != BASE_VERSION and not _VERSION_PATTERN.match(name):
            raise ValueError(f"corrupt version pointer {self.current_path}: {name!r}")
        return name

    def path_for(self, version: str) -> Path:
        if version == BASE_VERSION:
            return self.base_root
        if not _VERSION_PATTERN.match(version):
            raise ValueError(f"invalid version name {version!r}")
        return self.versions_root / version

    # ------------------------------------------------------------------ #
    def list_versions(self) -> List[str]:
        """Published update versions, oldest first (``"base"`` not included)."""
        if not self.versions_root.is_dir():
            return []
        return sorted(
            entry.name
            for entry in self.versions_root.iterdir()
            if entry.is_dir() and _VERSION_PATTERN.match(entry.name)
        )

    def next_version(self) -> str:
        published = self.list_versions()
        last = int(_VERSION_PATTERN.match(published[-1]).group(1)) if published else 0
        return f"v{last + 1:04d}"

    @property
    def staging_root(self) -> Path:
        return self.versions_root / _STAGING_DIRNAME

    # ------------------------------------------------------------------ #
    def publish(self, staged_store: Path, target: str) -> Path:
        """Install a staged store directory as ``target`` and repoint ``CURRENT``.

        ``target`` must be an unpublished version name (``CURRENT`` never
        points at it yet), so replacing a leftover of a previous crashed
        attempt is safe.
        """
        target_dir = self.path_for(target)
        if target == self.current_version():
            raise ValueError(f"version {target!r} is already current")
        self.versions_root.mkdir(parents=True, exist_ok=True)
        install_dir(staged_store, target_dir)
        self.set_current(target)
        return target_dir

    def set_current(self, version: str) -> None:
        """Atomically (write-temp + fsync + replace + dir fsync) repoint CURRENT."""
        if version != BASE_VERSION and not _VERSION_PATTERN.match(version):
            raise ValueError(f"invalid version name {version!r}")
        self.versions_root.mkdir(parents=True, exist_ok=True)
        atomic_write_text(self.current_path, version + "\n")

    def prune(self, keep: int = 2) -> List[str]:
        """Delete published versions older than the newest ``keep``.

        Never automatic, never touches ``base`` or the current version:
        readers may hold any version open, so pruning is an explicit operator
        decision.  A version is renamed aside before it is removed, so a crash
        never leaves a listed version half-deleted.
        """
        if keep < 0:
            raise ValueError("keep must be non-negative")
        current = self.current_version()
        candidates = [v for v in self.list_versions() if v != current]
        doomed = candidates[: max(0, len(candidates) - keep)]
        retire_dirs(self.versions_root, doomed)
        return doomed
