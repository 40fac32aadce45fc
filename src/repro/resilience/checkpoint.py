"""Crash-safe phase journaling for resumable blocked pre-propagation.

The blocked engine (:mod:`repro.prepropagation.blocked`) computes a run as an
ordered sequence of ``(kernel, hop)`` *phases*, each of which deterministically
overwrites a disjoint region of the output store (one hop matrix) and at most
one scratch file.  That structure makes checkpoint/resume cheap and exact:

* the **manifest** (``manifest.json``) pins the run's identity — a fingerprint
  over :func:`run_parts`: the graph structure, the feature bytes, the
  propagation config and the stored node ids, but not the block size, which
  changes the tiling, never the bytes.  :meth:`PhaseJournal.begin` keeps a
  staging directory whose fingerprint matches and wipes any other;
* the **journal** (``journal.log``) is an append-only file of JSON lines, one
  per completed phase, fsync'd after every append so a completed phase
  survives any crash.  Each entry carries content digests of the phase's
  outputs (the store hop matrix, and the scratch file the next hop reads), so
  a torn write — a phase whose journal entry landed but whose data did not
  fully reach disk, or was damaged afterwards — is *detected* on resume
  rather than silently propagated into the output;
* resume trusts the longest journal prefix whose digests verify, recomputes
  everything after it, and therefore produces output **bit-identical** to an
  uninterrupted run (phases are deterministic; verified phases are already
  byte-exact).

The journal format is deliberately dumb — text lines, one fsync per phase —
because a phase is minutes of SpMM at the scales that matter (Table 7); the
journal's cost is noise.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from repro.resilience.durable import atomic_write_text
from repro.utils.logging import get_logger

if TYPE_CHECKING:
    from repro.graph.csr import CSRGraph
    from repro.prepropagation.propagator import PropagationConfig

logger = get_logger("resilience.checkpoint")

__all__ = ["digest_array", "digest_parts", "run_parts", "RunManifest", "PhaseJournal"]

MANIFEST_FILENAME = "manifest.json"
JOURNAL_FILENAME = "journal.log"

#: digest rows in slabs of ~8 MiB so digesting a memmapped matrix never
#: materializes it
_DIGEST_SLAB_BYTES = 8 << 20


def digest_array(array: np.ndarray) -> str:
    """Content digest of a 2-D (or any) array's logical bytes, slab by slab."""
    array = np.asarray(array)
    hasher = hashlib.blake2b(digest_size=16)
    hasher.update(str(array.shape).encode())
    hasher.update(np.dtype(array.dtype).str.encode())
    if array.ndim == 0 or array.size == 0:
        hasher.update(np.ascontiguousarray(array).tobytes())
        return hasher.hexdigest()
    rows_per_slab = max(1, _DIGEST_SLAB_BYTES // max(array[0:1].nbytes, 1))
    for start in range(0, array.shape[0], rows_per_slab):
        slab = np.ascontiguousarray(array[start : start + rows_per_slab])
        hasher.update(slab.tobytes())
    return hasher.hexdigest()


def digest_parts(parts: Dict[str, object]) -> str:
    """Stable digest of a flat dict of strings/ints/digests (the fingerprint)."""
    hasher = hashlib.blake2b(digest_size=16)
    for key in sorted(parts):
        hasher.update(f"{key}={parts[key]};".encode())
    return hasher.hexdigest()


def run_parts(
    graph: "CSRGraph",
    features: np.ndarray,
    config: "PropagationConfig",
    node_ids: np.ndarray,
) -> Dict[str, object]:
    """The parts a run fingerprint digests: a resumable build's, or an update's plus its delta.

    ``"layout"`` (always ``"packed"``) and ``"accumulate_dtype"`` (the store
    dtype) stay parts so manifests and ``LAST_UPDATE.json`` records of
    earlier releases keep matching.  ``block_size`` and ``num_workers`` are
    left out: a run may resume under another tiling.
    """
    return {
        "indptr": digest_array(graph.indptr),
        "indices": digest_array(graph.indices),
        "edge_weight": (
            "none" if graph.edge_weight is None else digest_array(graph.edge_weight)
        ),
        "features": digest_array(features),
        "node_ids": digest_array(node_ids),
        "num_hops": config.num_hops,
        "operators": ",".join(config.operators),
        "operator_kwargs": json.dumps(
            [config.kwargs_for(k) for k in range(config.num_kernels)], sort_keys=True
        ),
        "dtype": str(np.dtype(config.dtype)),
        "accumulate_dtype": str(np.dtype(config.dtype)),
        "layout": "packed",
    }


@dataclass(frozen=True)
class RunManifest:
    """Identity of one resumable run; a fingerprint mismatch invalidates resume."""

    fingerprint: str
    layout: str
    num_kernels: int
    num_hops: int
    num_rows: int
    feature_dim: int
    dtype: str
    #: the dtype the run accumulated in; equal to ``dtype`` for runs of this
    #: release, kept so manifests of earlier releases still parse
    accumulate_dtype: str
    block_size: int
    version: int = 1

    @classmethod
    def for_run(
        cls,
        fingerprint: str,
        config: "PropagationConfig",
        num_rows: int,
        feature_dim: int,
        block_size: int = 0,
    ) -> "RunManifest":
        """The manifest of a run of ``config`` storing ``num_rows`` rows of ``feature_dim``."""
        dtype = np.dtype(config.dtype).str
        return cls(
            fingerprint=fingerprint,
            layout="packed",
            num_kernels=config.num_kernels,
            num_hops=config.num_hops,
            num_rows=int(num_rows),
            feature_dim=int(feature_dim),
            dtype=dtype,
            accumulate_dtype=dtype,
            block_size=int(block_size),
        )

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @staticmethod
    def from_json(text: str) -> "RunManifest":
        payload = json.loads(text)
        return RunManifest(**payload)


class PhaseJournal:
    """Manifest + fsync'd append-only journal in one staging directory.

    The writer side appends one entry per completed phase; the reader side
    (:meth:`entries`) tolerates a torn final line — the torn phase simply does
    not count as completed.  All writes fsync before returning, so "journaled"
    means "survives SIGKILL at the next instruction".
    """

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        self.manifest_path = self.root / MANIFEST_FILENAME
        self.journal_path = self.root / JOURNAL_FILENAME
        self._handle = None

    # ------------------------------------------------------------------ #
    def begin(self, manifest: RunManifest, resume: bool = True) -> bool:
        """Resume the run ``manifest`` names here, or start it in an empty staging.

        With ``resume`` and a staged manifest of the same fingerprint the
        staging is kept and ``True`` returned.  Otherwise (a foreign or
        missing run, or ``resume`` off) the staging is wiped, recreated and
        given ``manifest``; returns ``False``.
        """
        staged = self.load_manifest()
        if staged is not None and staged.fingerprint == manifest.fingerprint:
            if resume:
                return True
        elif staged is not None:
            logger.info("staging at %s belongs to a different run; invalidating", self.root)
        self.close()
        shutil.rmtree(self.root, ignore_errors=True)
        self.write_manifest(manifest)
        return False

    def write_manifest(self, manifest: RunManifest) -> None:
        """Atomically publish the manifest (write-temp + fsync + rename)."""
        self.root.mkdir(parents=True, exist_ok=True)
        atomic_write_text(self.manifest_path, manifest.to_json())

    def load_manifest(self) -> Optional[RunManifest]:
        try:
            return RunManifest.from_json(self.manifest_path.read_text())
        except (FileNotFoundError, json.JSONDecodeError, TypeError, KeyError):
            return None

    # ------------------------------------------------------------------ #
    def append(self, entry: dict) -> None:
        """Append one completed-phase record; durable once this returns."""
        if self._handle is None:
            self.root.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.journal_path, "a")
        self._handle.write(json.dumps(entry, sort_keys=True) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def rewrite(self, entries: List[dict]) -> None:
        """Replace the journal with ``entries`` atomically: a crash keeps the old one or the new one."""
        self.close()
        atomic_write_text(
            self.journal_path, "".join(json.dumps(entry, sort_keys=True) + "\n" for entry in entries)
        )

    def entries(self) -> List[dict]:
        """Parsed journal entries; a torn trailing line is dropped, not fatal."""
        try:
            text = self.journal_path.read_text()
        except FileNotFoundError:
            return []
        entries: List[dict] = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                entries.append(json.loads(line))
            except json.JSONDecodeError:
                # torn write at the tail: everything before it is still valid;
                # anything after a torn line cannot be trusted to be ordered
                logger.warning("journal %s: dropping torn entry and tail", self.journal_path)
                break
        return entries

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        if self._handle is not None:
            try:
                self._handle.close()
            finally:
                self._handle = None

    def discard(self) -> None:
        """Remove manifest + journal and their temp files (run invalidated or finished)."""
        self.close()
        for path in (
            self.manifest_path,
            self.journal_path,
            self.manifest_path.with_suffix(".tmp"),
            self.journal_path.with_suffix(".tmp"),
        ):
            try:
                path.unlink()
            except FileNotFoundError:
                pass

    def __enter__(self) -> "PhaseJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
