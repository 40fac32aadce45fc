"""Crash-safe incremental re-propagation with versioned publish.

The update algorithm, end to end:

1. **Delta** — apply the edge/feature batch to the graph snapshot
   (:mod:`repro.updates.delta`).
2. **Frontier** — the affected node set by reverse r-hop expansion over the
   union of old/new operator supports (:mod:`repro.updates.frontier`).
3. **Patch** — recompute only the affected store rows
   (:func:`compute_patches`): per kernel, nested dependency cones are grown
   backwards hop by hop on a node mask over the operator's support, the
   :class:`~repro.graph.operators.PartialOperator` rows of the widest cone
   are built once, then values flow forward through the same SpMM kernel in
   the same dtype (the store's) the blocked engine uses — so a
   patched row is **byte-identical** to a from-scratch re-propagation of the
   updated graph.
4. **Stage** — clone the current store version, write the patch rows (one
   scattered store per hop matrix), journaling each phase with fsync'd
   digests (:class:`~repro.resilience.checkpoint.PhaseJournal`): a SIGKILL at
   any point resumes (trusted journal prefix) or rolls back (staging discard)
   with the published store untouched.
5. **Verify** — sampled patched rows are compared byte-for-byte against an
   *independent* restricted recompute, and sampled unpatched rows against the
   source version; any mismatch discards the staging state and raises
   :class:`~repro.updates.errors.UpdateVerificationError` — corrupt bytes are
   never published.
6. **Publish** — install the staged store as ``vNNNN`` and atomically
   repoint ``CURRENT`` (:class:`~repro.prepropagation.versions.VersionedStore`).
   Readers pinned to the old version keep their bytes; new readers resolve
   the new one.
"""

from __future__ import annotations

import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.operators import PartialOperator, csr_rows
from repro.prepropagation.blocked import open_store_arrays
from repro.prepropagation.propagator import PropagationConfig
from repro.prepropagation.store import FeatureStore, HopFeatures
from repro.resilience.checkpoint import (
    PhaseJournal,
    RunManifest,
    digest_array,
    digest_parts,
    run_parts,
)
from repro.resilience.durable import atomic_write_text, copy_tree
from repro.resilience.faultinject import FaultPlan, fault_point
from repro.updates.delta import GraphDelta, apply_delta, apply_features
from repro.updates.errors import UpdateError, UpdateVerificationError
from repro.updates.frontier import affected_frontier
from repro.prepropagation.versions import VersionedStore
from repro.utils.logging import get_logger

logger = get_logger("updates.apply")

__all__ = ["UpdateResult", "apply_update", "apply_memory_update", "compute_patches"]

_UPDATE_INFO_FILENAME = "update.json"
_STAGED_STORE_DIRNAME = "store"


@dataclass
class UpdateResult:
    """Outcome of one :func:`apply_update` / :func:`apply_memory_update` call."""

    version: str
    previous_version: str
    status: str  # "applied" | "noop"
    affected_nodes: int
    patch_rows: np.ndarray
    resumed: bool
    verified: bool
    store: FeatureStore
    new_graph: CSRGraph
    new_features: np.ndarray
    timing: Dict[str, float] = field(default_factory=dict)
    #: per-engine swap failures collected by Session.apply_updates (the update
    #: itself succeeded; the named engines are serving the previous version)
    engine_errors: List[str] = field(default_factory=list)

    @property
    def patched_rows(self) -> int:
        return int(self.patch_rows.size)


# --------------------------------------------------------------------------- #
def compute_patches(
    new_graph: CSRGraph,
    new_features: np.ndarray,
    config: PropagationConfig,
    node_ids: np.ndarray,
    target_nodes: np.ndarray,
    partials: Optional[Sequence[PartialOperator]] = None,
) -> Tuple[np.ndarray, np.ndarray, List[np.ndarray]]:
    """Recompute the store rows of ``target_nodes`` against the updated graph.

    Returns ``(patch_nodes, patch_rows, patches)``: the targeted nodes that
    are actually stored (sorted), their store-row indices, and one ``(P, F)``
    array per hop matrix in kernel-major order.  Per kernel the dependency
    cones are grown backwards on a node mask (``D[h-1] = D[h] ∪`` the
    columns the operator rows of ``D[h]`` touch, so the cones are nested),
    the operator rows of the widest cone ``D[1]`` are built once and every
    higher hop's rows cut from that block, then values flow forward hop by
    hop; every SpMM runs the same scipy kernel, in the store dtype
    ``config.dtype``, over byte-identical operator rows and byte-identical
    source values as a full blocked re-propagation, so the patches match a
    from-scratch rebuild bit for bit, and a float32 store's patch moves
    float32 bytes.

    ``target_nodes`` must lie in ``[0, num_nodes)``; ids that are not stored
    rows are skipped.  ``partials`` lets callers share pre-built per-kernel
    :class:`PartialOperator` objects across calls (operator normalization is
    a pure function of the graph, so sharing cannot change any byte); the
    dependency expansion itself always runs fresh from ``target_nodes``.
    """
    num_nodes = new_graph.num_nodes
    node_ids = np.asarray(node_ids, dtype=np.int64)
    target_nodes = np.asarray(target_nodes, dtype=np.int64)
    if target_nodes.size and (target_nodes.min() < 0 or target_nodes.max() >= num_nodes):
        raise ValueError(f"target_nodes out of range [0, {num_nodes})")
    targeted = np.zeros(num_nodes, dtype=bool)
    targeted[target_nodes] = True
    patch_rows = np.flatnonzero(targeted[node_ids])
    patch_nodes = node_ids[patch_rows]
    num_hops = config.num_hops
    dtype = np.dtype(config.dtype)
    if patch_nodes.size == 0:
        return patch_nodes, patch_rows, [
            np.empty((0, new_features.shape[1]), dtype=dtype) for _ in range(config.num_matrices)
        ]
    if partials is not None and len(partials) != config.num_kernels:
        raise ValueError(
            f"expected {config.num_kernels} partial operator(s), got {len(partials)}"
        )
    patches: List[np.ndarray] = []
    for k, name in enumerate(config.operators):
        patches.append(new_features[patch_nodes].astype(dtype, copy=False))
        if num_hops == 0:
            continue
        if partials is not None:
            partial = partials[k]
        else:
            partial = PartialOperator(name, new_graph, **config.kwargs_for(k))
        # backward pass: cones[h] = sorted nodes whose hop-h values the patch
        # needs.  Growing one mask makes each cone contain the next even
        # without self-loops, and the support pattern contains the operator's,
        # so every column an operator row of cones[h] reads lies in cones[h-1].
        support = partial.support_matrix
        cone = np.zeros(num_nodes, dtype=bool)
        cone[patch_nodes] = True
        cones = [patch_nodes]
        for _ in range(num_hops):
            cone[csr_rows(support, cones[-1]).indices] = True
            cones.append(np.flatnonzero(cone))
        cones.reverse()
        widest = cones[1]
        block = partial.rows(widest).astype(dtype, copy=False)
        # forward pass: ``buffer`` holds the hop h-1 values at cones[h-1]; no
        # other row is read, so it needs no zero fill
        if cones[0].size == num_nodes:
            buffer = new_features.astype(dtype)
        else:
            buffer = np.empty((num_nodes, new_features.shape[1]), dtype=dtype)
            buffer[cones[0]] = new_features[cones[0]]
        for hop in range(1, num_hops + 1):
            rows = cones[hop]
            if rows.size < widest.size:
                values = csr_rows(block, np.searchsorted(widest, rows)) @ buffer
            else:
                values = block @ buffer
            patch = values if rows.size == patch_nodes.size else values[np.searchsorted(rows, patch_nodes)]
            patches.append(patch)
            if rows.size == num_nodes:
                buffer = values
            elif hop < num_hops:
                buffer[rows] = values
    return patch_nodes, patch_rows, patches


def _legacy_parts(parts: Dict[str, object]) -> Dict[str, object]:
    """``parts`` as releases that accumulated every store in float64 wrote them.

    Only the two "already published" checks accept this form: a retry across
    the upgrade must find the update it already applied.  A partially staged
    run under it is never resumed — its bytes were accumulated in another
    precision — so it is discarded like any other foreign run.
    """
    return {**parts, "accumulate_dtype": "float64"}


def _published_by(parts: Dict[str, object], fingerprint: object, source_version: str) -> bool:
    """Whether ``fingerprint`` names this update from ``source_version``, in
    the current or the pre-upgrade form."""
    return fingerprint in {
        _update_fingerprint(parts, source_version),
        _update_fingerprint(_legacy_parts(parts), source_version),
    }


def _update_fingerprint(parts: Dict[str, object], source_version: str) -> str:
    """Identity of one update run: same inputs + same source ⇒ resumable."""
    return digest_parts({**parts, "source_version": source_version})


def _validate_config(store: FeatureStore, config: PropagationConfig, features: np.ndarray) -> None:
    problems = []
    if store.num_kernels != config.num_kernels:
        problems.append(f"kernels {store.num_kernels} != {config.num_kernels}")
    if store.num_hops != config.num_hops:
        problems.append(f"hops {store.num_hops} != {config.num_hops}")
    if store.feature_dim != features.shape[1]:
        problems.append(f"feature dim {store.feature_dim} != {features.shape[1]}")
    if store.dtype != np.dtype(config.dtype):
        problems.append(f"dtype {store.dtype} != {np.dtype(config.dtype)}")
    if problems:
        raise UpdateError(
            "propagation config does not match the published store: " + "; ".join(problems)
        )


def _journal_append(
    journal: PhaseJournal, entry: dict, fault_plan: Optional[FaultPlan]
) -> None:
    fault_point("update.journal", plan=fault_plan, phase=entry.get("phase"))
    journal.append(entry)


_LAST_UPDATE_FILENAME = "LAST_UPDATE.json"


def _record_last_update(
    versions: VersionedStore, fingerprint: str, source_version: str, target: str
) -> None:
    """Durably note the identity of the last published update.

    This is what makes :func:`apply_update` idempotent across a lost
    acknowledgement: a caller that retries an update whose success it never
    saw gets the already-published version back instead of applying the same
    delta a second time on top of its own result.
    """
    record = {"fingerprint": fingerprint, "source_version": source_version, "target_version": target}
    atomic_write_text(versions.versions_root / _LAST_UPDATE_FILENAME, json.dumps(record, indent=2))


def _read_record(path: Path) -> Optional[dict]:
    """The JSON record at ``path``; ``None`` if it is missing or torn."""
    try:
        return json.loads(path.read_text())
    except (FileNotFoundError, json.JSONDecodeError):
        return None


def _sample(rng: np.random.Generator, population: np.ndarray, count: int) -> np.ndarray:
    if population.size <= count:
        return population
    return np.sort(rng.choice(population, size=count, replace=False))


def _verify_staged(
    staged_store: Path,
    source_store: FeatureStore,
    new_graph: CSRGraph,
    new_features: np.ndarray,
    config: PropagationConfig,
    patch_nodes: np.ndarray,
    patch_rows: np.ndarray,
    verify_samples: int,
    fingerprint: str,
    partials: Optional[Sequence[PartialOperator]] = None,
) -> None:
    """Sampled byte-comparison of the staged store; raises on any mismatch.

    Patched rows are checked against an *independent* restricted recompute
    (fresh dependency expansion seeded only at the sampled nodes; the
    normalized operators may be shared with the patch phase — they are a pure
    function of the graph); unpatched rows against the source version.
    Deterministic: the sampling RNG is seeded from the run fingerprint.
    """
    rng = np.random.default_rng(int(fingerprint[:16], 16))
    staged = FeatureStore.load(staged_store)
    staged_mats = staged.packed_matrix(memmap=True)
    node_ids = source_store.node_ids
    sample_nodes = _sample(rng, patch_nodes, max(1, verify_samples))
    check_nodes, check_rows, recomputed = compute_patches(
        new_graph, new_features, config, node_ids, sample_nodes, partials=partials
    )
    for m, matrix in enumerate(staged_mats):
        got = np.ascontiguousarray(matrix[check_rows])
        if got.tobytes() != np.ascontiguousarray(recomputed[m]).tobytes():
            raise UpdateVerificationError(
                f"staged matrix {m}: patched rows disagree with independent "
                f"recompute (sampled nodes {check_nodes.tolist()})"
            )
    unpatched = np.setdiff1d(np.arange(node_ids.size), patch_rows, assume_unique=True)
    sample_rows = _sample(rng, unpatched, max(1, verify_samples))
    if sample_rows.size:
        source_mats = source_store.packed_matrix(memmap=source_store.is_file_backed)
        for m, matrix in enumerate(staged_mats):
            got = np.ascontiguousarray(matrix[sample_rows])
            want = np.ascontiguousarray(source_mats[m][sample_rows])
            if got.tobytes() != want.tobytes():
                raise UpdateVerificationError(
                    f"staged matrix {m}: unpatched rows differ from source "
                    f"version (sampled store rows {sample_rows.tolist()})"
                )


# --------------------------------------------------------------------------- #
def _clone_source(
    source_root: Path, staged_store: Path, fault_plan: Optional[FaultPlan]
) -> Dict[str, int]:
    """Copy the source version into staging; fsync'd before being journaled."""
    fault_point("update.apply", plan=fault_plan, stage="clone")
    copy_tree(source_root, staged_store)
    return {
        path.name: path.stat().st_size
        for path in sorted(staged_store.iterdir())
        if path.is_file()
    }


def _clone_intact(staged_store: Path, journaled_sizes: Dict[str, int]) -> bool:
    if not (staged_store / "meta.json").exists():
        return False
    for name, size in journaled_sizes.items():
        path = staged_store / name
        if not path.is_file() or path.stat().st_size != int(size):
            return False
    return True


def apply_update(
    root: Path,
    graph: CSRGraph,
    features: np.ndarray,
    delta: GraphDelta,
    config: PropagationConfig,
    *,
    resume: bool = True,
    verify_samples: int = 8,
    fault_plan: Optional[FaultPlan] = None,
) -> UpdateResult:
    """Apply one delta to the published store at ``root``, crash-safely.

    ``graph`` / ``features`` are the *pre-delta* snapshot the current store
    version was propagated from.  On success the new version is published and
    returned; on any failure the staging state either remains resumable
    (rerun with the same inputs to continue) or has been rolled back — the
    version readers see is never torn.

    An empty effective patch (the delta touches no stored row) is a
    ``status="noop"`` result: no new version is published.
    """
    wall_began = time.perf_counter()
    timing: Dict[str, float] = {}
    versions = VersionedStore(Path(root))
    source_version = versions.current_version()
    source_root = versions.path_for(source_version)
    source_store = FeatureStore.load(source_root)
    _validate_config(source_store, config, features)
    delta.validate_for(graph)
    node_ids = source_store.node_ids

    new_graph = apply_delta(graph, delta)
    new_features = apply_features(features, delta)

    began = time.perf_counter()
    affected = affected_frontier(graph, new_graph, delta, config)
    timing["frontier_seconds"] = time.perf_counter() - began

    def result(
        version: str,
        previous: str,
        store: FeatureStore,
        patch_rows: np.ndarray,
        resumed: bool,
        status: str = "applied",
    ) -> UpdateResult:
        timing["total_seconds"] = time.perf_counter() - wall_began
        return UpdateResult(
            version=version,
            previous_version=previous,
            status=status,
            affected_nodes=int(affected.size),
            patch_rows=patch_rows,
            resumed=resumed,
            verified=status == "applied",
            store=store,
            new_graph=new_graph,
            new_features=new_features,
            timing=timing,
        )

    def already_published(version: str, previous: str, store: FeatureStore) -> UpdateResult:
        """The result of this update, found published by an earlier attempt."""
        patch_rows = np.searchsorted(node_ids, np.intersect1d(affected, node_ids))
        return result(version, previous, store, patch_rows, resumed=True)

    if np.intersect1d(affected, node_ids).size == 0:
        empty = np.empty(0, dtype=np.int64)
        return result(source_version, source_version, source_store, empty, False, status="noop")

    # digested once: the fingerprint is asked for against up to three source versions
    parts = {**run_parts(graph, features, config, node_ids), "delta": delta.fingerprint()}
    fingerprint = _update_fingerprint(parts, source_version)

    last = _read_record(versions.versions_root / _LAST_UPDATE_FILENAME)
    if last is not None and last.get("target_version") == source_version:
        if _published_by(parts, last.get("fingerprint"), str(last.get("source_version"))):
            # this exact update is already published and current — the
            # caller's acknowledgement was lost, not the update.  Hand the
            # published version back instead of applying the delta twice,
            # sweeping any staging leftover the crashed publisher kept.
            leftover = _read_record(versions.staging_root / _UPDATE_INFO_FILENAME)
            if leftover is not None and leftover.get("target_version") == source_version:
                shutil.rmtree(versions.staging_root, ignore_errors=True)
            return already_published(source_version, str(last.get("source_version")), source_store)

    staging = versions.staging_root
    staged_store = staging / _STAGED_STORE_DIRNAME
    info_path = staging / _UPDATE_INFO_FILENAME
    journal = PhaseJournal(staging)

    # ------------- resume state: what does the journal already vouch for? ---
    target: Optional[str] = None
    trusted_clone_sizes: Optional[Dict[str, int]] = None
    trusted_patches: Dict[int, str] = {}
    renamed = False
    resumed = False
    if resume:
        manifest = journal.load_manifest()
        info = _read_record(info_path)
        if (
            manifest is not None
            and info is not None
            and info.get("target_version") == source_version
            and _published_by(parts, manifest.fingerprint, str(info.get("source_version")))
        ):
            # CURRENT already points at this exact update's target: the crash
            # hit between repointing CURRENT and journaling the publish entry.
            # Re-running must not apply the delta a second time on top of its
            # own result — finish the cleanup and hand back the published
            # version.
            previous = str(info.get("source_version"))
            _record_last_update(versions, manifest.fingerprint, previous, source_version)
            journal.discard()
            shutil.rmtree(staging, ignore_errors=True)
            return already_published(source_version, previous, source_store)
        if (
            manifest is not None
            and manifest.fingerprint == fingerprint
            and info is not None
            and info.get("source_version") == source_version
        ):
            target = info.get("target_version")
            for entry in journal.entries():
                phase = entry.get("phase")
                if phase == "clone":
                    trusted_clone_sizes = entry.get("files", {})
                elif phase == "patch":
                    trusted_patches[int(entry["matrix"])] = entry.get("rows_digest", "")
                elif phase == "rename":
                    # a journaled "publish" implies "rename", and the checks
                    # above return first unless CURRENT was moved back by
                    # hand — which repointing it below also settles
                    renamed = True
            resumed = bool(trusted_clone_sizes or renamed)

    if renamed and not (staged_store / "meta.json").exists():
        # the staged store was renamed into place; only CURRENT (and cleanup)
        # remain.  The rename itself is atomic, so the target is complete.
        target_dir = versions.path_for(target)
        if not (target_dir / "meta.json").exists():
            # rename intent journaled but neither staged nor target store
            # exists — unrecoverable staging state; roll back to a fresh run
            logger.warning("update: rename intent without store; restarting from clone")
            resumed = False
        else:
            fault_point("update.swap", plan=fault_plan, stage="current", target=target)
            versions.set_current(target)
            _record_last_update(versions, fingerprint, source_version, target)
            _journal_append(journal, {"phase": "publish", "target": target}, fault_plan)
            journal.discard()
            shutil.rmtree(staging, ignore_errors=True)
            return already_published(target, source_version, FeatureStore.load(target_dir))

    # ------------- fresh (or partially-trusted) staging ---------------------
    if target is None:
        target = versions.next_version()
    manifest = RunManifest.for_run(fingerprint, config, node_ids.size, features.shape[1])
    if not journal.begin(manifest, resume=resumed):
        atomic_write_text(
            info_path,
            json.dumps({"source_version": source_version, "target_version": target}, indent=2),
        )
        trusted_clone_sizes = None
        trusted_patches = {}

    completed = False
    try:
        # ------------- clone --------------------------------------------- #
        began = time.perf_counter()
        if trusted_clone_sizes is not None and _clone_intact(staged_store, trusted_clone_sizes):
            logger.info("update: resuming with intact staged clone at %s", staged_store)
        else:
            if trusted_clone_sizes is not None:
                logger.warning("update: journaled clone is damaged; recloning")
                trusted_patches = {}
            sizes = _clone_source(source_root, staged_store, fault_plan)
            _journal_append(journal, {"phase": "clone", "files": sizes}, fault_plan)
        timing["clone_seconds"] = time.perf_counter() - began

        # ------------- patch --------------------------------------------- #
        began = time.perf_counter()
        partials = [
            PartialOperator(name, new_graph, **config.kwargs_for(k))
            for k, name in enumerate(config.operators)
        ]
        patch_nodes, patch_rows, patches = compute_patches(
            new_graph, new_features, config, node_ids, affected, partials=partials
        )
        matrices, packed = open_store_arrays(staged_store)
        written: List[int] = []
        for m, patch in enumerate(patches):
            digest = trusted_patches.get(m)
            if digest is not None and digest_array(matrices[m][patch_rows]) == digest:
                continue  # journaled and intact: skip the write
            spec = fault_point(
                "update.apply", plan=fault_plan, stage="patch", matrix=m
            )
            if spec is None or spec.kind != "leak":
                matrices[m][patch_rows] = patch
            written.append(m)
        if written:
            # one msync for the whole batch — one memmap backs every matrix,
            # so flushing inside the loop would sync the same file M times.
            # Entries are journaled only after the flush, so a trusted digest
            # always vouches for durable bytes.
            packed.flush()
        for m in written:
            _journal_append(
                journal,
                {
                    "phase": "patch",
                    "matrix": m,
                    "rows_digest": digest_array(matrices[m][patch_rows]),
                },
                fault_plan,
            )
        del matrices, packed
        timing["patch_seconds"] = time.perf_counter() - began

        # ------------- verify (rollback on mismatch) ---------------------- #
        began = time.perf_counter()
        try:
            _verify_staged(
                staged_store,
                source_store,
                new_graph,
                new_features,
                config,
                patch_nodes,
                patch_rows,
                verify_samples,
                fingerprint,
                partials=partials,
            )
        except UpdateVerificationError:
            journal.discard()
            shutil.rmtree(staging, ignore_errors=True)
            logger.warning("update: verification failed; staging rolled back")
            raise
        timing["verify_seconds"] = time.perf_counter() - began

        # ------------- publish -------------------------------------------- #
        began = time.perf_counter()
        _journal_append(journal, {"phase": "rename", "target": target}, fault_plan)
        fault_point("update.swap", plan=fault_plan, stage="rename", target=target)
        target_dir = versions.publish(staged_store, target)
        _record_last_update(versions, fingerprint, source_version, target)
        _journal_append(journal, {"phase": "publish", "target": target}, fault_plan)
        journal.discard()
        shutil.rmtree(staging, ignore_errors=True)
        timing["publish_seconds"] = time.perf_counter() - began
        completed = True
    finally:
        journal.close()
        if not completed:
            logger.info("update: interrupted; resumable staging kept at %s", staging)

    published = result(target, source_version, FeatureStore.load(target_dir), patch_rows, resumed)
    logger.info(
        "update %s -> %s: %d affected node(s), %d store row(s) patched in %.3fs%s",
        source_version,
        target,
        affected.size,
        patch_rows.size,
        timing["total_seconds"],
        " [resumed]" if resumed else "",
    )
    return published


# --------------------------------------------------------------------------- #
def apply_memory_update(
    store: FeatureStore,
    graph: CSRGraph,
    features: np.ndarray,
    delta: GraphDelta,
    config: PropagationConfig,
    version: str = "mem",
) -> UpdateResult:
    """In-RAM variant for sessions without a persistent store root.

    Same delta/frontier/patch machinery and the same bit-identity guarantee,
    but no journal and no versioned swap — a crash simply loses the in-memory
    result (there is nothing durable to corrupt).  The returned store is a
    patched copy; the input store is never mutated.
    """
    _validate_config(store, config, features)
    delta.validate_for(graph)
    wall_began = time.perf_counter()
    new_graph = apply_delta(graph, delta)
    new_features = apply_features(features, delta)
    affected = affected_frontier(graph, new_graph, delta, config)
    node_ids = store.node_ids
    patch_nodes, patch_rows, patches = compute_patches(
        new_graph, new_features, config, node_ids, affected
    )
    if patch_nodes.size == 0:
        return UpdateResult(
            version=version,
            previous_version=version,
            status="noop",
            affected_nodes=int(affected.size),
            patch_rows=patch_rows,
            resumed=False,
            verified=False,
            store=store,
            new_graph=new_graph,
            new_features=new_features,
            timing={"total_seconds": time.perf_counter() - wall_began},
        )
    packed = np.array(store.packed_matrix(), copy=True)
    for m, patch in enumerate(patches):
        packed[m][patch_rows] = patch
    new_store = FeatureStore(HopFeatures(node_ids.copy(), packed, num_kernels=store.num_kernels))
    return UpdateResult(
        version=version,
        previous_version=version,
        status="applied",
        affected_nodes=int(affected.size),
        patch_rows=patch_rows,
        resumed=False,
        verified=False,
        store=new_store,
        new_graph=new_graph,
        new_features=new_features,
        timing={"total_seconds": time.perf_counter() - wall_began},
    )
