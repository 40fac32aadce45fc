"""Blocked, out-of-core pre-propagation: Eq. (2) without the ``O(N F)`` RAM.

:func:`~repro.prepropagation.propagator.propagate_features` materializes every
dense ``(N, F)`` hop matrix (plus an accumulation-dtype working copy), then the
pipeline throws away the unlabeled rows — peak memory ``O(K (R + 1) N F)`` for
a store that only keeps the labeled subset.  This engine removes that wall:

* the SpMM is **tiled over contiguous row blocks** of the CSR operator
  (:func:`~repro.graph.operators.operator_row_block` — zero-copy views, and a
  block-SpMM runs the exact per-row multiply-accumulate sequence of the full
  product, so results are bit-identical to the in-core path);
* hop ``r - 1 -> r`` is **double-buffered through two disk-backed scratch
  memmaps** (ping/pong) instead of RAM-resident matrices — the resident
  working set is a handful of ``(block_size, F)`` buffers;
* each finished block's **labeled rows stream straight into the final store
  file** (the packed ``(M, rows, F)`` ``packed.npy`` of
  :class:`~repro.prepropagation.store.FeatureStore`), so the output is born
  in the zero-copy layout the loaders memory-map — no post-hoc
  ``HopFeatures.from_full_matrices`` restriction, no re-packing copy;
* blocks optionally **fan out across a process pool** (the same
  fork-preferring, queue-driven worker shape as
  :mod:`repro.dataloading.workers`): workers write disjoint row ranges of the
  shared memmapped scratch and store file, so no locking is needed and no
  hop/feature matrix is ever pickled (under the spawn start method the
  features are staged through a scratch memmap; only the sparse operators
  still ride the pickle path there — fork, the Linux default, shares both
  copy-on-write).

Because sorted labeled node ids map each graph row block ``[s, e)`` to a
*contiguous* store row range (``searchsorted``), every store write is one
contiguous memmap slice assignment.

Synchronization in the parallel path is phase-barriered: hop ``r`` of kernel
``k`` is dispatched to every worker and the parent waits for all completions
before dispatching hop ``r + 1`` (which reads the scratch rows hop ``r``
wrote).  Workers and parent map the same files ``MAP_SHARED``, so the queue
hand-off establishes the required happens-before.

Checkpoint/resume
-----------------
With ``resume=True`` (requires a persistent ``root``) the run becomes
crash-safe: the staging directory is deterministic (``.<name>.staging`` next
to the store root, with the hop scratch inside it) and every completed
``(kernel, hop)`` phase is appended to an fsync'd journal together with
content digests of what it wrote (:mod:`repro.resilience.checkpoint`).  A
crash — OOM-kill, preemption, an injected fault — leaves the staging
directory behind; rerunning with ``resume=True`` validates the journal
against the run fingerprint (graph + features + config + node ids),
verifies the digests of every journaled phase (torn writes truncate the
trusted prefix; a torn scratch file rolls the owning kernel back to hop 1),
recomputes only the phases past the trusted prefix, and produces a store
**byte-identical** to an uninterrupted run.  A fingerprint mismatch (the
graph, features, config or node ids changed) silently invalidates the stale
staging state and starts fresh.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import queue
import shutil
import signal
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.operators import build_operator, operator_row_block
from repro.prepropagation.propagator import PropagationConfig
from repro.prepropagation.store import (
    PACKED_FILENAME,
    FeatureStore,
    HopFeatures,
    check_layout,
    read_store_meta,
    store_meta,
)
from repro.resilience.checkpoint import (
    PhaseJournal,
    RunManifest,
    digest_array,
    digest_parts,
)
from repro.resilience.faultinject import FaultPlan, fault_point
from repro.utils.logging import get_logger
from repro.utils.mp import default_start_method
from repro.utils.timer import Timer

logger = get_logger("prepropagation.blocked")

__all__ = ["open_store_arrays", "propagate_blocked"]

#: how often blocked queue operations re-check the shutdown flag (seconds)
_POLL_SECONDS = 0.05

# result-queue message tags
_DONE = 0
_ERROR = 1


# --------------------------------------------------------------------------- #
# picklable recipes for re-opening shared arrays inside worker processes
@dataclass(frozen=True)
class _ArraySpec:
    """Recipe for re-opening one memmapped array (scratch or packed store file)."""

    path: str
    shape: Tuple[int, ...]
    dtype: str
    npy: bool  # True: ``.npy`` with header (np.load); False: raw np.memmap


def _open_array(spec: _ArraySpec) -> np.ndarray:
    if spec.npy:
        return np.load(spec.path, mmap_mode="r+")
    return np.memmap(spec.path, dtype=np.dtype(spec.dtype), mode="r+", shape=spec.shape)


def _open_sink(spec: _ArraySpec) -> List[np.ndarray]:
    """Return the flat kernel-major list of ``(rows, F)`` destination matrices."""
    packed = _open_array(spec)
    return [packed[m] for m in range(packed.shape[0])]


def _open_or_create_memmap(path: Path, shape: Tuple[int, ...], dtype: np.dtype, reuse: bool):
    """``.npy`` memmap that survives resume: re-open when compatible, else create.

    ``mode="w+"`` truncates, so a resumed run must *not* go through it for
    files holding journaled phase output.
    """
    if reuse and path.exists():
        try:
            existing = np.load(path, mmap_mode="r+")
            if existing.shape == tuple(shape) and existing.dtype == dtype:
                return existing
            del existing
        except (ValueError, OSError):
            pass  # damaged header: recreate below (journal digests catch the rest)
    return np.lib.format.open_memmap(path, mode="w+", dtype=dtype, shape=shape)


def _open_or_create_raw(path: Path, shape: Tuple[int, ...], dtype: np.dtype, reuse: bool):
    """Raw scratch memmap that preserves its bytes across a resume."""
    nbytes = int(np.prod(shape)) * dtype.itemsize
    if reuse and path.exists() and path.stat().st_size == nbytes:
        return np.memmap(path, dtype=dtype, mode="r+", shape=shape)
    return np.memmap(path, dtype=dtype, mode="w+", shape=shape)


# --------------------------------------------------------------------------- #
def _hop_source_tag(hop: int) -> str:
    """Scratch-dict key holding the input of hop ``hop`` (>= 1)."""
    return "hop1_src" if hop == 1 else f"s{(hop - 2) % 2}"


def _hop_dest_tag(hop: int, num_hops: int) -> Optional[str]:
    """Scratch-dict key hop ``hop`` writes for hop ``hop + 1`` (None at the last hop)."""
    return None if hop >= num_hops else f"s{(hop - 1) % 2}"


def _run_phase(
    kernel: int,
    hop: int,
    num_hops: int,
    operator,
    features: np.ndarray,
    node_ids: np.ndarray,
    blocks: List[Tuple[int, int]],
    sink_mats: List[np.ndarray],
    sources: Dict[str, np.ndarray],
    dtype: np.dtype,
    fault_plan: Optional[FaultPlan] = None,
) -> Tuple[float, float]:
    """Compute one (kernel, hop) phase over ``blocks``.

    Shared by the single-process loop and the workers: for every row block,
    run the block-SpMM (hop >= 1), stage the result into the next hop's
    scratch buffer, and stream the block's labeled rows into the store
    matrix.  Returns ``(spmm_seconds, store_write_seconds)``.
    """
    dest_mat = sink_mats[kernel * (num_hops + 1) + hop]
    spmm_seconds = 0.0
    write_seconds = 0.0
    if hop == 0:
        for start, stop in blocks:
            lo, hi = np.searchsorted(node_ids, (start, stop))
            if hi > lo:
                fault_point(
                    "blocked.scratch.write",
                    plan=fault_plan,
                    kernel=kernel,
                    hop=hop,
                    block_start=start,
                )
                began = time.perf_counter()
                dest_mat[lo:hi] = features[node_ids[lo:hi]].astype(dtype, copy=False)
                write_seconds += time.perf_counter() - began
        return spmm_seconds, write_seconds
    source = sources[_hop_source_tag(hop)]
    dest_tag = _hop_dest_tag(hop, num_hops)
    dest = sources[dest_tag] if dest_tag is not None else None
    for start, stop in blocks:
        lo, hi = np.searchsorted(node_ids, (start, stop))
        if dest is None and hi <= lo:
            # final hop and no labeled rows in this block: nothing consumes
            # the SpMM result (big win on sparsely-labeled graphs, where most
            # last-hop blocks store nothing)
            continue
        fault_point(
            "blocked.scratch.write",
            plan=fault_plan,
            kernel=kernel,
            hop=hop,
            block_start=start,
        )
        began = time.perf_counter()
        block = operator_row_block(operator, start, stop) @ source
        if dest is not None:
            dest[start:stop] = block
        mid = time.perf_counter()
        spmm_seconds += mid - began
        if hi > lo:
            dest_mat[lo:hi] = block[node_ids[lo:hi] - start].astype(dtype, copy=False)
            write_seconds += time.perf_counter() - mid
    return spmm_seconds, write_seconds


# --------------------------------------------------------------------------- #
def _worker_main(
    worker_id: int,
    num_workers: int,
    operators,
    features: np.ndarray,
    node_ids: np.ndarray,
    blocks: List[Tuple[int, int]],
    num_hops: int,
    dtype_str: str,
    sink_spec: _ArraySpec,
    scratch_specs: Dict[str, Optional[_ArraySpec]],
    fault_plan: Optional[FaultPlan],
    task_queue,
    result_queue,
    stop_event,
) -> None:
    """Worker body: attach the shared files, run assigned phases to a barrier."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # shutdown is the parent's call
    try:
        if isinstance(features, _ArraySpec):
            # spawn start method: the parent staged the features in a scratch
            # memmap rather than pickling an (N, F) array into every worker
            features = _open_array(features)
        sink_mats = _open_sink(sink_spec)
        sources = {
            tag: (features if spec is None else _open_array(spec))
            for tag, spec in scratch_specs.items()
        }
        my_blocks = blocks[worker_id::num_workers]
        dtype = np.dtype(dtype_str)
        while not stop_event.is_set():
            try:
                task = task_queue.get(timeout=_POLL_SECONDS)
            except queue.Empty:
                continue
            if task is None:
                break
            kernel, hop = task
            spmm_seconds, write_seconds = _run_phase(
                kernel,
                hop,
                num_hops,
                operators[kernel],
                features,
                node_ids,
                my_blocks,
                sink_mats,
                sources,
                dtype,
                fault_plan=fault_plan,
            )
            result_queue.put((_DONE, worker_id, kernel, hop, spmm_seconds, write_seconds))
    except BaseException:
        try:
            result_queue.put((_ERROR, worker_id, traceback.format_exc()))
        except Exception:
            pass


class _WorkerPool:
    """Phase-barriered block-propagation pool (fork-preferring, like PR-2)."""

    def __init__(
        self,
        num_workers: int,
        worker_args: tuple,
        start_method: str,
        timeout_seconds: float,
    ) -> None:
        ctx = mp.get_context(start_method)
        self.num_workers = num_workers
        self.timeout_seconds = timeout_seconds
        self._stop = ctx.Event()
        self._result_queue = ctx.Queue()
        self._task_queues = [ctx.Queue() for _ in range(num_workers)]
        self._processes = [
            ctx.Process(
                target=_worker_main,
                args=(worker_id, num_workers, *worker_args)
                + (self._task_queues[worker_id], self._result_queue, self._stop),
                name=f"ppgnn-propagate-{worker_id}",
                daemon=True,
            )
            for worker_id in range(num_workers)
        ]
        for process in self._processes:
            process.start()

    def run_phase(self, kernel: int, hop: int) -> Tuple[float, float]:
        """Dispatch one (kernel, hop) phase to every worker and barrier on it."""
        for task_queue in self._task_queues:
            task_queue.put((kernel, hop))
        spmm_seconds = 0.0
        write_seconds = 0.0
        done = 0
        deadline = time.monotonic() + self.timeout_seconds
        while done < self.num_workers:
            try:
                message = self._result_queue.get(timeout=_POLL_SECONDS)
            except queue.Empty:
                for process in self._processes:
                    if not process.is_alive():
                        raise RuntimeError(
                            f"propagation worker {process.name} died with exit code "
                            f"{process.exitcode} mid-phase"
                        )
                if time.monotonic() >= deadline:
                    raise RuntimeError(
                        f"timed out after {self.timeout_seconds}s waiting for "
                        f"propagation phase (kernel {kernel}, hop {hop})"
                    )
                continue
            if message[0] == _ERROR:
                _, worker_id, worker_traceback = message
                raise RuntimeError(
                    f"propagation worker {worker_id} raised:\n{worker_traceback}"
                )
            _, _, _, _, phase_spmm, phase_write = message
            spmm_seconds += phase_spmm
            write_seconds += phase_write
            done += 1
        return spmm_seconds, write_seconds

    def close(self) -> None:
        self._stop.set()
        for task_queue in self._task_queues:
            try:
                task_queue.put_nowait(None)
            except Exception:
                pass
        for process in self._processes:
            process.join(timeout=2.0)
        for process in self._processes:
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()
                process.join(timeout=1.0)
            if process.is_alive():  # pragma: no cover - unkillable worker
                process.kill()
                process.join(timeout=1.0)
        for q in (*self._task_queues, self._result_queue):
            q.cancel_join_thread()
            q.close()


# --------------------------------------------------------------------------- #
def open_store_arrays(root: Path) -> Tuple[List[np.ndarray], np.memmap]:
    """Open an on-disk store's hop matrices writable, for in-place row patching.

    Returns ``(matrices, packed)``: ``matrices`` is the flat kernel-major
    list of ``(num_rows, feature_dim)`` views (index
    ``kernel * (num_hops + 1) + hop``, exactly the sink layout of
    :func:`propagate_blocked`) into ``packed``, the mapped block to
    ``flush()`` once the patch is written.  Only incremental updates write
    through this — and only into *staged* store copies no reader can see.
    Stores from older releases raise ``ValueError``.
    """
    root = Path(root)
    read_store_meta(root)
    packed = np.load(root / PACKED_FILENAME, mmap_mode="r+")
    return [packed[m] for m in range(packed.shape[0])], packed


# --------------------------------------------------------------------------- #
def _run_fingerprint(
    graph: CSRGraph,
    features: np.ndarray,
    config: PropagationConfig,
    node_ids: np.ndarray,
    layout: str,
) -> str:
    """Identity of a resumable run: any change here invalidates stale staging.

    ``layout`` is always ``"packed"``; it stays a part so manifests journaled
    by earlier releases keep matching.  Deliberately excludes ``block_size``
    and ``num_workers`` — both change only the tiling/scheduling of the
    computation, never its bytes, so a run may resume with a different block
    plan or worker count.
    """
    parts = {
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
        "accumulate_dtype": str(np.dtype(config.accumulate_dtype)),
        "layout": layout,
    }
    return digest_parts(parts)


def _trusted_journal_prefix(
    journal: PhaseJournal,
    phases: List[Tuple[int, int]],
    sink_mats: List[np.ndarray],
    sources: Dict[str, np.ndarray],
    num_hops: int,
) -> List[dict]:
    """Longest journal prefix whose recorded digests match the bytes on disk.

    Torn store writes truncate the prefix at the damaged phase; a torn
    scratch file (the input of the first phase to recompute) rolls the
    owning kernel back to hop 1, because hops >= 2 of a kernel can only be
    recomputed from that kernel's scratch chain (hop 0/1 read the features).
    """
    entries = journal.entries()
    trusted: List[dict] = []
    for index, entry in enumerate(entries):
        if index >= len(phases):
            break
        kernel, hop = phases[index]
        if entry.get("kernel") != kernel or entry.get("hop") != hop:
            break
        matrix = sink_mats[kernel * (num_hops + 1) + hop]
        if digest_array(matrix) != entry.get("store_digest"):
            logger.warning(
                "resume: torn store write detected at phase (kernel %d, hop %d); "
                "recomputing from there",
                kernel,
                hop,
            )
            break
        trusted.append(entry)
    next_index = len(trusted)
    if next_index < len(phases):
        kernel, hop = phases[next_index]
        if hop >= 2:
            previous = trusted[next_index - 1]  # phase (kernel, hop - 1)
            tag = previous.get("scratch_tag")
            intact = (
                tag is not None
                and tag in sources
                and digest_array(sources[tag]) == previous.get("scratch_digest")
            )
            if not intact:
                logger.warning(
                    "resume: scratch for (kernel %d, hop %d) is torn; "
                    "recomputing kernel %d from hop 1",
                    kernel,
                    hop,
                    kernel,
                )
                trusted = trusted[: kernel * (num_hops + 1) + 1]
    return trusted


def propagate_blocked(
    graph: CSRGraph,
    features: np.ndarray,
    config: PropagationConfig,
    node_ids: np.ndarray,
    root: Optional[Path] = None,
    layout: str = "packed",
    block_size: int = 4096,
    num_workers: int = 0,
    scratch_dir: Optional[Path] = None,
    start_method: Optional[str] = None,
    timeout_seconds: float = 600.0,
    resume: bool = False,
    fault_plan: Optional[FaultPlan] = None,
) -> Tuple[FeatureStore, dict]:
    """Blocked out-of-core propagation straight into a feature store.

    Parameters
    ----------
    node_ids:
        Sorted unique node ids whose rows the store keeps (the labeled
        nodes).  The restriction happens *during* propagation — each block's
        labeled rows are gathered and written as one contiguous store slice.
    root:
        Destination of the store files, as in
        :class:`~repro.prepropagation.pipeline.PreprocessingPipeline`; the
        final store stays memory-mapped.  With ``root=None`` the result is an
        in-memory store; the engine then only avoids the full-graph hop
        matrices, not the (unavoidable) packed labeled block.
    layout:
        Accepts only ``"packed"``; removed with ``bench/``'s follow-up (see
        :func:`~repro.prepropagation.store.check_layout`).
    block_size:
        Rows per SpMM tile (see
        :func:`repro.autoconfig.planner.plan_propagation_blocks`).
    num_workers:
        ``0`` runs blocks inline; ``K >= 1`` fans phases out over ``K``
        processes writing disjoint row ranges of the shared files.
    resume:
        Journal completed phases (fsync'd, digest-guarded) into a persistent
        staging directory next to ``root`` and, when such a journal already
        exists for the same run fingerprint, skip the journaled phases.  The
        resumed output is byte-identical to an uninterrupted run.  Requires
        ``root``.
    fault_plan:
        Deterministic fault injection (tests only); forwarded into the
        worker processes.

    Returns
    -------
    (store, timing):
        The store plus a per-phase timing dict: ``operator_seconds``
        (operator construction), ``propagate_seconds`` (SpMM + scratch
        staging; includes the one-time accumulation-dtype cast of the
        features), ``store_write_seconds`` (labeled-row streaming into the
        store files), ``total_seconds`` (wall clock), and the resume
        counters ``phases_total`` / ``phases_resumed`` / ``phases_computed``.
        With workers the SpMM/write entries are summed across processes and
        may exceed wall time.

    Results are bit-identical to the in-core
    :func:`~repro.prepropagation.propagator.propagate_features` path for any
    fixed ``accumulate_dtype``.
    """
    wall_timer = Timer().start()
    # note: no ascontiguousarray here — a full (N, F) copy is exactly what
    # this engine must not make; non-contiguous inputs are staged into the
    # hop-1 scratch block by block below
    features = np.asarray(features)
    if features.ndim != 2 or features.shape[0] != graph.num_nodes:
        raise ValueError(
            f"features must be (num_nodes, F); got {features.shape} for {graph.num_nodes} nodes"
        )
    check_layout(layout)
    if block_size <= 0:
        raise ValueError("block_size must be positive")
    if num_workers < 0:
        raise ValueError("num_workers must be non-negative")
    if resume and root is None:
        raise ValueError("resume=True requires a persistent root for the journal")
    node_ids = np.asarray(node_ids, dtype=np.int64)
    if node_ids.size == 0:
        raise ValueError("blocked propagation requires at least one stored row")
    if np.any(np.diff(node_ids) <= 0):
        raise ValueError("node_ids must be sorted and unique")
    if node_ids[0] < 0 or node_ids[-1] >= graph.num_nodes:
        raise ValueError(f"node_ids out of range [0, {graph.num_nodes})")

    num_nodes = graph.num_nodes
    feature_dim = features.shape[1]
    num_hops = config.num_hops
    num_kernels = config.num_kernels
    num_matrices = config.num_matrices
    num_rows = int(node_ids.size)
    dtype = np.dtype(config.dtype)
    accumulate_dtype = np.dtype(config.accumulate_dtype)
    blocks = [
        (start, min(start + block_size, num_nodes))
        for start in range(0, num_nodes, block_size)
    ]
    phases = [(k, hop) for k in range(num_kernels) for hop in range(num_hops + 1)]

    operator_timer = Timer()
    spmm_seconds = 0.0
    write_seconds = 0.0

    operators = []
    for k, name in enumerate(config.operators):
        with operator_timer:
            operator = build_operator(name, graph, **config.kwargs_for(k))
            if operator.dtype != accumulate_dtype:
                operator = operator.astype(accumulate_dtype)
        operators.append(operator)

    # ---------------- staging / scratch / journal roots -------------------- #
    journal: Optional[PhaseJournal] = None
    resuming = False  # a valid journal for this fingerprint was found
    if resume:
        store_root = Path(root)
        store_root.parent.mkdir(parents=True, exist_ok=True)
        staging_root = store_root.parent / f".{store_root.name}.staging"
        journal = PhaseJournal(staging_root)
        fingerprint = _run_fingerprint(graph, features, config, node_ids, "packed")
        manifest = journal.load_manifest()
        if manifest is not None and manifest.fingerprint == fingerprint:
            resuming = True
        else:
            if manifest is not None:
                logger.info(
                    "resume: staging at %s belongs to a different run; invalidating",
                    staging_root,
                )
            if staging_root.exists():
                shutil.rmtree(staging_root, ignore_errors=True)
            staging_root.mkdir(parents=True, exist_ok=True)
            journal.write_manifest(
                RunManifest(
                    fingerprint=fingerprint,
                    layout="packed",
                    num_kernels=num_kernels,
                    num_hops=num_hops,
                    num_rows=num_rows,
                    feature_dim=feature_dim,
                    dtype=dtype.str,
                    accumulate_dtype=accumulate_dtype.str,
                    block_size=int(block_size),
                )
            )
        scratch_root = staging_root / "scratch"
        scratch_root.mkdir(parents=True, exist_ok=True)
    else:
        staging_root = None
        scratch_root = Path(tempfile.mkdtemp(prefix="ppgnn-propagate-", dir=scratch_dir))

    start_method = default_start_method(start_method)
    pool: Optional[_WorkerPool] = None
    completed = False
    phases_resumed = 0
    phases_computed = 0
    try:
        # ---------------- scratch buffers (disk-backed, never in RAM) ------ #
        scratch_specs: Dict[str, Optional[_ArraySpec]] = {}
        sources: Dict[str, np.ndarray] = {}
        scratch_shape = (num_nodes, feature_dim)
        if num_hops >= 1 and (
            features.dtype != accumulate_dtype or not features.flags.c_contiguous
        ):
            # hop 1 needs an accumulate-dtype, SpMM-friendly source; stream
            # the features into scratch block by block (O(block x F) resident).
            # Rebuilt even on resume — it is a pure function of the features,
            # cheaper to recreate than to digest-verify.
            cast_path = scratch_root / "cast.dat"
            cast = np.memmap(cast_path, dtype=accumulate_dtype, mode="w+", shape=scratch_shape)
            began = time.perf_counter()
            for start, stop in blocks:  # stream-cast: O(block x F) resident
                cast[start:stop] = features[start:stop].astype(accumulate_dtype, copy=False)
            spmm_seconds += time.perf_counter() - began
            sources["hop1_src"] = cast
            scratch_specs["hop1_src"] = _ArraySpec(
                str(cast_path), scratch_shape, accumulate_dtype.str, npy=False
            )
        elif num_hops >= 1:
            sources["hop1_src"] = features
            scratch_specs["hop1_src"] = None  # workers read their own features copy
        if num_hops >= 2:
            for tag in ("s0", "s1"):
                path = scratch_root / f"{tag}.dat"
                # a resumed run must see the ping/pong bytes the journaled
                # phases left behind — the scratch chain of the first
                # recomputed hop lives here
                sources[tag] = _open_or_create_raw(
                    path, scratch_shape, accumulate_dtype, reuse=resuming
                )
                scratch_specs[tag] = _ArraySpec(
                    str(path), scratch_shape, accumulate_dtype.str, npy=False
                )

        # what workers receive as "features": under fork the parent's array is
        # shared copy-on-write for free; under spawn, pickling an (N, F) array
        # into every worker would recreate the full-graph footprint this
        # engine exists to avoid, so stage it once in a scratch memmap instead
        worker_features = features
        if num_workers > 0 and start_method != "fork":
            features_path = scratch_root / "features.dat"
            staged = np.memmap(
                features_path, dtype=features.dtype, mode="w+", shape=features.shape
            )
            for start, stop in blocks:
                staged[start:stop] = features[start:stop]
            worker_features = _ArraySpec(
                str(features_path), features.shape, features.dtype.str, npy=False
            )

        # ---------------- destination packed block ------------------------ #
        sink_shape = (num_matrices, num_rows, feature_dim)
        sink_spec: Optional[_ArraySpec] = None
        if root is not None:
            # stage into a sibling directory and rename into place on success:
            # a crash neither leaves half-written slabs behind nor destroys a
            # previous valid store at the same root.  Resumable runs use a
            # deterministic staging name (and keep it on failure); one-shot
            # runs keep the pid-suffixed throwaway staging.
            store_root = Path(root)
            store_root.parent.mkdir(parents=True, exist_ok=True)
            if staging_root is None:
                staging_root = store_root.parent / f".{store_root.name}.staging-{os.getpid()}"
                shutil.rmtree(staging_root, ignore_errors=True)
                staging_root.mkdir()
            sink_spec = _ArraySpec(
                str(staging_root / PACKED_FILENAME), sink_shape, dtype.str, npy=True
            )
        elif num_workers > 0:
            # in-memory store requested but workers cannot write parent RAM:
            # stage through a scratch packed file and read it back once
            sink_spec = _ArraySpec(str(scratch_root / "sink.npy"), sink_shape, dtype.str, npy=True)
        if sink_spec is not None:
            sink = _open_or_create_memmap(Path(sink_spec.path), sink_shape, dtype, reuse=resuming)
        else:
            sink = np.empty(sink_shape, dtype=dtype)
        sink_mats = [sink[m] for m in range(num_matrices)]

        # ---------------- resume: trust the journaled prefix --------------- #
        skip_phases: set = set()
        if resuming:
            trusted = _trusted_journal_prefix(journal, phases, sink_mats, sources, num_hops)
            if len(trusted) != len(journal.entries()):
                # rewrite the journal to exactly the trusted prefix so a later
                # crash+resume never sees entries for phases being recomputed
                journal.close()
                with open(journal.journal_path, "w") as handle:
                    for entry in trusted:
                        handle.write(json.dumps(entry, sort_keys=True) + "\n")
                    handle.flush()
                    os.fsync(handle.fileno())
            skip_phases = {(entry["kernel"], entry["hop"]) for entry in trusted}
            for entry in trusted:
                spmm_seconds += float(entry.get("spmm_seconds", 0.0))
                write_seconds += float(entry.get("write_seconds", 0.0))
            logger.info(
                "resume: %d/%d phase(s) journaled and intact; recomputing %d",
                len(skip_phases),
                len(phases),
                len(phases) - len(skip_phases),
            )

        # ---------------- the phase loop ----------------------------------- #
        if num_workers > 0 and len(skip_phases) < len(phases):
            pool = _WorkerPool(
                num_workers,
                (
                    operators,
                    worker_features,
                    node_ids,
                    blocks,
                    num_hops,
                    dtype.str,
                    sink_spec,
                    scratch_specs,
                    fault_plan,
                ),
                start_method,
                timeout_seconds,
            )
        for kernel, hop in phases:
            if (kernel, hop) in skip_phases:
                phases_resumed += 1
                continue
            fault_point("blocked.phase.start", plan=fault_plan, kernel=kernel, hop=hop)
            if pool is not None:
                phase_spmm, phase_write = pool.run_phase(kernel, hop)
            else:
                phase_spmm, phase_write = _run_phase(
                    kernel, hop, num_hops, operators[kernel], features, node_ids,
                    blocks, sink_mats, sources, dtype, fault_plan=fault_plan,
                )
            spmm_seconds += phase_spmm
            write_seconds += phase_write
            phases_computed += 1
            if journal is not None:
                # durability order: phase data reaches disk before the journal
                # entry that vouches for it
                matrix_index = kernel * (num_hops + 1) + hop
                sink.flush()
                dest_tag = _hop_dest_tag(hop, num_hops)
                scratch_digest = None
                if dest_tag is not None:
                    scratch = sources[dest_tag]
                    if isinstance(scratch, np.memmap):
                        scratch.flush()
                    scratch_digest = digest_array(scratch)
                journal.append(
                    {
                        "kernel": kernel,
                        "hop": hop,
                        "store_digest": digest_array(sink_mats[matrix_index]),
                        "scratch_tag": dest_tag,
                        "scratch_digest": scratch_digest,
                        "spmm_seconds": phase_spmm,
                        "write_seconds": phase_write,
                    }
                )
            fault_point("blocked.phase.complete", plan=fault_plan, kernel=kernel, hop=hop)
        if pool is not None:
            pool.close()
            pool = None

        # ---------------- finalize the store ------------------------------- #
        began = time.perf_counter()
        if sink_spec is not None:
            sink.flush()
        if root is not None:
            store_root = Path(root)
            np.save(staging_root / "node_ids.npy", node_ids)
            meta = store_meta(
                num_kernels=num_kernels,
                num_hops=num_hops,
                num_rows=num_rows,
                feature_dim=feature_dim,
                dtype=dtype,
            )
            (staging_root / "meta.json").write_text(json.dumps(meta, indent=2))
            del sink_mats, sink
            if journal is not None:
                # the journal and scratch are run state, not store content
                journal.discard()
                shutil.rmtree(scratch_root, ignore_errors=True)
            # swap the finished store into place: the old store is moved
            # aside (not deleted) until the new one has been renamed in, so
            # a crash at any instant destroys no data — worst case the old
            # store survives under .<name>.old-<pid> for manual recovery
            retired = store_root.parent / f".{store_root.name}.old-{os.getpid()}"
            shutil.rmtree(retired, ignore_errors=True)
            if store_root.exists():
                store_root.replace(retired)
            staging_root.replace(store_root)
            shutil.rmtree(retired, ignore_errors=True)
            store = FeatureStore.load(store_root)
        else:
            if sink_spec is not None:
                del sink_mats
                sink = np.load(sink_spec.path)  # read the worker-written block back once
            store = FeatureStore(HopFeatures.from_packed(sink, node_ids, num_kernels=num_kernels))
        write_seconds += time.perf_counter() - began
        completed = True
    finally:
        if pool is not None:
            pool.close()
        if journal is not None:
            journal.close()
        if not completed and staging_root is not None and not resume:
            # a crash/timeout leaves the half-written slabs only in the
            # staging directory; any pre-existing store at root is untouched.
            # Resumable runs keep their staging — that *is* the checkpoint.
            shutil.rmtree(staging_root, ignore_errors=True)
        if not resume:
            shutil.rmtree(scratch_root, ignore_errors=True)
        elif not completed:
            logger.info(
                "resumable run interrupted; journaled state kept at %s", staging_root
            )

    wall_timer.stop()
    timing = {
        "operator_seconds": operator_timer.elapsed,
        "propagate_seconds": spmm_seconds,
        "store_write_seconds": write_seconds,
        "total_seconds": wall_timer.elapsed,
        "num_blocks": len(blocks),
        "block_size": int(block_size),
        "num_workers": int(num_workers),
        "phases_total": len(phases),
        "phases_resumed": phases_resumed,
        "phases_computed": phases_computed,
    }
    logger.info(
        "blocked propagation: %d kernel(s) x %d hops over %d nodes in %d block(s) "
        "(%d workers), %.2fs%s",
        num_kernels,
        num_hops,
        num_nodes,
        len(blocks),
        num_workers,
        timing["total_seconds"],
        f" [{phases_resumed} phase(s) resumed]" if phases_resumed else "",
    )
    return store, timing
