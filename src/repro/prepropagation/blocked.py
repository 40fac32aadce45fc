"""Blocked pre-propagation: Eq. (2) tiled over row blocks, straight into the store.

Every :class:`~repro.prepropagation.pipeline.PreprocessingPipeline` mode runs
this engine; the modes differ only in block size.

* the SpMM is **tiled over contiguous row blocks** of the CSR operator
  (:func:`~repro.graph.operators.operator_row_block` — zero-copy views, and a
  block-SpMM runs the exact per-row multiply-accumulate sequence of the full
  product, so results are bit-identical to
  :func:`~repro.prepropagation.propagator.propagate_features`);
* with **one block and no workers** (the in-core mode, or any plan whose
  block covers the graph) the hop chain stays in RAM: each SpMM product is
  the next hop's input as it is, so the run holds the store, the CSR
  operators and at most two ``(N, F)`` hops in the store dtype — no scratch
  file and no copy;
* with more blocks, hop ``r - 1 -> r`` is **double-buffered through two
  disk-backed scratch memmaps** (ping/pong) instead of RAM-resident
  matrices — the resident working set is a handful of ``(block_size, F)``
  buffers;
* each finished block's **labeled rows stream straight into the packed
  store block** (``(M, rows, F)``, the ``packed.npy`` of
  :class:`~repro.prepropagation.store.FeatureStore`), so the output is born
  in the zero-copy layout the loaders gather from — no re-packing copy;
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
contiguous slice assignment.  The store directory itself is published by
:func:`~repro.prepropagation.store.write_store`, staged and swapped into
place, so a failed run of any mode leaves the previous store at ``root``
whole; the pid-named staging and ``ppgnn-propagate-<pid>-*`` scratch of a
killed run are removed by the next one (:mod:`repro.resilience.durable`).

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

import multiprocessing as mp
import queue
import shutil
import signal
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
    map_store,
    write_store,
)
from repro.resilience.checkpoint import (
    PhaseJournal,
    RunManifest,
    digest_array,
    digest_parts,
    run_parts,
)
from repro.resilience.durable import fresh_scratch, fresh_staging
from repro.resilience.faultinject import FaultPlan, fault_point
from repro.utils.logging import get_logger
from repro.utils.mp import default_start_method, stop_pool
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


def _stored_rows(rows: np.ndarray, start: int, stop: int, stored: np.ndarray) -> np.ndarray:
    """The ``stored`` rows of ``rows``, all of which lie in ``[start, stop)``.

    Sorted unique ids that fill the range are the range itself, so a fully
    stored block is a slice (cast into the store without a gather), not a
    fancy-index copy.
    """
    return rows[start:stop] if stored.size == stop - start else rows[stored]


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
    fault_plan: Optional[FaultPlan] = None,
    chained: bool = False,
) -> Tuple[float, float]:
    """Compute one (kernel, hop) phase over ``blocks``.

    Shared by the single-process loop and the workers: for every row block,
    run the block-SpMM (hop >= 1), stage the result for the next hop, and
    stream the block's labeled rows into the store matrix (cast on
    assignment, so the only temporary is the gathered rows).  ``chained`` is
    the one-block case, whose chain stays in RAM: hop 1 reads the features in
    the store dtype, and each product is bound in ``sources`` as the
    next hop's input instead of being copied into a scratch buffer, the
    consumed input dropped, so at most two ``(N, F)`` hops are alive.
    Returns ``(spmm_seconds, store_write_seconds)``.
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
                dest_mat[lo:hi] = _stored_rows(features, start, stop, node_ids[lo:hi])
                write_seconds += time.perf_counter() - began
        return spmm_seconds, write_seconds
    source_tag = _hop_source_tag(hop)
    dest_tag = _hop_dest_tag(hop, num_hops)
    if chained:
        began = time.perf_counter()
        if hop == 1:
            source = np.ascontiguousarray(features, dtype=operator.dtype)
        else:
            source = sources.pop(source_tag)
        spmm_seconds += time.perf_counter() - began
    else:
        source = sources[source_tag]
    for start, stop in blocks:
        lo, hi = np.searchsorted(node_ids, (start, stop))
        if dest_tag is None and hi <= lo:
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
        if chained:
            block = operator @ source
            source = None  # consumed: the store write below runs beside one hop, not two
            if dest_tag is not None:
                sources[dest_tag] = block
        else:
            block = operator_row_block(operator, start, stop) @ source
            if dest_tag is not None:
                sources[dest_tag][start:stop] = block
        mid = time.perf_counter()
        spmm_seconds += mid - began
        if hi > lo:
            dest_mat[lo:hi] = _stored_rows(block, 0, stop - start, node_ids[lo:hi] - start)
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
        sink_mats = list(_open_array(sink_spec))
        sources = {
            tag: (features if spec is None else _open_array(spec))
            for tag, spec in scratch_specs.items()
        }
        my_blocks = blocks[worker_id::num_workers]
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
        stop_pool(
            self._stop, self._task_queues, self._processes, (*self._task_queues, self._result_queue)
        )


# --------------------------------------------------------------------------- #
def open_store_arrays(root: Path) -> Tuple[List[np.ndarray], np.memmap]:
    """Open an on-disk store's hop matrices writable, for in-place row patching.

    Returns ``(matrices, packed)``: ``matrices`` is the flat kernel-major
    list of ``(num_rows, feature_dim)`` views (index
    ``kernel * (num_hops + 1) + hop``, exactly the sink layout of
    :func:`propagate_blocked`) into ``packed``, the mapped block to
    ``flush()`` once the patch is written.  Only incremental updates write
    through this — and only into *staged* store copies no reader can see.
    Stores from older releases and torn stores raise ``ValueError``.
    """
    packed, _, _ = map_store(root, mmap_mode="r+")
    return list(packed), packed


# --------------------------------------------------------------------------- #
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
    """Blocked propagation straight into a feature store.

    Parameters
    ----------
    node_ids:
        Sorted unique node ids whose rows the store keeps (the labeled
        nodes).  The restriction happens *during* propagation — each block's
        labeled rows are gathered and written as one contiguous store slice.
    root:
        Destination of the store files, as in
        :class:`~repro.prepropagation.pipeline.PreprocessingPipeline`.  A
        multi-block store is returned memory-mapped; the one-block case
        (one block, no workers, no resume) keeps its block in RAM, as it does
        with ``root=None``.
    layout:
        Accepts only ``"packed"``; removed with ``bench/``'s follow-up (see
        :func:`~repro.prepropagation.store.check_layout`).
    block_size:
        Rows per SpMM tile (see
        :func:`repro.autoconfig.planner.plan_propagation_blocks`); a block
        covering the graph is the in-core case.
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
        staging; includes the one-time store-dtype cast of features given
        in another dtype), ``store_write_seconds`` (labeled-row streaming
        into the store files), ``total_seconds`` (wall clock), and the resume
        counters ``phases_total`` / ``phases_resumed`` / ``phases_computed``.
        With workers the SpMM/write entries are summed across processes and
        may exceed wall time.

    Results are bit-identical to
    :func:`~repro.prepropagation.propagator.propagate_features` under the
    same config: both accumulate in ``config.dtype``.
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
    blocks = [
        (start, min(start + block_size, num_nodes))
        for start in range(0, num_nodes, block_size)
    ]
    # the one-block case chains its hops in RAM (see _run_phase): no scratch
    chained = len(blocks) == 1 and num_workers == 0 and not resume
    phases = [(k, hop) for k in range(num_kernels) for hop in range(num_hops + 1)]

    operator_timer = Timer()
    spmm_seconds = 0.0
    write_seconds = 0.0

    operators = []
    for k, name in enumerate(config.operators):
        with operator_timer:
            operator = build_operator(name, graph, **config.kwargs_for(k)).astype(
                dtype, copy=False
            )
        operators.append(operator)

    # ---------------- staging / scratch / journal roots -------------------- #
    journal: Optional[PhaseJournal] = None
    resuming = False  # a valid journal for this fingerprint was found
    if resume:
        staging_root = Path(root).parent / f".{Path(root).name}.staging"
        journal = PhaseJournal(staging_root)
        fingerprint = digest_parts(run_parts(graph, features, config, node_ids))
        resuming = journal.begin(
            RunManifest.for_run(fingerprint, config, num_rows, feature_dim, block_size)
        )
        scratch_root = staging_root / "scratch"
        scratch_root.mkdir(exist_ok=True)
    else:
        staging_root = None
        scratch_root = None if chained else fresh_scratch(scratch_dir)

    start_method = default_start_method(start_method)
    pool: Optional[_WorkerPool] = None
    completed = False
    phases_resumed = 0
    phases_computed = 0
    try:
        # ---------------- scratch buffers (disk-backed; one block needs none) #
        scratch_specs: Dict[str, Optional[_ArraySpec]] = {}
        sources: Dict[str, np.ndarray] = {}
        scratch_shape = (num_nodes, feature_dim)
        if chained or num_hops == 0:
            pass  # no hop reads a scratch buffer
        elif features.dtype != dtype or not features.flags.c_contiguous:
            # hop 1 needs a store-dtype, SpMM-friendly source; stream
            # the features into scratch block by block (O(block x F) resident).
            # Rebuilt even on resume — it is a pure function of the features,
            # cheaper to recreate than to digest-verify.
            cast_path = scratch_root / "cast.dat"
            cast = np.memmap(cast_path, dtype=dtype, mode="w+", shape=scratch_shape)
            began = time.perf_counter()
            for start, stop in blocks:  # stream-cast: O(block x F) resident
                cast[start:stop] = features[start:stop]
            spmm_seconds += time.perf_counter() - began
            sources["hop1_src"] = cast
            scratch_specs["hop1_src"] = _ArraySpec(
                str(cast_path), scratch_shape, dtype.str, npy=False
            )
        else:
            sources["hop1_src"] = features
            scratch_specs["hop1_src"] = None  # workers read their own features copy
        if num_hops >= 2 and not chained:
            for tag in ("s0", "s1"):
                path = scratch_root / f"{tag}.dat"
                # a resumed run must see the ping/pong bytes the journaled
                # phases left behind — the scratch chain of the first
                # recomputed hop lives here
                sources[tag] = _open_or_create_raw(
                    path, scratch_shape, dtype, reuse=resuming
                )
                scratch_specs[tag] = _ArraySpec(
                    str(path), scratch_shape, dtype.str, npy=False
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
        if root is not None and not chained:
            # stream into a sibling staging directory that write_store swaps
            # into place on success: a crash neither leaves half-written slabs
            # behind nor destroys a previous valid store at the same root.
            # Resumable runs use a deterministic staging name (and keep it on
            # failure); one-shot runs a pid-suffixed throwaway one.
            if staging_root is None:
                staging_root = fresh_staging(root)
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
                journal.rewrite(trusted)
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
                    blocks, sink_mats, sources, fault_plan=fault_plan,
                    chained=chained,
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
        if root is not None and not chained:
            if journal is not None:
                # the journal and scratch are run state, not store content
                journal.discard()
                shutil.rmtree(scratch_root, ignore_errors=True)
            write_store(root, sink, node_ids, num_kernels, staging=staging_root)
            store = FeatureStore.load(root)
        else:
            if sink_spec is not None:
                del sink_mats
                sink = np.load(sink_spec.path)  # read the worker-written block back once
            # the one-block case publishes its RAM block through the same
            # writer (FeatureStore with a root) and keeps it resident
            store = FeatureStore(HopFeatures(node_ids, sink, num_kernels=num_kernels), root=root)
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
        if scratch_root is not None and not resume:
            shutil.rmtree(scratch_root, ignore_errors=True)
        elif resume and not completed:
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
