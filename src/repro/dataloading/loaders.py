"""Real PP-GNN data loaders over a :class:`~repro.prepropagation.store.FeatureStore`.

Each loader implements one of the batch-assembly strategies from Section 4 and
yields identical training batches (so accuracy results are strategy-agnostic);
they differ in *how* the rows are gathered, which the trainer's time breakdown
and the cost models account for.

=======================  ==========================================================
Loader                   Paper counterpart
=======================  ==========================================================
:class:`BaselineLoader`  PyTorch ``DataLoader`` per-row collation (Figure 6a)
:class:`FusedLoader`     customized loader with a single index op (Figure 6b)
:class:`ChunkReshuffleLoader`  chunk reshuffling + GPU-side assembly (Figure 6d)
:class:`StorageLoader`   GDS-style chunked reads from the store file (Section 4.3)
=======================  ==========================================================

Optimized assembly path
-----------------------
``FusedLoader``/``ChunkReshuffleLoader``/``StorageLoader`` additionally support
the packed fast path built on the store's contiguous ``(M, num_rows, F)``
block (see :mod:`repro.prepropagation.store`):

* ``packed=True`` (default) assembles all ``M = K (R + 1)`` hop matrices of a
  batch with a *single* ``np.take(..., axis=1, out=...)`` (fused loader) or
  one slice copy per contiguous run spanning all matrices (chunk/storage
  loaders), instead of ``M`` separate per-matrix gathers.
* ``reuse_buffers=True`` threads a ring of ``num_buffers`` preallocated
  ``(M, batch_size, F)`` buffers through assembly so the steady state
  allocates nothing; yielded ``hop_features`` are then *views* into the ring
  that stay valid until ``num_buffers - 1`` further batches have been
  assembled (the double-buffer contract the prefetch pipeline relies on —
  see :mod:`repro.dataloading.prefetch`).

Passing ``packed=False, reuse_buffers=False`` restores the seed (naive)
assembly path exactly — the reference the loader-throughput benchmark
measures against.  Batches are bit-identical between the two paths for the
same seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

import numpy as np

from repro.dataloading.batching import BatchSchedule, schedule_for_method
from repro.prepropagation.store import FeatureStore
from repro.utils.rng import SeedLike, new_rng
from repro.utils.timer import TimeAccumulator


@dataclass
class PPGNNBatch:
    """One training batch for a PP-GNN model."""

    row_indices: np.ndarray
    hop_features: List[np.ndarray]
    labels: np.ndarray

    @property
    def batch_size(self) -> int:
        return int(self.row_indices.size)

    def nbytes(self) -> int:
        return int(sum(m.nbytes for m in self.hop_features))


class _BufferRing:
    """Ring of reusable ``(num_matrices, batch_size, F)`` assembly buffers.

    ``acquire(n)`` hands out a ``(num_matrices, n, F)`` view of the next
    buffer in round-robin order; the view's contents stay valid until the
    ring wraps back around (``len(ring) - 1`` subsequent acquisitions).
    """

    def __init__(self, num_matrices: int, batch_size: int, feature_dim: int, dtype, num_buffers: int) -> None:
        if num_buffers <= 0:
            raise ValueError("num_buffers must be positive")
        self._buffers = [
            np.empty((num_matrices, batch_size, feature_dim), dtype=dtype)
            for _ in range(num_buffers)
        ]
        self._next = 0

    def __len__(self) -> int:
        return len(self._buffers)

    def acquire(self, num_rows: int) -> np.ndarray:
        buf = self._buffers[self._next]
        self._next = (self._next + 1) % len(self._buffers)
        if num_rows > buf.shape[1]:
            raise ValueError(f"requested {num_rows} rows from buffers of size {buf.shape[1]}")
        return buf[:, :num_rows]


class PPGNNLoader:
    """Base class: schedule generation + per-epoch iteration with timing."""

    #: name used by the ablation experiments
    strategy_name = "base"
    #: whether this strategy supports the packed single-kernel assembly path
    supports_packed = True

    def __init__(
        self,
        store: FeatureStore,
        labels: np.ndarray,
        batch_size: int,
        method: str = "rr",
        chunk_size: int = 1,
        seed: SeedLike = 0,
        packed: Optional[bool] = None,
        reuse_buffers: bool = False,
        num_buffers: int = 2,
    ) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        labels = np.asarray(labels)
        if labels.shape[0] != store.num_rows:
            raise ValueError(
                f"labels length {labels.shape[0]} must match store rows {store.num_rows}"
            )
        self.store = store
        self.labels = labels
        self.batch_size = batch_size
        self.method = method
        self.chunk_size = chunk_size
        self.rng = new_rng(seed)
        self.timing = TimeAccumulator()
        self.packed = self.supports_packed if packed is None else bool(packed)
        if self.packed and not self.supports_packed:
            raise ValueError(f"{type(self).__name__} does not support the packed assembly path")
        self.reuse_buffers = bool(reuse_buffers)
        self.num_buffers = int(num_buffers)
        self._ring: Optional[_BufferRing] = None
        if self.packed:
            # materialize (or map) the packed block now: a one-time setup cost
            # that must not be charged to the first epoch's batch-assembly time
            self._prepare_packed()

    # ------------------------------------------------------------------ #
    def _prepare_packed(self) -> None:
        self.store.packed_matrix()
    def _acquire_block(self, num_rows: int) -> np.ndarray:
        """Return a ``(num_matrices, num_rows, F)`` assembly target.

        With ``reuse_buffers`` the block comes from the preallocated ring
        (zero allocation in steady state); otherwise a fresh array is
        allocated so callers may hold on to yielded batches indefinitely.
        """
        if self.reuse_buffers:
            if self._ring is None:
                self._ring = _BufferRing(
                    self.store.num_matrices,
                    self.batch_size,
                    self.store.feature_dim,
                    self.store.dtype,
                    self.num_buffers,
                )
            return self._ring.acquire(num_rows)
        return np.empty(
            (self.store.num_matrices, num_rows, self.store.feature_dim), dtype=self.store.dtype
        )

    def epoch_schedule(self) -> BatchSchedule:
        return schedule_for_method(
            self.method,
            num_rows=self.store.num_rows,
            batch_size=self.batch_size,
            chunk_size=self.chunk_size,
            seed=self.rng,
        )

    def _assemble(self, rows: np.ndarray, runs: list[tuple[int, int]]) -> List[np.ndarray]:
        raise NotImplementedError

    def epoch(self) -> Iterator[PPGNNBatch]:
        """Yield all batches of one epoch, recording assembly time."""
        schedule = self.epoch_schedule()
        for rows, runs in zip(schedule.batches, schedule.chunk_runs):
            with self.timing.measure("batch_assembly"):
                hop_features = self._assemble(rows, runs)
            yield PPGNNBatch(row_indices=rows, hop_features=hop_features, labels=self.labels[rows])

    def num_batches(self) -> int:
        return int(np.ceil(self.store.num_rows / self.batch_size))

    def close(self) -> None:
        """Release loader resources.

        A no-op for the in-process strategies (they hold only NumPy views),
        but part of the loader contract so every pipeline stage — loader,
        multi-process wrapper, prefetcher, trainer, serving engine — shares
        one ``close()``/context-manager lifecycle.
        """

    def __enter__(self) -> "PPGNNLoader":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    def _fill_runs(self, source: np.ndarray, rows: np.ndarray, runs: list[tuple[int, int]]) -> List[np.ndarray]:
        """Copy contiguous ``runs`` from a packed source into an assembly block.

        One bulk slice copy per run covers *all* hop matrices at once — the
        replica of the per-run DMA transfers of GPU-side chunk assembly.
        """
        block = self._acquire_block(rows.size)
        offset = 0
        for start, stop in runs:
            n = stop - start
            block[:, offset : offset + n] = source[:, start:stop]
            offset += n
        return list(block)


class BaselineLoader(PPGNNLoader):
    """Row-at-a-time gather, mimicking default DataLoader collation.

    Every row of every hop matrix is copied with an individual operation —
    the kernel-launch-bound behaviour the paper identifies as the dominant
    overhead of the vanilla PP-GNN implementations.  This loader is the
    profiled pathology and intentionally has no packed fast path.
    """

    strategy_name = "baseline"
    supports_packed = False

    def _assemble(self, rows: np.ndarray, runs: list[tuple[int, int]]) -> List[np.ndarray]:
        matrices = self.store.matrices()
        out: List[np.ndarray] = []
        for matrix in matrices:
            gathered = np.empty((rows.size, matrix.shape[1]), dtype=matrix.dtype)
            for i, row in enumerate(rows):
                gathered[i] = matrix[row]  # one copy per row, as the profiled baseline does
            out.append(gathered)
        return out


class FusedLoader(PPGNNLoader):
    """Efficient host-side batch assembly: one fancy-index op per hop matrix.

    With ``packed=True`` the per-matrix index ops fuse further into a single
    ``np.take`` over the store's ``(M, N, F)`` block, writing straight into a
    (possibly reused) batch buffer.
    """

    strategy_name = "fused"

    def _assemble(self, rows: np.ndarray, runs: list[tuple[int, int]]) -> List[np.ndarray]:
        if self.packed:
            block = self._acquire_block(rows.size)
            self.store.gather_packed(rows, out=block)
            return list(block)
        return self.store.gather(rows)


def _copy_runs(matrix: np.ndarray, runs: list[tuple[int, int]]) -> np.ndarray:
    """The rows of ``runs`` of one matrix, as a fresh in-memory array.

    A single run is copied too: a slice of a mapped file would defer the read
    past the assembly timer and hand the consumer a read-only view.
    """
    pieces = [matrix[start:stop] for start, stop in runs]
    return np.array(pieces[0]) if len(pieces) == 1 else np.concatenate(pieces, axis=0)


class ChunkReshuffleLoader(PPGNNLoader):
    """Chunk reshuffling with GPU-side assembly (SGD-CR).

    Rows arrive as a handful of contiguous runs, so the loader issues one
    slice copy per run (the bulk DMA transfers) and concatenates them — the
    concatenation standing in for the GPU-side assembly kernel.  The packed
    path performs one slice copy per run across *all* matrices into a
    preallocated block, eliminating both the per-matrix loop and the
    concatenation allocations.
    """

    strategy_name = "chunk"

    def __init__(self, *args, **kwargs) -> None:
        kwargs.setdefault("method", "cr")
        super().__init__(*args, **kwargs)
        if self.method != "cr":
            raise ValueError("ChunkReshuffleLoader requires the 'cr' training method")
        if self.chunk_size <= 1:
            # paper default: chunk size equals the batch size
            self.chunk_size = self.batch_size

    def _assemble(self, rows: np.ndarray, runs: list[tuple[int, int]]) -> List[np.ndarray]:
        if self.packed:
            return self._fill_runs(self.store.packed_matrix(), rows, runs)
        return [_copy_runs(matrix, runs) for matrix in self.store.matrices()]


class StorageLoader(PPGNNLoader):
    """Chunked reads from the memory-mapped file of a file-backed store.

    Models the GDS path: data never materializes fully in (host) memory —
    each batch's contiguous runs are read straight from the mapped
    ``packed.npy``.  Requires chunk reshuffling (the paper only supports
    SGD-CR for storage-resident inputs).  The packed path reads each run with
    one bulk copy across all matrix slabs; ``packed=False`` is the paper's
    per-matrix storage baseline, one read per run per matrix slab.  Either
    way the batch is a copy: no yielded matrix aliases the mapped file.
    """

    strategy_name = "storage"

    def __init__(self, *args, **kwargs) -> None:
        kwargs.setdefault("method", "cr")
        super().__init__(*args, **kwargs)
        if not self.store.is_file_backed:
            raise ValueError("StorageLoader requires a file-backed FeatureStore")
        if self.method != "cr":
            raise ValueError("StorageLoader only supports the 'cr' training method")
        if self.chunk_size <= 1:
            self.chunk_size = self.batch_size
        # storage data stays on disk: map the file once, never pack into RAM
        self._mapped = self.store.packed_matrix(memmap=True)

    def _prepare_packed(self) -> None:
        pass  # the mapped file is the packed block

    def _assemble(self, rows: np.ndarray, runs: list[tuple[int, int]]) -> List[np.ndarray]:
        if self.packed:
            return self._fill_runs(self._mapped, rows, runs)
        return [_copy_runs(matrix, runs) for matrix in self._mapped]


LOADER_CLASSES = {
    "baseline": BaselineLoader,
    "fused": FusedLoader,
    "chunk": ChunkReshuffleLoader,
    "storage": StorageLoader,
}


def build_loader(
    strategy: str,
    store: FeatureStore,
    labels: np.ndarray,
    batch_size: int,
    chunk_size: Optional[int] = None,
    seed: SeedLike = 0,
    packed: Optional[bool] = None,
    reuse_buffers: bool = False,
    num_buffers: int = 2,
    num_workers: int = 0,
    keep: int = 2,
) -> "PPGNNLoader | MultiProcessLoader":
    """Construct a loader by strategy name.

    ``baseline``/``fused`` use SGD-RR; ``chunk``/``storage`` use SGD-CR with
    ``chunk_size`` defaulting to the batch size.  ``packed``/``reuse_buffers``/
    ``num_buffers`` select the optimized assembly path (see module docstring);
    ``packed=None`` keeps each strategy's default.

    ``num_workers > 0`` wraps the loader in a
    :class:`~repro.dataloading.workers.MultiProcessLoader` that shards each
    epoch's batch assembly round-robin across that many worker processes over
    a shared-memory view of the packed block (``keep`` is its yielded-batch
    valid window).  The wrapper owns OS resources — close it (or use it as a
    context manager) when done.
    """
    key = strategy.lower()
    if key not in LOADER_CLASSES:
        raise KeyError(f"unknown loader strategy {strategy!r}; available: {sorted(LOADER_CLASSES)}")
    cls = LOADER_CLASSES[key]
    kwargs = dict(
        batch_size=batch_size,
        seed=seed,
        packed=packed,
        reuse_buffers=reuse_buffers,
        num_buffers=num_buffers,
    )
    if key in ("chunk", "storage"):
        kwargs["method"] = "cr"
        kwargs["chunk_size"] = chunk_size or batch_size
    else:
        kwargs["method"] = "rr"
        kwargs["chunk_size"] = 1
    if num_workers <= 0 and keep != 2:
        raise ValueError("keep only applies to the multi-process path (num_workers > 0)")
    loader = cls(store, labels, **kwargs)
    if num_workers > 0:
        from repro.dataloading.workers import MultiProcessLoader

        return MultiProcessLoader(loader, num_workers=num_workers, keep=keep)
    return loader
