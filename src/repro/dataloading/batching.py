"""Mini-batch index schedules: SGD-RR and chunk reshuffling.

The paper's chunk reshuffling (Section 4.2) shuffles *chunks* of contiguous
training rows instead of individual rows at the start of each epoch.  Batches
are then cut from the chunk-permuted order, so each batch touches only
``batch_size / chunk_size`` contiguous ranges — enabling bulk transfers and
GPU-side assembly — while still visiting every example exactly once per epoch.
Chunk size 1 recovers plain SGD with random reshuffling (SGD-RR).
"""

from __future__ import annotations

from typing import Iterator, List, Optional

import numpy as np

from repro.utils.rng import SeedLike, new_rng


class BatchSchedule:
    """One epoch's worth of mini-batch row indices.

    ``batches[i]`` are row indices into the feature store; ``chunk_runs[i]``
    lists the contiguous ``(start, stop)`` runs that compose the batch, which
    the chunk and storage loaders use to issue one bulk copy per run.  The runs
    are derived on first access (in batch order for SGD-CR, over the sorted
    rows for SGD-RR), so an epoch whose loader never reads them never builds
    them; passing ``chunk_runs`` supplies them up front.
    """

    def __init__(
        self,
        batches: List[np.ndarray],
        method: str,
        chunk_size: int,
        chunk_runs: Optional[List[List[tuple[int, int]]]] = None,
    ) -> None:
        if chunk_runs is not None and len(batches) != len(chunk_runs):
            raise ValueError("batches and chunk_runs must align")
        self.batches = batches
        self.method = method
        self.chunk_size = chunk_size
        self._chunk_runs = chunk_runs

    @property
    def chunk_runs(self) -> List[List[tuple[int, int]]]:
        if self._chunk_runs is None:
            ordered = np.sort if self.method == "rr" else np.asarray
            self._chunk_runs = [_runs_from_indices(ordered(batch)) for batch in self.batches]
        return self._chunk_runs

    @property
    def num_batches(self) -> int:
        return len(self.batches)

    @property
    def num_rows(self) -> int:
        return int(sum(batch.size for batch in self.batches))

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self.batches)


def _runs_from_indices(indices: np.ndarray) -> List[tuple[int, int]]:
    """Decompose sorted-or-not indices into maximal contiguous ascending runs.

    Vectorized: run boundaries are the positions where consecutive values do
    not increase by exactly one, so a single ``np.diff`` scan replaces the
    per-element Python loop (schedule construction sits on the epoch path).
    """
    if indices.size == 0:
        return []
    indices = np.asarray(indices, dtype=np.int64)
    breaks = np.flatnonzero(np.diff(indices) != 1)
    starts = indices[np.concatenate(([0], breaks + 1))]
    stops = indices[np.concatenate((breaks, [indices.size - 1]))] + 1
    return [(int(a), int(b)) for a, b in zip(starts, stops)]


def sgd_rr_schedule(
    num_rows: int,
    batch_size: int,
    seed: SeedLike = None,
    drop_last: bool = False,
) -> BatchSchedule:
    """Standard SGD with random reshuffling: a fresh row permutation per epoch."""
    if num_rows < 0:
        raise ValueError("num_rows must be non-negative")
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    rng = new_rng(seed)
    perm = rng.permutation(num_rows)
    batches: List[np.ndarray] = []
    for start in range(0, num_rows, batch_size):
        batch = perm[start : start + batch_size]
        if drop_last and batch.size < batch_size:
            break
        batches.append(batch)
    return BatchSchedule(batches=batches, method="rr", chunk_size=1)


def chunk_reshuffle_schedule(
    num_rows: int,
    batch_size: int,
    chunk_size: int,
    seed: SeedLike = None,
    drop_last: bool = False,
    shuffle_within_chunk: bool = False,
) -> BatchSchedule:
    """Chunk reshuffling (SGD-CR): permute contiguous chunks, then cut batches.

    With ``chunk_size == batch_size`` (the paper's operating point) each batch
    is exactly one contiguous range of rows — a single bulk transfer.
    ``chunk_size == 1`` is identical to :func:`sgd_rr_schedule`.
    """
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    if chunk_size == 1:
        return sgd_rr_schedule(num_rows, batch_size, seed=seed, drop_last=drop_last)
    rng = new_rng(seed)
    num_chunks = int(np.ceil(num_rows / chunk_size)) if num_rows else 0
    chunk_order = rng.permutation(num_chunks)
    pieces = []
    for chunk_id in chunk_order:
        start = chunk_id * chunk_size
        stop = min(start + chunk_size, num_rows)
        piece = np.arange(start, stop, dtype=np.int64)
        if shuffle_within_chunk:
            piece = rng.permutation(piece)
        pieces.append(piece)
    order = np.concatenate(pieces) if pieces else np.array([], dtype=np.int64)
    batches: List[np.ndarray] = []
    for start in range(0, order.size, batch_size):
        batch = order[start : start + batch_size]
        if drop_last and batch.size < batch_size:
            break
        batches.append(batch)
    return BatchSchedule(batches=batches, method="cr", chunk_size=chunk_size)


def schedule_for_method(
    method: str,
    num_rows: int,
    batch_size: int,
    chunk_size: int = 1,
    seed: SeedLike = None,
) -> BatchSchedule:
    """Dispatch on the training-method name used throughout the experiments."""
    key = method.lower()
    if key in ("rr", "sgd-rr", "sgd_rr"):
        return sgd_rr_schedule(num_rows, batch_size, seed=seed)
    if key in ("cr", "sgd-cr", "sgd_cr", "chunk"):
        return chunk_reshuffle_schedule(num_rows, batch_size, chunk_size, seed=seed)
    raise ValueError(f"unknown training method {method!r}; expected 'rr' or 'cr'")
