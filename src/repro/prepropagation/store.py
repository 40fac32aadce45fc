"""Feature stores for pre-propagated (hop-wise) node features.

After preprocessing, PP-GNN training only needs the rows of the labeled nodes
(Section 6.4) but across ``K (R + 1)`` matrices — the input-expansion problem.
The store abstracts where those matrices live:

* :class:`HopFeatures` — the logical container (kernel-major, hop-major list
  of row-aligned matrices restricted to the labeled nodes);
* :class:`FeatureStore` — an optionally file-backed store that persists the
  matrices as one packed ``.npy`` file and memory-maps it on access.

Packed layout
-------------
Batch assembly is the hot path of PP-GNN training (Sections 4-5): every batch
must gather the same rows from all ``K (R + 1)`` matrices.  Both containers
therefore expose a *packed* view — a single contiguous
``(num_matrices, num_rows, F)`` array — so one ``np.take(..., axis=1, out=...)``
assembles every hop of a batch in a single kernel instead of ``K (R + 1)``
separate fancy-index gathers (see :mod:`repro.dataloading.loaders`).

A file-backed store is that block on disk: ``packed.npy`` holds the
``(M, N, F)`` array, so a memory-mapped
:class:`~repro.dataloading.loaders.StorageLoader` serves a chunk run with one
contiguous read per matrix slab, and every other reader (worker processes,
the serving engine, incremental updates) maps the same file.  A
``meta.json`` records ``(num_kernels, num_hops)`` so :meth:`FeatureStore.load`
restores the kernel-major structure instead of collapsing multi-kernel stores
into one kernel.  The paper's per-hop files (Section 4.3, one ``.npy`` per
matrix for parallel GDS reads) are not written: every reader here gathers a
batch from all hops at once, which one block serves with one gather.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.utils.logging import get_logger

logger = get_logger("prepropagation.store")

_META_FILENAME = "meta.json"
PACKED_FILENAME = "packed.npy"
#: the one on-disk format; ``meta.json`` names it so older stores are detectable
_LAYOUT = "packed"


def check_layout(layout: str) -> None:
    """Reject every store layout but ``"packed"``.

    ``FeatureStore(layout=)``, ``propagate_blocked(layout=)`` and
    ``PreprocessingPipeline(store_layout=)`` keep the keyword only because
    ``bench/`` still passes ``"packed"``; removed with ``bench/``'s follow-up.
    """
    if layout != _LAYOUT:
        raise ValueError(
            f"store layout {layout!r} is not supported: the per-hop layout was removed "
            f"and every store is {_LAYOUT!r}"
        )


def read_store_meta(root: Path) -> dict:
    """``meta.json`` of the store at ``root``, after checking it is a packed store.

    A directory without ``meta.json`` or whose metadata names another layout
    was written by an older release (per-hop ``hop_XX.npy`` files); it is
    rejected rather than guessed at.
    """
    root = Path(root)
    if not root.is_dir():
        raise FileNotFoundError(f"no feature store at {root}")
    meta_path = root / _META_FILENAME
    meta = json.loads(meta_path.read_text()) if meta_path.exists() else {}
    if meta.get("layout") != _LAYOUT:
        raise ValueError(
            f"{root} is not a packed feature store (layout {meta.get('layout')!r}); "
            "stores from older releases are not readable: re-run preprocessing"
        )
    return meta


def store_meta(
    num_kernels: int,
    num_hops: int,
    num_rows: int,
    feature_dim: int,
    dtype,
) -> dict:
    """The ``meta.json`` schema every store writer must emit.

    Shared by :class:`FeatureStore` and the blocked propagation engine (which
    writes store files directly) so the two can never drift apart on the
    format :meth:`FeatureStore.load` expects.
    """
    return {
        "version": 2,
        "layout": _LAYOUT,
        "num_kernels": int(num_kernels),
        "num_hops": int(num_hops),
        "num_rows": int(num_rows),
        "feature_dim": int(feature_dim),
        "dtype": str(np.dtype(dtype)),
    }


def input_slice(inputs: Optional[range], num_matrices: int) -> slice:
    """The basic slice of a store's ``num_matrices`` matrices that ``inputs`` names.

    ``inputs`` is a model's contiguous range of input positions
    (:attr:`~repro.models.base.PPGNNModel.inputs`); ``None`` means all of
    them.  Returning a slice keeps every selection a view of the packed
    block, never a fancy-index copy of the store.
    """
    if inputs is None:
        return slice(0, num_matrices)
    if (
        not isinstance(inputs, range)
        or inputs.step != 1
        or not 0 <= inputs.start < inputs.stop <= num_matrices
    ):
        raise ValueError(
            f"inputs must be a non-empty contiguous range within [0, {num_matrices}), got {inputs!r}"
        )
    return slice(inputs.start, inputs.stop)


def _take_rows(packed: np.ndarray, row_indices: np.ndarray, out: Optional[np.ndarray]) -> np.ndarray:
    """``np.take`` over axis 1 with explicit bounds checking.

    ``mode="raise"`` (the default) combined with ``out=`` forces NumPy through
    a slow buffered path that defeats the point of the preallocated batch
    buffers, so bounds are validated once up front and the copy itself runs
    with ``mode="clip"`` — the fast zero-allocation kernel.
    """
    row_indices = np.asarray(row_indices, dtype=np.int64)
    if row_indices.size and (
        row_indices.min() < 0 or row_indices.max() >= packed.shape[1]
    ):
        raise IndexError(
            f"row indices out of range [0, {packed.shape[1]}) for packed gather"
        )
    return np.take(packed, row_indices, axis=1, out=out, mode="clip")


@dataclass
class HopFeatures:
    """Row-aligned hop-wise features for a fixed node set.

    ``matrices[k][r]`` is the ``(num_rows, F)`` array of hop-``r`` features
    under kernel ``k``; row ``i`` of every matrix refers to ``node_ids[i]``.
    """

    node_ids: np.ndarray
    matrices: List[List[np.ndarray]]
    _packed: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.node_ids = np.asarray(self.node_ids, dtype=np.int64)
        if not self.matrices or not self.matrices[0]:
            raise ValueError("matrices must contain at least one kernel with one hop")
        rows = self.node_ids.shape[0]
        dims = {m.shape for kernel in self.matrices for m in kernel}
        if len({shape[1] for shape in dims}) != 1:
            raise ValueError("all hop matrices must share the feature dimension")
        for kernel in self.matrices:
            for matrix in kernel:
                if matrix.shape[0] != rows:
                    raise ValueError("hop matrices must align with node_ids")

    @property
    def num_rows(self) -> int:
        return int(self.node_ids.shape[0])

    @property
    def num_kernels(self) -> int:
        return len(self.matrices)

    @property
    def num_hops(self) -> int:
        """Number of propagation hops R (hop 0 is the raw features)."""
        return len(self.matrices[0]) - 1

    @property
    def feature_dim(self) -> int:
        return int(self.matrices[0][0].shape[1])

    def nbytes(self) -> int:
        return int(sum(m.nbytes for kernel in self.matrices for m in kernel))

    def hop_list(self) -> List[np.ndarray]:
        """Flatten to a list ordered kernel-major then hop (K*(R+1) items)."""
        return [m for kernel in self.matrices for m in kernel]

    def packed(self) -> np.ndarray:
        """Return (building lazily) the ``(num_matrices, num_rows, F)`` block.

        The packed array is bit-identical to ``np.stack(self.hop_list())`` and
        cached after the first call; it is what the optimized loaders gather
        from with a single ``np.take`` per batch.  After packing, ``matrices``
        is rebound to views into the block so the store is not held in memory
        twice (the original arrays are released once external references
        drop).
        """
        if self._packed is None:
            hops = self.hop_list()
            dtypes = {m.dtype for m in hops}
            if len(dtypes) != 1:
                raise ValueError(f"packed layout requires a uniform dtype, got {sorted(map(str, dtypes))}")
            self._packed = np.stack(hops, axis=0)
            per_kernel = len(self.matrices[0])
            self.matrices = [
                [self._packed[k * per_kernel + r] for r in range(per_kernel)]
                for k in range(self.num_kernels)
            ]
        return self._packed

    def gather(self, row_indices: np.ndarray, inputs: Optional[range] = None) -> List[np.ndarray]:
        """Gather the given rows from every hop matrix ``inputs`` names (default: all)."""
        row_indices = np.asarray(row_indices, dtype=np.int64)
        hops = self.hop_list()
        return [m[row_indices] for m in hops[input_slice(inputs, len(hops))]]

    def gather_packed(
        self,
        row_indices: np.ndarray,
        out: Optional[np.ndarray] = None,
        inputs: Optional[range] = None,
    ) -> np.ndarray:
        """Gather rows from the selected matrices with one fused ``np.take`` kernel.

        Returns the ``(len(inputs), len(row_indices), F)`` block (all matrices
        by default); ``out`` enables zero-allocation assembly into a
        preallocated batch buffer.
        """
        packed = self.packed()
        return _take_rows(packed[input_slice(inputs, packed.shape[0])], row_indices, out)

    def restrict(self, row_indices: np.ndarray) -> "HopFeatures":
        """Return a new HopFeatures containing only ``row_indices`` rows."""
        row_indices = np.asarray(row_indices, dtype=np.int64)
        return HopFeatures(
            node_ids=self.node_ids[row_indices],
            matrices=[[m[row_indices] for m in kernel] for kernel in self.matrices],
        )

    @staticmethod
    def from_full_matrices(
        full_matrices: Sequence[Sequence[np.ndarray]], node_ids: np.ndarray
    ) -> "HopFeatures":
        """Slice full-graph propagation output down to the labeled ``node_ids``."""
        node_ids = np.asarray(node_ids, dtype=np.int64)
        return HopFeatures(
            node_ids=node_ids,
            matrices=[[np.asarray(m)[node_ids] for m in kernel] for kernel in full_matrices],
        )

    @staticmethod
    def from_packed(
        packed: np.ndarray, node_ids: np.ndarray, num_kernels: int
    ) -> "HopFeatures":
        """Rebuild the kernel-major structure from a ``(M, N, F)`` packed block."""
        packed = np.asarray(packed)
        if packed.ndim != 3:
            raise ValueError(f"packed block must be 3-D, got shape {packed.shape}")
        num_matrices = packed.shape[0]
        if num_kernels <= 0 or num_matrices % num_kernels:
            raise ValueError(
                f"{num_matrices} matrices cannot be split into {num_kernels} kernels"
            )
        per_kernel = num_matrices // num_kernels
        matrices = [
            [packed[k * per_kernel + r] for r in range(per_kernel)]
            for k in range(num_kernels)
        ]
        features = HopFeatures(node_ids=node_ids, matrices=matrices)
        if isinstance(packed, np.memmap):
            # keep memmap-backed blocks out of the cache: packed() should hand
            # the loaders an in-memory array for the RAM-resident fast path
            return features
        features._packed = packed
        return features


class FeatureStore:
    """Hop-major feature storage, in memory or backed by one packed ``.npy`` file.

    File-backed mode writes the ``(M, N, F)`` block as ``packed.npy`` and
    memory-maps it on access, so only the touched rows are read from disk and
    storage reads of a chunk run need a single request per matrix slab — the
    file the :class:`~repro.dataloading.loaders.StorageLoader` maps.

    ``layout`` accepts only ``"packed"`` (see :func:`check_layout`).
    """

    def __init__(
        self,
        hop_features: HopFeatures,
        root: Optional[Path] = None,
        layout: str = _LAYOUT,
    ) -> None:
        check_layout(layout)
        self._features = hop_features
        self.root = Path(root) if root is not None else None
        if self.root is not None:
            self._persist()

    # ------------------------------------------------------------------ #
    @property
    def node_ids(self) -> np.ndarray:
        return self._features.node_ids

    @property
    def num_rows(self) -> int:
        return self._features.num_rows

    @property
    def num_matrices(self) -> int:
        return len(self._features.hop_list())

    @property
    def num_kernels(self) -> int:
        return self._features.num_kernels

    @property
    def num_hops(self) -> int:
        return self._features.num_hops

    @property
    def feature_dim(self) -> int:
        return self._features.feature_dim

    @property
    def dtype(self) -> np.dtype:
        return self._features.matrices[0][0].dtype

    @property
    def is_file_backed(self) -> bool:
        return self.root is not None

    @property
    def packed_path(self) -> Path:
        """The store's ``packed.npy`` (file-backed stores only)."""
        if self.root is None:
            raise RuntimeError("an in-memory store has no packed file")
        return self.root / PACKED_FILENAME

    def nbytes(self) -> int:
        return self._features.nbytes()

    # ------------------------------------------------------------------ #
    def _persist(self) -> None:
        assert self.root is not None
        self.root.mkdir(parents=True, exist_ok=True)
        np.save(self.packed_path, self._features.packed())
        np.save(self.root / "node_ids.npy", self._features.node_ids)
        meta = store_meta(
            num_kernels=self._features.num_kernels,
            num_hops=self._features.num_hops,
            num_rows=self._features.num_rows,
            feature_dim=self._features.feature_dim,
            dtype=self.dtype,
        )
        (self.root / _META_FILENAME).write_text(json.dumps(meta, indent=2))
        logger.info("persisted packed store to %s", self.root)

    def matrices(self) -> List[np.ndarray]:
        """Return the flat list of hop matrices (kernel-major, then hop)."""
        return self._features.hop_list()

    def packed_matrix(self, memmap: bool = False) -> np.ndarray:
        """Return the contiguous ``(num_matrices, num_rows, F)`` block.

        ``memmap=True`` requires a file-backed store and returns the
        read-only mapped block, modelling storage-resident data.
        """
        if memmap:
            return np.load(self.packed_path, mmap_mode="r")
        return self._features.packed()

    def gather(
        self, row_indices: np.ndarray, memmap: bool = False, inputs: Optional[range] = None
    ) -> List[np.ndarray]:
        """Fetch the given rows from every hop matrix ``inputs`` names (default: all)."""
        if memmap:
            return list(self.gather_packed(row_indices, memmap=True, inputs=inputs))
        return self._features.gather(row_indices, inputs=inputs)

    def gather_packed(
        self,
        row_indices: np.ndarray,
        out: Optional[np.ndarray] = None,
        memmap: bool = False,
        inputs: Optional[range] = None,
    ) -> np.ndarray:
        """Single-kernel gather of ``row_indices`` across the selected hop matrices.

        Returns (or fills ``out`` with) the ``(len(inputs), B, F)`` batch
        block, all ``num_matrices`` by default; the fused fast path of the
        optimized loaders.  ``inputs`` (a model's input range) selects a
        contiguous view of the block, so unselected matrices are never read.
        """
        if memmap:
            packed = self.packed_matrix(memmap=True)
            return _take_rows(packed[input_slice(inputs, packed.shape[0])], row_indices, out)
        return self._features.gather_packed(row_indices, out=out, inputs=inputs)

    def iter_chunks(self, chunk_size: int) -> Iterator[tuple[np.ndarray, List[np.ndarray]]]:
        """Iterate (row_indices, hop matrices) over contiguous row chunks."""
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        for start in range(0, self.num_rows, chunk_size):
            rows = np.arange(start, min(start + chunk_size, self.num_rows))
            yield rows, self.gather(rows)

    @staticmethod
    def load(root: Path) -> "FeatureStore":
        """Re-open a store persisted by a previous run.

        Restores the kernel-major ``(num_kernels, num_hops)`` structure that
        ``meta.json`` records.  The block is mapped rather than read:
        storage-resident stores may exceed host RAM, and in-memory consumers
        materialize it lazily through :meth:`packed_matrix`.  Stores from
        older releases raise ``ValueError`` (see :func:`read_store_meta`).
        """
        root = Path(root)
        meta = read_store_meta(root)
        node_ids = np.load(root / "node_ids.npy")
        packed = np.load(root / PACKED_FILENAME, mmap_mode="r")
        store = FeatureStore.__new__(FeatureStore)
        store._features = HopFeatures.from_packed(
            packed, node_ids, num_kernels=int(meta["num_kernels"])
        )
        store.root = root
        return store
