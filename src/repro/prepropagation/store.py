"""Feature stores for pre-propagated (hop-wise) node features.

After preprocessing, PP-GNN training only needs the rows of the labeled nodes
(Section 6.4) but across ``K (R + 1)`` matrices — the input-expansion problem.
The store abstracts where those matrices live:

* :class:`HopFeatures` — the logical container: the labeled node ids and one
  packed ``(num_matrices, num_rows, F)`` block, kernel-major then hop;
* :class:`FeatureStore` — an optionally file-backed store that persists the
  block as one ``.npy`` file and memory-maps it on access.

Packed layout
-------------
Batch assembly is the hot path of PP-GNN training (Sections 4-5): every batch
must gather the same rows from all ``K (R + 1)`` matrices.  The matrices
therefore live in a single contiguous ``(num_matrices, num_rows, F)`` array,
so one ``np.take(..., axis=1, out=...)`` assembles every hop of a batch in a
single kernel instead of ``K (R + 1)`` separate fancy-index gathers (see
:mod:`repro.dataloading.loaders`).

A file-backed store is that block on disk: ``packed.npy`` holds the
``(M, N, F)`` array, so a memory-mapped
:class:`~repro.dataloading.loaders.StorageLoader` serves a chunk run with one
contiguous read per matrix slab, and every other reader of a published
store (loader worker processes, incremental updates) maps the same file
through :func:`map_store`, which rejects a torn one.  A
``meta.json`` records ``(num_kernels, num_hops)`` so :meth:`FeatureStore.load`
restores the kernel-major structure instead of collapsing multi-kernel stores
into one kernel.  Every store directory is written by :func:`write_store`:
staged beside ``root`` and swapped into place, so a crash never leaves a torn
store behind.  The paper's per-hop files (Section 4.3, one ``.npy`` per
matrix for parallel GDS reads) are not written: every reader here gathers a
batch from all hops at once, which one block serves with one gather.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.resilience.durable import fresh_staging, fsync_file, install_dir
from repro.utils.logging import get_logger

logger = get_logger("prepropagation.store")

_META_FILENAME = "meta.json"
_NODE_IDS_FILENAME = "node_ids.npy"
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


def store_meta(packed: np.ndarray, num_kernels: int) -> dict:
    """The ``meta.json`` of a store holding ``packed`` (the schema :func:`map_store` checks)."""
    num_matrices, num_rows, feature_dim = packed.shape
    return {
        "version": 2,
        "layout": _LAYOUT,
        "num_kernels": int(num_kernels),
        "num_hops": num_matrices // num_kernels - 1,
        "num_rows": num_rows,
        "feature_dim": feature_dim,
        "dtype": str(packed.dtype),
    }


def map_store(root: Path, mmap_mode: str = "r") -> Tuple[np.memmap, np.ndarray, dict]:
    """Map the store at ``root``: ``(packed, node_ids, meta)``.

    Two kinds of directory are rejected with ``ValueError`` rather than
    guessed at: one without ``meta.json`` or whose metadata names another
    layout (per-hop ``hop_XX.npy`` files from an older release), and a torn
    one, whose block and node ids are not what ``meta.json`` describes — a
    ``(K (R + 1), num_rows, feature_dim)`` block of ``dtype`` and
    ``num_rows`` ids.
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
    node_ids = np.load(root / _NODE_IDS_FILENAME)
    packed = np.load(root / PACKED_FILENAME, mmap_mode=mmap_mode)
    num_rows = meta["num_rows"]
    expected = (meta["num_kernels"] * (meta["num_hops"] + 1), num_rows, meta["feature_dim"])
    if (
        packed.shape != expected
        or packed.dtype != np.dtype(meta["dtype"])
        or node_ids.shape != (num_rows,)
    ):
        raise ValueError(
            f"{root} is a torn feature store: meta.json describes a {expected} "
            f"{meta['dtype']} block over {num_rows} rows, but packed.npy holds "
            f"{packed.shape} {packed.dtype} and node_ids.npy {node_ids.shape[0]} ids; "
            "re-run preprocessing"
        )
    return packed, node_ids, meta


def write_store(
    root: Path,
    packed: np.ndarray,
    node_ids: np.ndarray,
    num_kernels: int,
    staging: Optional[Path] = None,
) -> None:
    """Publish ``packed`` and ``node_ids`` as the store at ``root``: the one store writer.

    ``packed.npy``, ``node_ids.npy`` and ``meta.json`` are written into a
    staging directory and fsync'd, and the staging is installed at ``root``
    by :func:`~repro.resilience.durable.install_dir`, so a crash leaves any
    previous store at ``root`` whole and, once this returns, keeps the new
    one.  A ``staging`` passed
    in already holds the flushed ``packed.npy`` (the blocked engine streams
    into it) and is the caller's to clean up on failure; otherwise a fresh
    one is made and removed if the write fails.
    """
    root = Path(root)
    owned = staging is None
    if owned:
        staging = fresh_staging(root)
    try:
        if owned:
            np.save(staging / PACKED_FILENAME, packed)
            fsync_file(staging / PACKED_FILENAME)
        np.save(staging / _NODE_IDS_FILENAME, node_ids)
        meta = store_meta(packed, num_kernels)
        (staging / _META_FILENAME).write_text(json.dumps(meta, indent=2))
        for name in (_NODE_IDS_FILENAME, _META_FILENAME):
            fsync_file(staging / name)
        install_dir(staging, root)
    except BaseException:
        if owned:
            shutil.rmtree(staging, ignore_errors=True)
        raise
    logger.info("persisted packed store to %s", root)


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


def take_rows(packed: np.ndarray, row_indices: np.ndarray, out: Optional[np.ndarray]) -> np.ndarray:
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
    """Row-aligned hop-wise features for a fixed node set, as one packed block.

    ``packed`` is the ``(num_matrices, num_rows, F)`` block: matrix
    ``k * (num_hops + 1) + r`` holds the hop-``r`` features under kernel
    ``k``, and row ``i`` of every matrix refers to ``node_ids[i]``.
    """

    node_ids: np.ndarray
    packed: np.ndarray
    num_kernels: int = 1

    def __post_init__(self) -> None:
        self.node_ids = np.asarray(self.node_ids, dtype=np.int64)
        if getattr(self.packed, "ndim", None) != 3:
            raise ValueError(f"packed must be a 3-D (matrices, rows, F) array, got {np.shape(self.packed)}")
        num_matrices = self.packed.shape[0]
        if self.num_kernels <= 0 or num_matrices == 0 or num_matrices % self.num_kernels:
            raise ValueError(
                f"{num_matrices} matrices cannot be split into {self.num_kernels} kernels"
            )
        if self.packed.shape[1] != self.node_ids.shape[0]:
            raise ValueError("hop matrices must align with node_ids")

    @property
    def num_rows(self) -> int:
        return int(self.node_ids.shape[0])

    @property
    def num_matrices(self) -> int:
        return int(self.packed.shape[0])

    @property
    def num_hops(self) -> int:
        """Number of propagation hops R (hop 0 is the raw features)."""
        return self.num_matrices // self.num_kernels - 1

    @property
    def feature_dim(self) -> int:
        return int(self.packed.shape[2])

    def nbytes(self) -> int:
        return int(self.packed.nbytes)

    @staticmethod
    def from_full_matrices(
        full_matrices: Sequence[Sequence[np.ndarray]], node_ids: np.ndarray
    ) -> "HopFeatures":
        """Slice full-graph propagation output down to the labeled ``node_ids``.

        ``full_matrices[k][r]`` is an ``(N, F)`` hop matrix (the output of
        :func:`~repro.prepropagation.propagator.propagate_features`); its
        ``node_ids`` rows are gathered straight into one preallocated block.
        """
        node_ids = np.asarray(node_ids, dtype=np.int64)
        hops = [np.asarray(m) for kernel in full_matrices for m in kernel]
        if not hops or len({len(kernel) for kernel in full_matrices}) != 1:
            raise ValueError("full_matrices must hold the same number (>= 1) of hops per kernel")
        dtypes = {m.dtype for m in hops}
        if len(dtypes) != 1:
            raise ValueError(f"packed layout requires a uniform dtype, got {sorted(map(str, dtypes))}")
        packed = np.empty((len(hops), node_ids.size, hops[0].shape[1]), dtype=hops[0].dtype)
        for index, hop in enumerate(hops):
            packed[index] = hop[node_ids]
        return HopFeatures(node_ids, packed, num_kernels=len(full_matrices))


class FeatureStore:
    """Hop-major feature storage, in memory or backed by one packed ``.npy`` file.

    File-backed mode writes the ``(M, N, F)`` block as ``packed.npy`` and
    memory-maps it on access, so only the touched rows are read from disk and
    storage reads of a chunk run need a single request per matrix slab — the
    file the :class:`~repro.dataloading.loaders.StorageLoader` maps.  A store
    opened with :meth:`load` reads through its file mapping: its block is
    never copied into RAM.

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
            write_store(
                self.root, hop_features.packed, hop_features.node_ids, hop_features.num_kernels
            )

    # ------------------------------------------------------------------ #
    @property
    def node_ids(self) -> np.ndarray:
        return self._features.node_ids

    @property
    def num_rows(self) -> int:
        return self._features.num_rows

    @property
    def num_matrices(self) -> int:
        return self._features.num_matrices

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
        return self._features.packed.dtype

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
    def matrices(self) -> List[np.ndarray]:
        """The hop matrices (kernel-major, then hop) as views of the packed block."""
        return list(self.packed_matrix())

    def packed_matrix(self, memmap: bool = False) -> np.ndarray:
        """Return the contiguous ``(num_matrices, num_rows, F)`` block.

        ``memmap=True`` requires a file-backed store and returns the
        read-only mapped block, modelling storage-resident data.
        """
        if memmap:
            return map_store(self.packed_path.parent)[0]
        return self._features.packed

    def gather(
        self, row_indices: np.ndarray, memmap: bool = False, inputs: Optional[range] = None
    ) -> List[np.ndarray]:
        """Fetch the given rows from every hop matrix ``inputs`` names (default: all).

        In memory this is one fancy-index gather per matrix — the unfused
        baseline the packed path is measured against.
        """
        if memmap:
            return list(self.gather_packed(row_indices, memmap=True, inputs=inputs))
        row_indices = np.asarray(row_indices, dtype=np.int64)
        packed = self.packed_matrix()
        return [matrix[row_indices] for matrix in packed[input_slice(inputs, packed.shape[0])]]

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
        packed = self.packed_matrix(memmap=memmap)
        return take_rows(packed[input_slice(inputs, packed.shape[0])], row_indices, out)

    @staticmethod
    def load(root: Path) -> "FeatureStore":
        """Re-open a store persisted by a previous run.

        Restores the kernel-major ``(num_kernels, num_hops)`` structure that
        ``meta.json`` records.  The block is mapped rather than read:
        storage-resident stores may exceed host RAM, and every reader gathers
        through the page cache.  Stores from older releases and torn stores
        raise ``ValueError`` (see :func:`map_store`).
        """
        root = Path(root)
        packed, node_ids, meta = map_store(root)
        store = FeatureStore.__new__(FeatureStore)
        # a plain ndarray view of the mapping, so slices and gathers are not memmaps
        store._features = HopFeatures(
            node_ids, np.asarray(packed), num_kernels=int(meta["num_kernels"])
        )
        store.root = root
        return store
