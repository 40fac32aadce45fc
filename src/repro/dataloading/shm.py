"""Shared-memory plumbing for multi-process batch assembly.

Worker processes must read the packed ``(M, N, F)`` feature block and write
assembled batches without ever pickling a feature array.  Two pieces make
that possible:

* :class:`SharedPackedStore` — exposes a :class:`~repro.prepropagation.store.
  FeatureStore`'s packed block to other processes.  In-memory stores are
  copied once into a ``multiprocessing.shared_memory`` segment that workers
  attach zero-copy; file-backed stores are *not* copied — workers re-open the
  store's ``packed.npy`` with ``np.load(..., mmap_mode="r")``, so
  storage-resident data stays storage-resident.  Either way a worker reads one
  ``(M, N, F)`` block and assembles a batch with one gather.
* :class:`SlotRing` — a ring of ``(M, batch_size, F)`` batch slots in one
  shared segment.  Workers assemble batches straight into a slot and hand the
  *slot index* back over a queue; the consumer reads the slot as a NumPy view.

Both ends of the pipe use :class:`StoreHandle` / :class:`SlotHandle` — small
picklable descriptors holding segment names, paths, shapes and dtypes — as
the only thing that crosses the process boundary at setup time.

Lifecycle
---------
Segments live in ``/dev/shm`` and outlive crashed processes, so unlinking is
owned by the creating (parent) process and triple-guarded: explicitly via
``close()`` / context-manager exit, and as a last resort by a
``weakref.finalize`` hook that also fires from ``atexit``.  Workers only ever
*attach*; attachment deliberately unregisters the segment from their
``resource_tracker`` so a worker exiting (or being SIGKILLed) neither unlinks
a segment the parent still uses nor spews leak warnings (CPython's tracker
registers on attach as well as create; fixed upstream only in 3.13+ via
``track=False``).

All segments share the :data:`SHM_PREFIX` name prefix so the test suite can
assert that ``/dev/shm`` holds no leftovers.
"""

from __future__ import annotations

import mmap
import os
import secrets
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

import numpy as np
from multiprocessing import resource_tracker, shared_memory

from repro.prepropagation.store import FeatureStore
from repro.utils.logging import get_logger

logger = get_logger("dataloading.shm")

__all__ = [
    "SHM_PREFIX",
    "StoreHandle",
    "SlotHandle",
    "SharedPackedStore",
    "SlotRing",
    "AttachedStore",
    "Attachment",
    "attach_store",
    "attach_slots",
]

#: every segment this module creates is named ``ppgnn-...`` so leak checks
#: (and humans inspecting ``/dev/shm``) can attribute them
SHM_PREFIX = "ppgnn"


def _new_segment_name(kind: str, version: Optional[int] = None) -> str:
    """Segment name ``ppgnn-<kind>[-v<version>]-<pid>-<hex>``.

    ``version`` tags segments created for a specific store version during an
    incremental update swap, so the janitor can attribute (and sweep) segments
    a mid-swap SIGKILL orphaned.
    """
    tag = f"{kind}-v{int(version)}" if version is not None else kind
    return f"{SHM_PREFIX}-{tag}-{os.getpid()}-{secrets.token_hex(4)}"


#: POSIX shared memory surfaces as plain files here on Linux
_SHM_DIR = Path("/dev/shm")


class Attachment:
    """Worker-side zero-copy view of a segment, without unlink responsibility.

    On Linux the segment is re-opened as a plain ``mmap`` of its ``/dev/shm``
    file, sidestepping ``SharedMemory`` entirely: CPython < 3.13 registers a
    segment with the ``resource_tracker`` even on attach, which either
    destroys it when a worker exits (spawn: per-worker tracker unlinks it) or
    floods stderr with bogus leak/KeyError noise (fork: double bookkeeping in
    the shared tracker).  Elsewhere it falls back to ``SharedMemory`` attach
    plus a best-effort tracker unregister.

    ``array`` is the mapped ndarray; call :meth:`close` when done (reference
    counts permitting — a ``BufferError`` from live views at process exit is
    swallowed).
    """

    def __init__(self, name: str, shape: Tuple[int, ...], dtype) -> None:
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(shape)) * dtype.itemsize
        self._mmap: Optional[mmap.mmap] = None
        self._segment: Optional[shared_memory.SharedMemory] = None
        if _SHM_DIR.is_dir():
            fd = os.open(_SHM_DIR / name, os.O_RDWR)
            try:
                self._mmap = mmap.mmap(fd, nbytes)
            finally:
                os.close(fd)
            self.array = np.frombuffer(self._mmap, dtype=dtype).reshape(shape)
        else:  # pragma: no cover - non-Linux fallback
            self._segment = shared_memory.SharedMemory(name=name)
            try:
                resource_tracker.unregister(self._segment._name, "shared_memory")
            except Exception:
                pass
            self.array = np.ndarray(shape, dtype=dtype, buffer=self._segment.buf)

    def close(self) -> None:
        self.array = None
        if self._mmap is not None:
            try:
                self._mmap.close()
            except BufferError:  # live views remain; the mapping dies with the process
                pass
            self._mmap = None
        if self._segment is not None:  # pragma: no cover - non-Linux fallback
            try:
                self._segment.close()
            except Exception:
                pass
            self._segment = None


def _unlink_quietly(segment: Optional[shared_memory.SharedMemory]) -> None:
    if segment is None:
        return
    try:
        segment.close()
    except Exception:  # pragma: no cover
        pass
    # fault site for the janitor tests: a "leak" here skips the unlink, which
    # is exactly what a SIGKILLed owner does (finalizers never ran)
    from repro.resilience.faultinject import fault_point

    leaked = fault_point("shm.unlink", name=segment.name)
    if leaked is not None and leaked.kind == "leak":
        return
    try:
        segment.unlink()
    except FileNotFoundError:
        pass
    except Exception:  # pragma: no cover
        pass


# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class StoreHandle:
    """Picklable recipe for re-opening the packed feature block in a worker.

    ``kind`` selects the attach path:

    * ``"shm"`` — attach the named shared-memory segment (in-memory stores);
    * ``"memmap_packed"`` — memory-map the store's ``packed.npy`` at ``path``.
    """

    kind: str
    shape: Tuple[int, int, int]
    dtype: str
    shm_name: Optional[str] = None
    path: Optional[str] = None


@dataclass(frozen=True)
class SlotHandle:
    """Picklable recipe for attaching the shared batch-slot ring."""

    shm_name: str
    shape: Tuple[int, int, int, int]  # (num_slots, M, batch_size, F)
    dtype: str


# --------------------------------------------------------------------------- #
class SharedPackedStore:
    """Parent-side owner of the cross-process view of a feature store.

    In-memory stores pay a one-time copy of the packed block into shared
    memory (setup cost, never charged to epoch time); file-backed stores cost
    nothing here because workers re-open the files themselves.  Use as a
    context manager or call :meth:`close`; a finalizer unlinks the segment at
    interpreter exit if neither happened.

    ``kind`` tags the segment name (``ppgnn-<kind>-<pid>-<hex>``) so leak
    sweeps and humans can attribute it: loaders use the default ``"store"``,
    the serving engine passes ``"serve"``.
    """

    def __init__(
        self, store: FeatureStore, kind: str = "store", version: Optional[int] = None
    ) -> None:
        self._segment: Optional[shared_memory.SharedMemory] = None
        shape = (store.num_matrices, store.num_rows, store.feature_dim)
        dtype = np.dtype(store.dtype)
        if store.is_file_backed:
            self.handle = StoreHandle(
                kind="memmap_packed", shape=shape, dtype=dtype.str, path=str(store.packed_path)
            )
        else:
            packed = store.packed_matrix()
            self._segment = shared_memory.SharedMemory(
                create=True, size=packed.nbytes, name=_new_segment_name(kind, version)
            )
            shared = np.ndarray(shape, dtype=dtype, buffer=self._segment.buf)
            np.copyto(shared, packed)
            self.handle = StoreHandle(
                kind="shm", shape=shape, dtype=dtype.str, shm_name=self._segment.name
            )
        self._finalizer = weakref.finalize(self, _unlink_quietly, self._segment)

    def close(self) -> None:
        """Unlink the backing segment (idempotent)."""
        if self._finalizer.alive:
            self._finalizer()

    def __enter__(self) -> "SharedPackedStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SlotRing:
    """Parent-side owner of the shared ring of batch-assembly slots."""

    def __init__(self, num_slots: int, num_matrices: int, batch_size: int, feature_dim: int, dtype) -> None:
        if num_slots <= 0:
            raise ValueError("num_slots must be positive")
        dtype = np.dtype(dtype)
        shape = (num_slots, num_matrices, batch_size, feature_dim)
        nbytes = int(np.prod(shape)) * dtype.itemsize
        self._segment = shared_memory.SharedMemory(
            create=True, size=nbytes, name=_new_segment_name("slots")
        )
        #: parent-side view of the slot array (consumer reads batches from it)
        self.slots = np.ndarray(shape, dtype=dtype, buffer=self._segment.buf)
        self.handle = SlotHandle(shm_name=self._segment.name, shape=shape, dtype=dtype.str)
        self._finalizer = weakref.finalize(self, _unlink_quietly, self._segment)

    @property
    def num_slots(self) -> int:
        return self.slots.shape[0]

    def close(self) -> None:
        self.slots = None
        if self._finalizer.alive:
            self._finalizer()

    def __enter__(self) -> "SlotRing":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# --------------------------------------------------------------------------- #
class AttachedStore:
    """Worker-side read view of the packed block, whatever its transport.

    ``gather_into(rows, out)`` fills ``out[m, i] = block[m, rows[i]]`` for all
    matrices with one ``np.take`` — byte-for-byte the values every loader
    strategy assembles, so worker-built batches are bit-identical to the
    single-process paths.
    """

    def __init__(self, handle: StoreHandle) -> None:
        self._attachment: Optional[Attachment] = None
        self.num_rows = handle.shape[1]
        if handle.kind == "shm":
            self._attachment = Attachment(handle.shm_name, handle.shape, handle.dtype)
            self._packed: Optional[np.ndarray] = self._attachment.array
        elif handle.kind == "memmap_packed":
            self._packed = np.load(handle.path, mmap_mode="r")
        else:
            raise ValueError(f"unknown store handle kind {handle.kind!r}")

    def gather_into(self, rows: np.ndarray, out: np.ndarray) -> None:
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size and (rows.min() < 0 or rows.max() >= self.num_rows):
            raise IndexError(f"row indices out of range [0, {self.num_rows})")
        np.take(self._packed, rows, axis=1, out=out, mode="clip")

    def close(self) -> None:
        self._packed = None
        if self._attachment is not None:
            self._attachment.close()
            self._attachment = None


def attach_store(handle: StoreHandle) -> AttachedStore:
    """Worker-side entry point: open the packed block described by ``handle``."""
    return AttachedStore(handle)


def attach_slots(handle: SlotHandle) -> Attachment:
    """Worker-side attach of the slot ring; caller must ``close()`` when done."""
    return Attachment(handle.shm_name, handle.shape, handle.dtype)
