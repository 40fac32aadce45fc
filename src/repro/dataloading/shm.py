"""Shared-memory plumbing for the loader's worker processes.

Loader worker processes (:mod:`repro.dataloading.workers`) must read the
packed ``(M, N, F)`` feature block and write assembled batches without ever
pickling a feature array.  Only a process boundary needs this: readers in the
process that holds the :class:`~repro.prepropagation.store.FeatureStore`
(the serving engine, a loader's in-process fallback) gather from the store
itself.  Two pieces make it possible:

* :class:`SharedPackedStore` — exposes a store's packed block to the
  workers.  In-memory stores are copied once into a
  ``multiprocessing.shared_memory`` segment that workers attach zero-copy;
  file-backed stores are *not* copied — workers re-open the store directory
  with :func:`~repro.prepropagation.store.map_store`, the one reader of a
  published store, so storage-resident data stays storage-resident and a
  torn store is rejected in the worker too.  Either way a worker reads one
  ``(M, N, F)`` block and assembles a batch with the store's own bounds-checked
  gather (:func:`~repro.prepropagation.store.take_rows`).
* :class:`SlotRing` — a ring of ``(M, batch_size, F)`` batch slots in one
  shared segment, ``M`` counting only the matrices the model reads.  Workers
  assemble batches straight into a slot and hand the *slot index* back over a
  queue; the consumer reads the slot as a NumPy view.

Both ends of the pipe use :class:`StoreHandle` / :class:`SlotHandle` — small
picklable descriptors holding segment names, store roots, shapes and dtypes — as
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

from repro.prepropagation.store import FeatureStore, input_slice, map_store, take_rows
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


def _new_segment_name(kind: str) -> str:
    """Segment name ``ppgnn-<kind>-<pid>-<hex>``; ``kind`` is ``"store"`` or ``"slots"``."""
    return f"{SHM_PREFIX}-{kind}-{os.getpid()}-{secrets.token_hex(4)}"


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

    Exactly one of the two is set: ``shm_name``, the shared-memory segment an
    in-memory store was copied into, or ``root``, the directory of a
    file-backed store, which the worker maps with
    :func:`~repro.prepropagation.store.map_store`.
    """

    shape: Tuple[int, int, int]
    dtype: str
    shm_name: Optional[str] = None
    root: Optional[str] = None


@dataclass(frozen=True)
class SlotHandle:
    """Picklable recipe for attaching the shared batch-slot ring."""

    shm_name: str
    shape: Tuple[int, int, int, int]  # (num_slots, M, batch_size, F)
    dtype: str


# --------------------------------------------------------------------------- #
class SharedPackedStore:
    """Parent-side owner of the loader workers' view of a feature store.

    In-memory stores pay a one-time copy of the packed block into a
    ``ppgnn-store-*`` shared segment (setup cost, never charged to epoch
    time); file-backed stores cost nothing here because workers re-open the
    store directory themselves.  Use as a context manager or call
    :meth:`close`; a finalizer unlinks the segment at interpreter exit if
    neither happened.
    """

    def __init__(self, store: FeatureStore) -> None:
        self._segment: Optional[shared_memory.SharedMemory] = None
        shape = (store.num_matrices, store.num_rows, store.feature_dim)
        dtype = np.dtype(store.dtype)
        if store.is_file_backed:
            self.handle = StoreHandle(shape=shape, dtype=dtype.str, root=str(store.root))
        else:
            packed = store.packed_matrix()
            self._segment = shared_memory.SharedMemory(
                create=True, size=packed.nbytes, name=_new_segment_name("store")
            )
            shared = np.ndarray(shape, dtype=dtype, buffer=self._segment.buf)
            np.copyto(shared, packed)
            self.handle = StoreHandle(shape=shape, dtype=dtype.str, shm_name=self._segment.name)
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
    matrices (or the contiguous ``inputs`` range of them) with the store's
    own :func:`~repro.prepropagation.store.take_rows` — the gather every
    loader strategy assembles with, so worker-built batches are bit-identical
    to the single-process paths.
    """

    def __init__(self, handle: StoreHandle) -> None:
        self._attachment: Optional[Attachment] = None
        if handle.shm_name is not None:
            self._attachment = Attachment(handle.shm_name, handle.shape, handle.dtype)
            self._packed: Optional[np.ndarray] = self._attachment.array
        else:
            self._packed, _, _ = map_store(Path(handle.root))

    def gather_into(self, rows: np.ndarray, out: np.ndarray, inputs: Optional[range] = None) -> None:
        take_rows(self._packed[input_slice(inputs, self._packed.shape[0])], rows, out)

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
