"""Multi-process epoch sharding: batch assembly beyond one GIL.

:class:`~repro.dataloading.prefetch.PrefetchLoader` moves assembly off the
training loop, but its single producer thread still shares the GIL with model
compute.  :class:`MultiProcessLoader` removes that ceiling: each epoch's
:class:`~repro.dataloading.batching.BatchSchedule` is sharded **round-robin**
across ``num_workers`` OS processes (worker ``w`` assembles batches
``w, w + K, w + 2K, ...``), which gather rows from the shared packed block
(see :mod:`repro.dataloading.shm`) straight into a ring of shared-memory batch
slots.  Only *slot indices* travel back, each worker over its own result
queue — feature arrays are never pickled in either direction, and no queue's
write lock is shared between workers, so a worker killed mid-send cannot
wedge the others.

Guarantees:

* **Deterministic order, bit-identical batches.** The parent draws the epoch
  schedule from the wrapped loader's RNG (exactly as direct iteration would)
  and yields batches strictly in schedule order, re-sequencing worker
  completions by batch index; each batch's values are byte-for-byte what the
  wrapped loader assembles.
* **Bounded memory, zero-copy yields.** Yielded ``hop_features`` are views
  into the slot ring.  Like a buffer-reusing loader's ring, a yielded batch
  stays valid until ``keep - 1`` further batches have been yielded; the
  loader advertises ``reuse_buffers=True`` / ``num_buffers == keep`` so
  :class:`~repro.dataloading.prefetch.PrefetchLoader` composes on top with
  its usual ring-size check.
* **Robust teardown.** ``close()`` (or context-manager exit, or the
  ``weakref.finalize``/atexit fallback) stops workers and unlinks every
  shared segment.
* **Fail-fast or self-heal, never hang.** Without a
  :class:`~repro.resilience.supervisor.SupervisorPolicy` a worker that dies
  mid-epoch (crash, OOM-kill, SIGKILL) surfaces as a ``RuntimeError``
  carrying its exit code and last-heartbeat age.  With a policy, crashed
  *and stalled* workers (heartbeat-dead past the policy's deadlines) are
  SIGKILLed and respawned with exponential backoff; the replacement is
  handed the dead worker's unfinished shard on fresh task, free and result
  queues, so nothing the dead incarnation sent is ever read.  Once
  the respawn budget is exhausted the loader degrades gracefully: the
  parent assembles the failed worker's batches in-process from the wrapped
  loader's store — the epoch still completes, bit-identically, just slower.
  Everything the supervisor did is tallied in
  :class:`~repro.resilience.supervisor.ResilienceCounters` (``.counters``).

Deadlock-freedom sketch: worker ``w`` owns ``keep + 1`` private slots, so the
consumer's valid-window can pin at most ``keep`` of them while one remains
for the batch being assembled; because each worker completes its shard in
order and the consumer yields in global order, the batch the consumer waits
for is always the owning worker's next completion — the next message on that
worker's result queue, which is the only queue the consumer reads while it
waits.  Recovery preserves the invariant: a replacement inherits exactly its
predecessor's slot range (minus slots the consumer still pins, which flow
back through the usual release path), its predecessor's unread results are
discarded with its queue *without* releasing their reclaimed slots, and a
degraded worker's batches bypass the ring entirely.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue
import signal
import time
import traceback
from collections import deque
from typing import Iterator, List, Optional, Set

import numpy as np
import weakref

from repro.dataloading.loaders import PPGNNBatch, PPGNNLoader
from repro.dataloading.shm import SharedPackedStore, SlotRing, attach_slots, attach_store
from repro.resilience.faultinject import FaultPlan, fault_point
from repro.resilience.supervisor import ResilienceCounters, SupervisorPolicy
from repro.utils.logging import get_logger
from repro.utils.mp import default_start_method, stop_pool
from repro.utils.timer import TimeAccumulator

logger = get_logger("dataloading.workers")

__all__ = ["MultiProcessLoader"]

#: how often blocked queue operations re-check the shutdown flag (seconds)
_POLL_SECONDS = 0.05

# result-queue message tags
_BATCH = 0
_ERROR = 1


def _worker_main(
    worker_id: int,
    store_handle,
    slot_handle,
    task_queue,
    result_queue,
    free_queue,
    stop_event,
    heartbeats,
    fault_plan: Optional[FaultPlan],
    inputs: range,
) -> None:
    """Worker process body: attach shared state, assemble assigned batches."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # shutdown is the parent's call
    store = attach_store(store_handle)
    slot_attachment = attach_slots(slot_handle)
    slots = slot_attachment.array
    try:
        while not stop_event.is_set():
            heartbeats[worker_id] = time.monotonic()
            try:
                task = task_queue.get(timeout=_POLL_SECONDS)
            except queue.Empty:
                continue
            if task is None:
                break
            epoch_id, generation, assignments = task
            for batch_index, rows in assignments:
                slot_id = None
                while not stop_event.is_set():
                    heartbeats[worker_id] = time.monotonic()
                    try:
                        slot_id = free_queue.get(timeout=_POLL_SECONDS)
                        break
                    except queue.Empty:
                        continue
                if slot_id is None:
                    return
                heartbeats[worker_id] = time.monotonic()
                # deterministic fault injection: a "kill" here is SIGKILL
                # before any result is queued, a "stall" stops the heartbeat
                fault_point(
                    "loader.worker.batch",
                    plan=fault_plan,
                    worker_id=worker_id,
                    epoch_id=epoch_id,
                    generation=generation,
                    batch_index=batch_index,
                )
                began = time.perf_counter()
                store.gather_into(rows, slots[slot_id, :, : rows.size], inputs)
                elapsed = time.perf_counter() - began
                heartbeats[worker_id] = time.monotonic()
                result_queue.put((_BATCH, epoch_id, batch_index, slot_id, rows.size, elapsed))
    except BaseException:
        try:
            result_queue.put((_ERROR, worker_id, traceback.format_exc()))
        except Exception:
            pass
    finally:
        store.close()
        del slots
        slot_attachment.close()


def _worker_error(message) -> RuntimeError:
    """The consumer-side error for a worker's ``_ERROR`` message."""
    _, worker_id, worker_traceback = message
    return RuntimeError(
        f"loader worker {worker_id} raised during batch assembly:\n{worker_traceback}"
    )


def _teardown(stop_event, parent_queues, processes, shared_store, slot_ring) -> None:
    """Stop workers and unlink shared segments (idempotent; also runs at exit).

    ``parent_queues`` holds the loader's *live* queue lists (recovery swaps
    individual queues in place), so respawned workers and their fresh queues
    are torn down just like the originals.
    """
    stop_pool(stop_event, parent_queues[0], processes, [q for group in parent_queues for q in group])
    shared_store.close()
    slot_ring.close()


class MultiProcessLoader:
    """Shard epoch batch assembly across ``num_workers`` processes.

    Drop-in for a :class:`PPGNNLoader` wherever only ``epoch()`` iteration and
    read-only metadata are needed (the same surface
    :class:`~repro.dataloading.prefetch.PrefetchLoader` exposes, so the two
    compose in either role).

    Parameters
    ----------
    loader:
        The wrapped single-process loader.  Only its schedule generation and
        store/label metadata are used; assembly happens in the workers.
    num_workers:
        Number of assembly processes ``K >= 1``.
    keep:
        Valid-window of yielded batches (the ``num_buffers`` analogue): a
        yielded batch's ``hop_features`` views stay intact until ``keep - 1``
        further batches have been yielded.  ``PrefetchLoader`` on top needs
        ``keep >= depth + 2``.
    timeout_seconds:
        Upper bound on waiting for any single batch before declaring the
        worker pool wedged (surfaces as ``RuntimeError`` instead of a hang).
    start_method:
        ``multiprocessing`` start method; default prefers ``fork`` (cheap,
        shares the parent's imports) and falls back to ``spawn``.
    policy:
        ``None`` (default) fails fast on a dead worker.  A
        :class:`~repro.resilience.supervisor.SupervisorPolicy` turns on
        self-healing: crash/stall detection, bounded respawns with
        exponential backoff, and graceful in-process degradation once the
        respawn budget is spent.  Batch bytes and order are identical either
        way.
    fault_plan:
        Deterministic fault injection (tests only); forwarded into worker
        processes and consulted at ``loader.worker.batch``.
    """

    def __init__(
        self,
        loader: PPGNNLoader,
        num_workers: int = 2,
        keep: int = 2,
        timeout_seconds: float = 60.0,
        start_method: Optional[str] = None,
        policy: Optional[SupervisorPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        if not hasattr(loader, "epoch_schedule"):
            # e.g. an already-wrapped MultiProcessLoader or PrefetchLoader:
            # fail here rather than with an opaque AttributeError mid-epoch
            # (after a second worker pool has been spawned)
            raise TypeError(
                f"MultiProcessLoader requires a schedule-generating loader, got "
                f"{type(loader).__name__}; wrapping an already-wrapped pipeline is not supported"
            )
        if num_workers <= 0:
            raise ValueError("num_workers must be positive")
        if keep < 2:
            raise ValueError("keep must be >= 2 (current batch + one look-back)")
        if timeout_seconds <= 0:
            raise ValueError("timeout_seconds must be positive")
        self.loader = loader
        self.num_workers = num_workers
        self.keep = keep
        self.timeout_seconds = timeout_seconds
        self.policy = policy
        self.fault_plan = fault_plan
        self.timing = TimeAccumulator()
        #: what the supervisor did over this loader's lifetime
        self.counters = ResilienceCounters()
        #: worker-side per-batch assembly seconds for the last epoch
        self.assembly_times: List[float] = []
        #: consumer-side per-batch result-wait seconds for the last epoch
        self.wait_times: List[float] = []
        self._epoch_id = 0
        self._closed = False
        #: per-worker incarnation number; results from older incarnations are
        #: dropped without slot release (their slots were reclaimed at respawn)
        self._generations = [0] * num_workers
        #: workers retired for good (respawn budget spent); their shards are
        #: assembled in-process by the parent
        self._retired: Set[int] = set()

        self._ctx = ctx = mp.get_context(default_start_method(start_method))

        store = loader.store
        #: the wrapped loader's input selection, fixed for the pool's lifetime:
        #: slots are sized for it and every worker (respawns too) gathers it
        self.inputs = loader.inputs
        self._shared_store = SharedPackedStore(store)
        self._slots_per_worker = keep + 1
        self._slot_ring = SlotRing(
            num_slots=num_workers * self._slots_per_worker,
            num_matrices=len(self.inputs),
            batch_size=loader.batch_size,
            feature_dim=store.feature_dim,
            dtype=store.dtype,
        )
        self._stop = ctx.Event()
        self._task_queues = [ctx.Queue() for _ in range(num_workers)]
        self._free_queues = [ctx.Queue() for _ in range(num_workers)]
        self._result_queues = [ctx.Queue() for _ in range(num_workers)]
        #: last time.monotonic() each worker proved liveness (shared doubles)
        self._heartbeats = ctx.Array("d", num_workers, lock=False)
        now = time.monotonic()
        for worker_id, free_queue in enumerate(self._free_queues):
            self._heartbeats[worker_id] = now
            for slot in range(
                worker_id * self._slots_per_worker, (worker_id + 1) * self._slots_per_worker
            ):
                free_queue.put(slot)
        self._processes = [self._spawn_worker(worker_id) for worker_id in range(num_workers)]
        for process in self._processes:
            process.start()
        self._finalizer = weakref.finalize(
            self,
            _teardown,
            self._stop,
            (self._task_queues, self._free_queues, self._result_queues),
            self._processes,
            self._shared_store,
            self._slot_ring,
        )

    def _spawn_worker(self, worker_id: int):
        return self._ctx.Process(
            target=_worker_main,
            args=(
                worker_id,
                self._shared_store.handle,
                self._slot_ring.handle,
                self._task_queues[worker_id],
                self._result_queues[worker_id],
                self._free_queues[worker_id],
                self._stop,
                self._heartbeats,
                self.fault_plan,
                self.inputs,
            ),
            name=f"ppgnn-loader-{worker_id}",
            daemon=True,
        )

    # ------------------------------------------------------------------ #
    # read-only passthroughs so trainer and PrefetchLoader treat this as a loader
    @property
    def store(self):
        return self.loader.store

    @property
    def labels(self) -> np.ndarray:
        return self.loader.labels

    @property
    def batch_size(self) -> int:
        return self.loader.batch_size

    @property
    def strategy_name(self) -> str:
        return f"{self.loader.strategy_name}+mp{self.num_workers}"

    #: yielded batches alias the shared slot ring — advertise the same
    #: valid-window contract as a buffer-reusing loader so PrefetchLoader's
    #: depth check applies unchanged
    @property
    def reuse_buffers(self) -> bool:
        return True

    @property
    def num_buffers(self) -> int:
        return self.keep

    def num_batches(self) -> int:
        return self.loader.num_batches()

    def stall_seconds(self) -> float:
        """Total time the consumer has spent waiting on worker results."""
        return self.timing.buckets.get("mp_wait", 0.0)

    # ------------------------------------------------------------------ #
    def _release(self, slot_id: int) -> None:
        if self._closed:
            return  # teardown already closed the queues and unlinked the slots
        try:
            self._free_queues[slot_id // self._slots_per_worker].put(slot_id)
        except ValueError:  # raced with close(): nothing left to recycle into
            pass

    def _heartbeat_age(self, worker_id: int) -> float:
        return time.monotonic() - self._heartbeats[worker_id]

    def _raise_if_raised(self, worker_id: int) -> None:
        """Surface the traceback a dead worker queued before exiting, if any.

        It may sit behind results the consumer has not reached yet; those die
        with the worker's queue.  A batch result is one pipe write shorter
        than ``PIPE_BUF`` and a traceback's sender exits normally, so a killed
        writer never leaves a torn message to block on.
        """
        while True:
            try:
                message = self._result_queues[worker_id].get_nowait()
            except queue.Empty:
                return
            if message[0] == _ERROR:
                raise _worker_error(message)

    def _check_workers(self) -> None:
        """Fail-fast posture: a dead worker is a loud, diagnosable error."""
        for worker_id, process in enumerate(self._processes):
            if worker_id in self._retired:
                continue
            if not process.is_alive():
                self._raise_if_raised(worker_id)
                raise RuntimeError(
                    f"loader worker {process.name} died with exit code {process.exitcode} "
                    f"mid-epoch (last heartbeat {self._heartbeat_age(worker_id):.1f}s ago); "
                    "batch assembly cannot continue"
                )

    def _failed_workers(self, wait_seconds: float) -> List[tuple]:
        """(worker_id, reason) for every worker currently dead or stalled."""
        failed = []
        for worker_id, process in enumerate(self._processes):
            if worker_id in self._retired:
                continue
            if not process.is_alive():
                failed.append((worker_id, "crash"))
            elif (
                wait_seconds > self.policy.batch_deadline_seconds
                and self._heartbeat_age(worker_id) > self.policy.stall_timeout_seconds
            ):
                failed.append((worker_id, "stall"))
        return failed

    def _recover_worker(self, worker_id: int, reason: str, epoch_id, shards, done, pinned) -> None:
        """SIGKILL + respawn the worker (or retire it once the budget is spent)."""
        process = self._processes[worker_id]
        if reason == "stall":
            self.counters.worker_stalls += 1
            logger.warning(
                "loader worker %s stalled (heartbeat %.1fs old); killing it",
                process.name,
                self._heartbeat_age(worker_id),
            )
            if process.is_alive():
                try:
                    os.kill(process.pid, signal.SIGKILL)
                except ProcessLookupError:  # pragma: no cover - exited just now
                    pass
        else:
            self._raise_if_raised(worker_id)  # an assembly bug, not a crash to heal
            self.counters.worker_crashes += 1
            logger.warning(
                "loader worker %s died with exit code %s", process.name, process.exitcode
            )
        process.join(timeout=5.0)
        self._generations[worker_id] += 1
        # fresh queues: anything in the old ones (an unconsumed task, slot
        # returns, unread results, a write lock the dead process still holds)
        # belongs to the dead incarnation and is never read
        for queues in (self._task_queues, self._free_queues, self._result_queues):
            queues[worker_id].cancel_join_thread()
            queues[worker_id].close()
            queues[worker_id] = self._ctx.Queue()
        if self.counters.respawns >= self.policy.max_respawns:
            logger.warning(
                "respawn budget (%d) spent; degrading worker %d to in-process assembly",
                self.policy.max_respawns,
                worker_id,
            )
            self._retired.add(worker_id)
            return
        self.counters.respawns += 1
        backoff = self.policy.backoff_for(self.counters.respawns)
        if backoff > 0:
            time.sleep(backoff)
        generation = self._generations[worker_id]
        # the replacement inherits its predecessor's slot range, except slots
        # the consumer still pins (those flow back through _release later)
        base = worker_id * self._slots_per_worker
        for slot in range(base, base + self._slots_per_worker):
            if slot not in pinned:
                self._free_queues[worker_id].put(slot)
        self._heartbeats[worker_id] = time.monotonic()
        replacement = self._spawn_worker(worker_id)
        self._processes[worker_id] = replacement
        replacement.start()
        remaining = [(i, rows) for i, rows in shards[worker_id] if i not in done]
        if remaining:
            self.counters.requeued_batches += len(remaining)
            self._task_queues[worker_id].put((epoch_id, generation, remaining))
        logger.info(
            "respawned loader worker %d (respawn %d/%d, generation %d, %d batch(es) requeued)",
            worker_id,
            self.counters.respawns,
            self.policy.max_respawns,
            generation,
            len(remaining),
        )

    def _assemble_inline(self, rows: np.ndarray) -> PPGNNBatch:
        """Degraded-mode assembly in the parent, from the wrapped loader's store: same bytes."""
        store = self.loader.store
        block = np.empty((len(self.inputs), rows.size, store.feature_dim), dtype=store.dtype)
        began = time.perf_counter()
        store.gather_packed(rows, out=block, inputs=self.inputs)
        elapsed = time.perf_counter() - began
        self.counters.inline_batches += 1
        self.assembly_times.append(elapsed)
        self.timing.add("batch_assembly", elapsed)
        return PPGNNBatch(
            row_indices=rows, hop_features=list(block), labels=self.labels[rows]
        )

    def _drain_stale(self) -> None:
        """Recycle slots of results left over from an abandoned epoch."""
        for result_queue in self._result_queues:
            while True:
                try:
                    message = result_queue.get_nowait()
                except queue.Empty:
                    break
                if message[0] == _BATCH:
                    self._release(message[3])

    def epoch(self) -> Iterator[PPGNNBatch]:
        """Yield one epoch of batches, assembled by the worker pool in order."""
        if self._closed:
            raise RuntimeError("MultiProcessLoader is closed")
        schedule = self.loader.epoch_schedule()
        batches = schedule.batches
        self._epoch_id += 1
        epoch_id = self._epoch_id
        self.assembly_times = []
        self.wait_times = []
        self._drain_stale()
        shards = {}
        for worker_id in range(self.num_workers):
            shard = [(i, batches[i]) for i in range(worker_id, len(batches), self.num_workers)]
            shards[worker_id] = shard
            if worker_id not in self._retired and shard:
                self._task_queues[worker_id].put(
                    (epoch_id, self._generations[worker_id], shard)
                )
        pending: dict[int, tuple[int, int]] = {}
        holds: deque[int] = deque()
        done: Set[int] = set()

        def handle(message) -> None:
            if message[0] == _ERROR:
                raise _worker_error(message)
            _, result_epoch, batch_index, slot_id, num_rows, elapsed = message
            if result_epoch != epoch_id:  # abandoned-epoch leftover
                self._release(slot_id)
                return
            pending[batch_index] = (slot_id, num_rows)
            done.add(batch_index)
            self.assembly_times.append(elapsed)
            self.timing.add("batch_assembly", elapsed)

        try:
            for index in range(len(batches)):
                began = time.perf_counter()
                owner = index % self.num_workers
                deadline = time.monotonic() + self.timeout_seconds
                while index not in pending:
                    if owner in self._retired:
                        break  # assembled inline below
                    try:
                        # the owner's queue only: its batches arrive in shard order,
                        # and recovery may have swapped the queue since the last poll
                        message = self._result_queues[owner].get(timeout=_POLL_SECONDS)
                    except queue.Empty:
                        if self.policy is None:
                            self._check_workers()
                        else:
                            waited = time.perf_counter() - began
                            for worker_id, reason in self._failed_workers(waited):
                                pinned = {slot for slot, _ in pending.values()} | set(holds)
                                self._recover_worker(
                                    worker_id, reason, epoch_id, shards, done, pinned
                                )
                        if time.monotonic() >= deadline:
                            raise RuntimeError(
                                f"timed out after {self.timeout_seconds}s waiting for a "
                                "batch from the loader workers"
                            )
                        continue
                    handle(message)
                waited = time.perf_counter() - began
                self.wait_times.append(waited)
                self.timing.add("mp_wait", waited)
                rows = batches[index]
                if index in pending:
                    slot_id, num_rows = pending.pop(index)
                    holds.append(slot_id)
                    while len(holds) > self.keep:
                        self._release(holds.popleft())
                    block = self._slot_ring.slots[slot_id, :, :num_rows]
                    yield PPGNNBatch(
                        row_indices=rows, hop_features=list(block), labels=self.labels[rows]
                    )
                else:
                    done.add(index)
                    yield self._assemble_inline(rows)
        finally:
            # early break / exception: recycle every slot we still account for;
            # results still in flight are tagged with this (now stale) epoch id
            # and recycled by the next epoch's drain or by close()
            for slot_id, _ in pending.values():
                self._release(slot_id)
            for slot_id in holds:
                self._release(slot_id)

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Stop the workers and unlink all shared-memory segments (idempotent)."""
        self._closed = True
        if self._finalizer.alive:
            self._finalizer()

    def __enter__(self) -> "MultiProcessLoader":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
