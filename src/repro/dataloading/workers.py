"""Multi-process epoch sharding: batch assembly beyond one GIL.

:class:`~repro.dataloading.prefetch.PrefetchLoader` moves assembly off the
training loop, but its single producer thread still shares the GIL with model
compute.  :class:`MultiProcessLoader` removes that ceiling: each epoch's
:class:`~repro.dataloading.batching.BatchSchedule` is sharded **round-robin**
across ``num_workers`` OS processes (worker ``w`` assembles batches
``w, w + K, w + 2K, ...``), which gather rows from the shared packed block
(see :mod:`repro.dataloading.shm`) straight into a ring of shared-memory batch
slots.  Only *slot indices* travel, each worker's over its own queues —
feature arrays are never pickled in either direction.  The processes, their
queues, heartbeats, failure diagnosis and teardown are the
:class:`~repro.resilience.supervisor.WorkerRunner`'s; this module keeps the
slot ring and its free-slot queues (the runner's side queues), the shard
order, the generation tags and the policy's respawn / retire / inline
decisions.

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
  runner's and the segments' ``weakref.finalize``/atexit fallbacks) stops
  workers and unlinks every shared segment.
* **Fail-fast or self-heal, never hang.** The two postures of
  :mod:`repro.resilience.supervisor`: without a policy a dead worker is a
  ``RuntimeError`` with its exit code and last-heartbeat age; with one,
  crashed and stalled workers are respawned on fresh queues with their
  unfinished shard, and once the budget is spent the parent assembles their
  batches itself — bit-identically, just slower.  ``.counters`` tallies it.

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

import time
from collections import deque
from typing import Iterator, List, Optional, Set

import numpy as np

from repro.dataloading.loaders import PPGNNBatch, PPGNNLoader
from repro.dataloading.shm import SharedPackedStore, SlotRing, attach_slots, attach_store
from repro.resilience.faultinject import FaultPlan, fault_point
from repro.resilience.supervisor import ResilienceCounters, SupervisorPolicy, Worker, WorkerRunner
from repro.utils.logging import get_logger
from repro.utils.timer import TimeAccumulator

logger = get_logger("dataloading.workers")

__all__ = ["MultiProcessLoader"]


def _assemble(worker: Worker, store_handle, slot_handle, fault_plan: Optional[FaultPlan], inputs: range) -> None:
    """Worker body: attach shared state, assemble assigned batches into free slots."""
    store = attach_store(store_handle)
    slot_attachment = attach_slots(slot_handle)
    slots = slot_attachment.array
    try:
        for epoch_id, generation, assignments in worker.tasks():
            for batch_index, rows in assignments:
                slot_id = worker.get(worker.side_queue)
                if slot_id is None:
                    return
                # deterministic fault injection: a "kill" here is SIGKILL
                # before any result is queued, a "stall" stops the heartbeat
                fault_point(
                    "loader.worker.batch",
                    plan=fault_plan,
                    worker_id=worker.worker_id,
                    epoch_id=epoch_id,
                    generation=generation,
                    batch_index=batch_index,
                )
                began = time.perf_counter()
                store.gather_into(rows, slots[slot_id, :, : rows.size], inputs)
                elapsed = time.perf_counter() - began
                worker.beat()
                worker.send((epoch_id, batch_index, slot_id, rows.size, elapsed))
    finally:
        store.close()
        del slots
        slot_attachment.close()


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
        self._runner = WorkerRunner(
            "loader",
            "batch assembly",
            num_workers,
            _assemble,
            (self._shared_store.handle, self._slot_ring.handle, fault_plan, self.inputs),
            timeout_seconds,
            start_method=start_method,
            side_queues=True,  # each worker's free-slot queue
        )
        for worker_id in range(num_workers):
            self._refill(worker_id, pinned=set())

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
            self._runner.side_queue(slot_id // self._slots_per_worker).put(slot_id)
        except ValueError:  # raced with close(): nothing left to recycle into
            pass

    def _refill(self, worker_id: int, pinned: Set[int]) -> None:
        """Hand ``worker_id`` its slot range, except slots the consumer still pins.

        Pinned slots flow back through :meth:`_release` once the consumer
        lets go of them.
        """
        base = worker_id * self._slots_per_worker
        for slot in range(base, base + self._slots_per_worker):
            if slot not in pinned:
                self._runner.side_queue(worker_id).put(slot)

    def _failed_workers(self, wait_seconds: float) -> List[tuple]:
        """(worker_id, reason) for every worker currently dead or stalled."""
        failed = []
        for worker_id, process in enumerate(self._runner.processes):
            if worker_id in self._retired:
                continue
            if not process.is_alive():
                failed.append((worker_id, "crash"))
            elif (
                wait_seconds > self.policy.batch_deadline_seconds
                and self._runner.heartbeat_age(worker_id) > self.policy.stall_timeout_seconds
            ):
                failed.append((worker_id, "stall"))
        return failed

    def _recover_worker(self, worker_id: int, reason: str, epoch_id, shards, done, pinned) -> None:
        """SIGKILL + respawn the worker (or retire it once the budget is spent)."""
        process = self._runner.processes[worker_id]
        if reason == "stall":
            self.counters.worker_stalls += 1
            logger.warning(
                "loader worker %s stalled (heartbeat %.1fs old); killing it",
                process.name,
                self._runner.heartbeat_age(worker_id),
            )
        else:
            self._runner.drain(worker_id)  # a raised traceback is an assembly bug, not a crash to heal
            self.counters.worker_crashes += 1
            logger.warning(
                "loader worker %s died with exit code %s", process.name, process.exitcode
            )
        self._runner.stop(worker_id)
        self._generations[worker_id] += 1
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
        # the replacement inherits its predecessor's slot range
        self._refill(worker_id, pinned)
        self._runner.start(worker_id)
        remaining = [(i, rows) for i, rows in shards[worker_id] if i not in done]
        if remaining:
            self.counters.requeued_batches += len(remaining)
            self._runner.submit(worker_id, (epoch_id, generation, remaining))
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
        for worker_id in range(self.num_workers):
            while (message := self._runner.poll(worker_id, timeout=0)) is not None:
                self._release(message[2])

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
                self._runner.submit(worker_id, (epoch_id, self._generations[worker_id], shard))
        pending: dict[int, tuple[int, int]] = {}
        holds: deque[int] = deque()
        done: Set[int] = set()

        def handle(message) -> None:
            result_epoch, batch_index, slot_id, num_rows, elapsed = message
            if result_epoch != epoch_id:  # abandoned-epoch leftover
                self._release(slot_id)
                return
            pending[batch_index] = (slot_id, num_rows)
            done.add(batch_index)
            self.assembly_times.append(elapsed)
            self.timing.add("batch_assembly", elapsed)

        def heal() -> bool:
            """Between polls under a policy: recover failed workers; False once the owner is retired."""
            waited = time.perf_counter() - began
            for worker_id, reason in self._failed_workers(waited):
                pinned = {slot for slot, _ in pending.values()} | set(holds)
                self._recover_worker(worker_id, reason, epoch_id, shards, done, pinned)
            return owner not in self._retired

        # without a policy the runner's own check fails fast on a dead worker
        idle = None if self.policy is None else heal
        try:
            for index in range(len(batches)):
                began = time.perf_counter()
                owner = index % self.num_workers
                deadline = self._runner.deadline()
                # the owner's results only: its batches arrive in shard order
                while index not in pending and owner not in self._retired:
                    message = self._runner.receive(owner, deadline, idle)
                    if message is not None:
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
        self._runner.close()
        self._shared_store.close()
        self._slot_ring.close()

    def __enter__(self) -> "MultiProcessLoader":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
