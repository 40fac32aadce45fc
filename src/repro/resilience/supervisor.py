"""The one worker-process runner, and the policy the loader pool applies on it.

Both multi-process stages run on :class:`WorkerRunner`: the loader pool
(:class:`~repro.dataloading.workers.MultiProcessLoader`) and the blocked
pre-propagation pool (:func:`~repro.prepropagation.blocked.propagate_blocked`).
The runner owns the process mechanics — spawn, a private task and result
queue per worker, the child loop and its heartbeat, the diagnosis of a dead
or raising worker, wait deadlines, restart and teardown — and its callers
keep their decisions.  The blocked pool fails fast.  The loader pool has two
postures:

* **fail-fast** (``policy=None``, the default): a dead or wedged worker
  surfaces as a ``RuntimeError`` carrying its exit code and last-heartbeat
  age — the right behavior for debugging and CI;
* **self-healing** (``policy=SupervisorPolicy(...)``): crashed and stalled
  workers are SIGKILLed (if needed), respawned with exponential backoff up to
  a bounded budget, their unfinished batches re-queued; once the budget is
  exhausted the loader *degrades gracefully* — the parent assembles the
  affected batches in-process through the wrapped loader's store instead of
  raising — so an epoch always completes, bit-identically, as long as the
  parent survives.

The policy object is deliberately tiny and immutable: everything the
supervisor does is a pure function of it plus observed worker state, which
keeps the recovery paths deterministic enough to fault-inject in tests.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue
import signal
import sys
import time
import traceback
import weakref
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional

__all__ = [
    "ResilienceCounters",
    "SupervisorPolicy",
    "Worker",
    "WorkerRunner",
    "default_start_method",
]

#: how often blocked queue operations re-check the shutdown flag (seconds)
_POLL_SECONDS = 0.05

# result-queue message tags
_RESULT = 0
_ERROR = 1


def default_start_method(start_method: Optional[str] = None) -> str:
    """Resolve the start method for a worker pool (fork where it is safe).

    Fork is near-free and shares the parent's imports (and, for the blocked
    propagation engine, the feature matrix copy-on-write), but is only safe
    on Linux: macOS lists it too, yet forking without exec crashes
    Accelerate-backed NumPy in the children.
    """
    if start_method is not None:
        return start_method
    return (
        "fork"
        if sys.platform == "linux" and "fork" in mp.get_all_start_methods()
        else "spawn"
    )


@dataclass(frozen=True)
class SupervisorPolicy:
    """Knobs of the self-healing loader supervisor.

    Parameters
    ----------
    max_respawns:
        Total respawn budget across the pool's lifetime.  ``0`` means never
        respawn: the first failure degrades straight to in-process assembly.
    backoff_seconds:
        Base of the exponential respawn backoff: respawn ``i`` (1-based)
        waits ``backoff_seconds * 2**(i - 1)``, capped at
        ``max_backoff_seconds``.
    stall_timeout_seconds:
        A worker whose heartbeat is older than this while the consumer is
        waiting on one of its batches is declared stalled and treated exactly
        like a crash (SIGKILL + respawn-or-degrade).
    batch_deadline_seconds:
        Minimum time the consumer waits on a single batch before stall
        detection may trigger — guards against declaring a worker stalled
        while it is merely behind.
    """

    max_respawns: int = 2
    backoff_seconds: float = 0.05
    max_backoff_seconds: float = 2.0
    stall_timeout_seconds: float = 30.0
    batch_deadline_seconds: float = 5.0

    def __post_init__(self) -> None:
        if self.max_respawns < 0:
            raise ValueError("max_respawns must be non-negative")
        if self.backoff_seconds < 0 or self.max_backoff_seconds < 0:
            raise ValueError("backoff seconds must be non-negative")
        if self.stall_timeout_seconds <= 0:
            raise ValueError("stall_timeout_seconds must be positive")
        if self.batch_deadline_seconds <= 0:
            raise ValueError("batch_deadline_seconds must be positive")

    def backoff_for(self, respawn_index: int) -> float:
        """Backoff before the ``respawn_index``-th respawn (1-based)."""
        if respawn_index <= 0:
            return 0.0
        return min(self.backoff_seconds * (2 ** (respawn_index - 1)), self.max_backoff_seconds)


@dataclass
class ResilienceCounters:
    """What the supervisor actually did — surfaced into ``TrainingHistory``."""

    #: worker processes respawned after a crash or stall
    respawns: int = 0
    #: crashes observed (non-zero exit, unexpected death)
    worker_crashes: int = 0
    #: stalls detected via heartbeat age + batch deadline
    worker_stalls: int = 0
    #: batches re-queued off a failed worker (to its replacement)
    requeued_batches: int = 0
    #: batches assembled in-process after the respawn budget ran out
    inline_batches: int = 0

    def snapshot(self) -> Dict[str, int]:
        return {
            "respawns": self.respawns,
            "worker_crashes": self.worker_crashes,
            "worker_stalls": self.worker_stalls,
            "requeued_batches": self.requeued_batches,
            "inline_batches": self.inline_batches,
        }

    def delta_since(self, earlier: Dict[str, int]) -> Dict[str, int]:
        return {key: value - earlier.get(key, 0) for key, value in self.snapshot().items()}

    @property
    def degraded(self) -> bool:
        return self.inline_batches > 0


# --------------------------------------------------------------------------- #
# child side
class Worker:
    """A worker body's view of its runner: its id, its queues and its heartbeat."""

    def __init__(self, worker_id: int, queues, stop_event, heartbeats) -> None:
        self.worker_id = worker_id
        self._task_queue, self._result_queue, self.side_queue = queues
        self._stop = stop_event
        self._heartbeats = heartbeats

    def beat(self) -> None:
        self._heartbeats[self.worker_id] = time.monotonic()

    def get(self, source=None):
        """The next item of ``source`` (default: the task queue); ``None`` once stopping.

        Beats on every poll, so a worker waiting here is idle, never stalled.
        """
        source = self._task_queue if source is None else source
        while not self._stop.is_set():
            self.beat()
            try:
                return source.get(timeout=_POLL_SECONDS)
            except queue.Empty:
                continue
        return None

    def tasks(self) -> Iterator:
        """The tasks sent to this worker, until the ``None`` sentinel or shutdown."""
        while (task := self.get()) is not None:
            yield task

    def send(self, result) -> None:
        self._result_queue.put((_RESULT, result))


def _worker_main(body: Callable, args: tuple, worker_id: int, *channels) -> None:
    """Process entry point: run ``body(worker, *args)``; queue its traceback if it raises."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # shutdown is the parent's call
    worker = Worker(worker_id, *channels)
    try:
        body(worker, *args)
    except BaseException:
        try:
            worker._result_queue.put((_ERROR, traceback.format_exc()))
        except Exception:
            pass


def _stop_all(stop_event, processes, queues) -> None:
    """Stop every worker and close every queue (idempotent; also runs at exit).

    ``processes`` and ``queues`` are the runner's live lists, so restarted
    workers and their fresh queues go too.  Each process gets 2 s to take its
    ``None`` sentinel before it is terminated, then killed.  Queues are closed
    without joining their feeder threads, so a queue a dead worker left full
    cannot hang the caller.
    """
    stop_event.set()
    for task_queue, _, _ in queues:
        try:
            task_queue.put_nowait(None)
        except Exception:
            pass
    for process in processes:
        process.join(timeout=2.0)
    for process in processes:
        if process.is_alive():  # pragma: no cover - stuck worker
            process.terminate()
            process.join(timeout=1.0)
        if process.is_alive():  # pragma: no cover - unkillable worker
            process.kill()
            process.join(timeout=1.0)
    for worker_queues in queues:
        _close(worker_queues)


def _close(worker_queues) -> None:
    for q in worker_queues:
        if q is not None:
            q.cancel_join_thread()
            q.close()


# --------------------------------------------------------------------------- #
# parent side
class WorkerRunner:
    """``num_workers`` daemon processes ``ppgnn-<name>-<i>``, each running ``body(worker, *args)``.

    ``body`` is a module-level function (picklable under spawn) that reads
    :meth:`Worker.tasks` and answers with :meth:`Worker.send`.  ``task``
    names the work in error messages; ``timeout_seconds`` bounds every wait
    given :meth:`deadline`.  With ``side_queues`` each worker also gets a
    second parent-to-child queue (:meth:`side_queue`), for the caller's own
    protocol.
    """

    def __init__(
        self,
        name: str,
        task: str,
        num_workers: int,
        body: Callable,
        args: tuple,
        timeout_seconds: float,
        start_method: Optional[str] = None,
        side_queues: bool = False,
    ) -> None:
        self._ctx = ctx = mp.get_context(default_start_method(start_method))
        self.name = name
        self.task = task
        self.num_workers = num_workers
        self.timeout_seconds = timeout_seconds
        self._body = body
        self._args = args
        self._side_queues = side_queues
        self._stop = ctx.Event()
        #: per worker: [task queue, result queue, side queue or None]
        self._queues = [self._fresh_queues() for _ in range(num_workers)]
        #: last time.monotonic() each worker proved liveness (shared doubles)
        self._heartbeats = ctx.Array("d", num_workers, lock=False)
        self.processes: List = [None] * num_workers
        for worker_id in range(num_workers):
            self.start(worker_id)
        self._finalizer = weakref.finalize(self, _stop_all, self._stop, self.processes, self._queues)

    def _fresh_queues(self) -> list:
        ctx = self._ctx
        return [ctx.Queue(), ctx.Queue(), ctx.Queue() if self._side_queues else None]

    # ------------------------------------------------------------------ #
    def start(self, worker_id: int) -> None:
        """Start a process in ``worker_id``'s slot, on the slot's current queues."""
        self._heartbeats[worker_id] = time.monotonic()
        process = self._ctx.Process(
            target=_worker_main,
            args=(self._body, self._args, worker_id, self._queues[worker_id], self._stop, self._heartbeats),
            name=f"ppgnn-{self.name}-{worker_id}",
            daemon=True,
        )
        self.processes[worker_id] = process
        process.start()

    def stop(self, worker_id: int) -> None:
        """SIGKILL ``worker_id`` if it still runs, reap it, and give its slot fresh queues.

        Whatever the old queues hold (an unconsumed task, unread results, a
        lock the dead process still holds) belongs to the dead incarnation
        and is never read.
        """
        process = self.processes[worker_id]
        if process.is_alive():
            try:
                os.kill(process.pid, signal.SIGKILL)
            except ProcessLookupError:  # pragma: no cover - exited just now
                pass
        process.join(timeout=5.0)
        _close(self._queues[worker_id])
        self._queues[worker_id] = self._fresh_queues()

    def submit(self, worker_id: int, task) -> None:
        self._queues[worker_id][0].put(task)

    def side_queue(self, worker_id: int):
        return self._queues[worker_id][2]

    def heartbeat_age(self, worker_id: int) -> float:
        return time.monotonic() - self._heartbeats[worker_id]

    # ------------------------------------------------------------------ #
    def poll(self, worker_id: int, timeout: float = _POLL_SECONDS):
        """One result from ``worker_id`` within ``timeout``, else ``None``; a queued traceback raises."""
        try:
            kind, payload = self._queues[worker_id][1].get(timeout=timeout)
        except queue.Empty:
            return None
        if kind == _ERROR:
            raise RuntimeError(
                f"worker {self.processes[worker_id].name} raised during {self.task}:\n{payload}"
            )
        return payload

    def drain(self, worker_id: int) -> None:
        """Discard ``worker_id``'s unread results; raise the traceback it queued, if any.

        A result is one pipe write shorter than ``PIPE_BUF`` and a traceback's
        sender exits normally, so a killed writer never leaves a torn message.
        """
        while self.poll(worker_id, timeout=0) is not None:
            pass

    def check(self) -> None:
        """Fail fast: raise for the first dead worker, with its traceback if it left one."""
        for worker_id, process in enumerate(self.processes):
            if not process.is_alive():
                self.drain(worker_id)
                raise RuntimeError(
                    f"worker {process.name} died with exit code {process.exitcode} during "
                    f"{self.task} (last heartbeat {self.heartbeat_age(worker_id):.1f}s ago)"
                )

    def deadline(self) -> float:
        return time.monotonic() + self.timeout_seconds

    def receive(self, worker_id: int, deadline: float, idle: Optional[Callable[[], bool]] = None):
        """The next result from ``worker_id``, waiting until ``deadline`` at most.

        Between polls ``idle`` runs (default: :meth:`check`); one that heals
        workers returns ``False`` to stop waiting, and ``None`` is returned.
        """
        while (result := self.poll(worker_id)) is None:
            if idle is None:
                self.check()
            elif not idle():
                return None
            if time.monotonic() >= deadline:
                raise RuntimeError(
                    f"timed out after {self.timeout_seconds}s waiting for {self.task} "
                    f"from worker {self.processes[worker_id].name}"
                )
        return result

    def close(self) -> None:
        """Stop every worker and close every queue (idempotent)."""
        if self._finalizer.alive:
            self._finalizer()
