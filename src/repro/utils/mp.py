"""Multiprocessing policy shared by the worker subsystems."""

from __future__ import annotations

import multiprocessing as mp
import sys
from typing import Iterable, Optional, Sequence


def default_start_method(start_method: Optional[str] = None) -> str:
    """Resolve the start method for a worker pool (fork where it is safe).

    Fork is near-free and shares the parent's imports (and, for the blocked
    propagation engine, the feature matrix copy-on-write), but is only safe
    on Linux: macOS lists it too, yet forking without exec crashes
    Accelerate-backed NumPy in the children.  Both the multi-process loader
    and the blocked propagation pool resolve through here so the policy
    cannot drift between them.
    """
    if start_method is not None:
        return start_method
    return (
        "fork"
        if sys.platform == "linux" and "fork" in mp.get_all_start_methods()
        else "spawn"
    )


def stop_pool(stop_event, task_queues: Sequence, processes: Sequence, queues: Iterable) -> None:
    """Stop a worker pool and close its queues; both worker subsystems tear down here.

    Sets ``stop_event``, posts a ``None`` sentinel on every task queue, gives
    each process 2 s to exit, then terminates and finally kills stragglers.
    Every queue in ``queues`` is closed without joining its feeder thread, so
    a queue a dead worker left full cannot hang the caller.
    """
    stop_event.set()
    for task_queue in task_queues:
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
    for q in queues:
        q.cancel_join_thread()
        q.close()
