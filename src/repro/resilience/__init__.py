"""Fault tolerance for the PP-GNN data path.

Pre-propagation dominates end-to-end cost for PP-GNNs (Table 7): on large
graphs a single blocked run is hours of SpMM, and the training epoch behind
it leans on a pool of loader worker processes.  An OOM-kill, preemption, or
disk hiccup must cost work, not correctness.  A build fails fast on a dead
or raising block worker, leaves the previous store whole, and a resumable
build (``resume=True``) reruns only its unfinished phases; the loader may
fail fast or, under a :class:`SupervisorPolicy`, heal.  This package holds
the pieces the data-path layers wire through:

* :mod:`~repro.resilience.checkpoint` — crash-safe run manifests and the
  fsync'd append-only phase journal behind
  ``propagate_blocked(resume=True)``: completed ``(kernel, hop)`` phases are
  journaled with content digests and skipped on resume, with torn-write
  detection and automatic invalidation when the graph/config fingerprint
  changes.
* :mod:`~repro.resilience.durable` — the one atomic writer (write-temp,
  fsync, replace, fsync the directory) and the file/directory fsyncs every
  store and update publish goes through.
* :mod:`~repro.resilience.supervisor` — the one worker-process runner both
  pools run on (spawn, per-worker queues, heartbeats, diagnosis of a dead or
  raising worker, deadlines, teardown), and the :class:`SupervisorPolicy` and
  counters behind the self-healing :class:`~repro.dataloading.workers.
  MultiProcessLoader`: heartbeat/deadline detection of crashed *and* stalled
  workers, bounded exponential-backoff respawn, and graceful degradation to
  in-process assembly when the respawn budget is exhausted.
* :mod:`~repro.resilience.faultinject` — a deterministic, seeded
  :class:`FaultPlan` that fires worker SIGKILLs, stalls, scratch-write I/O
  errors and leaked-segment conditions at named injection points inside
  ``workers.py`` / ``blocked.py`` / ``shm.py``, so every recovery path above
  is testable without flaky timing games.
* :mod:`~repro.resilience.janitor` — a ``ppgnn-*`` shared-memory janitor
  that sweeps orphaned segments left in ``/dev/shm`` by dead runs
  (``python -m repro.resilience.janitor``).
"""

from repro.resilience.checkpoint import PhaseJournal, RunManifest, digest_array
from repro.resilience.faultinject import (
    FaultPlan,
    FaultSpec,
    InjectedFault,
    activate_plan,
    fault_point,
)
from repro.resilience.janitor import sweep_orphans
from repro.resilience.supervisor import ResilienceCounters, SupervisorPolicy

__all__ = [
    "PhaseJournal",
    "RunManifest",
    "digest_array",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "activate_plan",
    "fault_point",
    "sweep_orphans",
    "ResilienceCounters",
    "SupervisorPolicy",
]
