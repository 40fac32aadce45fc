"""Configuration for the online serving tier.

One dataclass owns every serving knob — cache policy/budget, node-adaptive
depth, and the overload/resilience posture (admission control, deadlines, gather retries, dispatcher watchdog,
drain budget) — so the engine constructor does not sprawl into kwargs and
the :mod:`repro.api` facade can hand the same object from session to engine
unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.resilience.supervisor import SupervisorPolicy
from repro.serving.cache import CACHE_POLICIES

__all__ = ["ServingConfig", "SHED_POLICIES"]

#: how :meth:`ServingEngine.submit` behaves when the pending queue is full
SHED_POLICIES = ("reject", "block")


@dataclass
class ServingConfig:
    """Knobs for :class:`~repro.serving.engine.ServingEngine`.

    Coalescing
        Has no knob: the dispatcher claims everything pending the moment it is
        free, so whatever arrived during the previous dispatch is answered by
        one fused gather; duplicate ids waiting together and ids already in
        flight are served from a single gather.

    Hot-node cache
        ``cache_policy`` is ``"lru"``, ``"clock"`` or ``"none"``.  Capacity is
        resolved in this order: explicit ``cache_capacity`` entries, else
        ``cache_bytes // entry_bytes``, else ``cache_fraction`` of the host
        device's headroom (when the engine is given one), else
        ``DEFAULT_CACHE_CAPACITY`` — always clamped to the store's row count.

    Node-adaptive depth
        ``adaptive_depth=True`` truncates cache-miss gathers per node: rows
        whose degree falls in higher ``depth_quantiles`` bands are served with
        fewer hops, down to ``min_depth`` (arXiv:2310.10998).

    Admission control
        At most ``max_pending`` *distinct* node ids may sit in the pending
        queue (``None`` = unbounded); requests that coalesce into a pending or
        in-flight entry are always admitted since they add no gather work.
        When the queue is full, ``shed_policy="reject"`` sheds the request
        immediately with a typed :class:`~repro.serving.errors.OverloadError`,
        while ``"block"`` waits up to ``admission_timeout_seconds`` for the
        dispatcher to drain space before shedding.

    Deadlines and retries
        ``default_deadline_seconds`` (overridable per ``submit``) bounds how
        long a request may wait before the dispatcher drops it with
        :class:`~repro.serving.errors.DeadlineExceeded` instead of gathering
        for it.  Transient gather failures are retried up to
        ``gather_retries`` times with exponential backoff starting at
        ``gather_backoff_seconds`` before failing only the affected futures.

    Supervision and drain
        ``watchdog=True`` runs a supervisor thread (checking every
        ``watchdog_interval_seconds``) that detects a dead or stalled
        dispatcher via ``supervisor`` heartbeat deadlines, fails its in-flight
        futures, and respawns it under the policy's respawn budget — spending
        the budget degrades the engine to synchronous inline gathers,
        mirroring the self-healing loader.  ``close(drain=True)`` flushes the
        queue within ``drain_timeout_seconds`` before tearing down.
    """

    DEFAULT_CACHE_CAPACITY = 4096

    cache_policy: str = "lru"
    cache_capacity: Optional[int] = None
    cache_bytes: Optional[int] = None
    cache_fraction: float = 0.05
    adaptive_depth: bool = False
    min_depth: int = 1
    depth_quantiles: Tuple[float, ...] = (0.5, 0.9)
    #: how many recent request latencies the engine retains for percentiles
    latency_window: int = 65536
    #: distinct pending ids admitted before shedding (None = unbounded)
    max_pending: Optional[int] = 4096
    shed_policy: str = "reject"
    #: how long ``shed_policy="block"`` waits for queue space before shedding
    admission_timeout_seconds: float = 1.0
    #: deadline applied to every submit that does not carry its own (None = no deadline)
    default_deadline_seconds: Optional[float] = None
    #: transient-gather retry budget per batch
    gather_retries: int = 2
    gather_backoff_seconds: float = 0.01
    #: dispatcher supervision (heartbeat/respawn knobs come from ``supervisor``)
    watchdog: bool = True
    watchdog_interval_seconds: float = 0.1
    supervisor: Optional[SupervisorPolicy] = None
    #: budget for ``close(drain=True)`` to flush pending work
    drain_timeout_seconds: float = 5.0

    def __post_init__(self) -> None:
        allowed = CACHE_POLICIES + ("none",)
        if self.cache_policy not in allowed:
            raise ValueError(f"cache_policy must be one of {allowed}, got {self.cache_policy!r}")
        if self.cache_capacity is not None and self.cache_capacity < 1:
            raise ValueError("cache_capacity must be >= 1 when given")
        if self.cache_bytes is not None and self.cache_bytes < 1:
            raise ValueError("cache_bytes must be >= 1 when given")
        if not 0.0 < self.cache_fraction <= 1.0:
            raise ValueError("cache_fraction must be in (0, 1]")
        if self.min_depth < 0:
            raise ValueError("min_depth must be non-negative")
        if self.latency_window < 1:
            raise ValueError("latency_window must be >= 1")
        if self.max_pending is not None and self.max_pending < 1:
            raise ValueError("max_pending must be >= 1 when given")
        if self.shed_policy not in SHED_POLICIES:
            raise ValueError(f"shed_policy must be one of {SHED_POLICIES}, got {self.shed_policy!r}")
        if self.admission_timeout_seconds <= 0:
            raise ValueError("admission_timeout_seconds must be positive")
        if self.default_deadline_seconds is not None and self.default_deadline_seconds <= 0:
            raise ValueError("default_deadline_seconds must be positive when given")
        if self.gather_retries < 0:
            raise ValueError("gather_retries must be non-negative")
        if self.gather_backoff_seconds < 0:
            raise ValueError("gather_backoff_seconds must be non-negative")
        if self.watchdog_interval_seconds <= 0:
            raise ValueError("watchdog_interval_seconds must be positive")
        if self.drain_timeout_seconds <= 0:
            raise ValueError("drain_timeout_seconds must be positive")

    def resolve_cache_capacity(self, entry_bytes: int, host=None) -> int:
        """Entries the hot-node cache may hold, given one entry's byte size.

        ``host`` is an optional :class:`~repro.hardware.memory.MemoryDevice`
        whose headroom bounds the budget when no explicit capacity is set.
        """
        if self.cache_policy == "none":
            return 0
        if self.cache_capacity is not None:
            return self.cache_capacity
        if self.cache_bytes is not None:
            return max(1, self.cache_bytes // entry_bytes)
        if host is not None:
            return max(1, host.fit_count(entry_bytes, self.cache_fraction))
        return self.DEFAULT_CACHE_CAPACITY

    def resolve_supervisor(self) -> SupervisorPolicy:
        """The watchdog's policy: the explicit one, or serving-tuned defaults.

        The loader defaults (30 s stall timeout) assume multi-second batch
        assembly; a serving gather is milliseconds, so the default here calls
        a dispatcher silent for 5 s stalled.
        """
        if self.supervisor is not None:
            return self.supervisor
        return SupervisorPolicy(
            max_respawns=2,
            backoff_seconds=0.05,
            max_backoff_seconds=2.0,
            stall_timeout_seconds=5.0,
            batch_deadline_seconds=1.0,
        )
