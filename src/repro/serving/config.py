"""Configuration for the online serving tier.

One dataclass owns every serving knob — the overload/resilience posture
(admission control, deadlines, gather retries, drain budget) — so the
engine constructor does not sprawl into kwargs and the :mod:`repro.api`
facade can hand the same object from session to engine unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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

    Gather
        Has no knob either: every answer is one gather from the packed store,
        which is already in RAM.  ``cache_policy`` and ``cache_capacity`` are
        ignored; removed with ``bench/``'s serving config in the follow-up.

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

    Drain
        The dispatcher runs unsupervised: a dispatch that raises fails its
        own batch and the next one goes ahead, and a slow gather only delays
        what waits behind it.  Deadlines bound that wait per request, and
        ``close(drain=True)`` flushes the queue within
        ``drain_timeout_seconds`` before tearing down.
    """

    #: ignored; removed with ``bench/``'s serving config in the follow-up
    cache_policy: str = "none"
    #: ignored; removed with ``bench/``'s serving config in the follow-up
    cache_capacity: Optional[int] = None
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
    #: budget for ``close(drain=True)`` to flush pending work
    drain_timeout_seconds: float = 5.0

    def __post_init__(self) -> None:
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
        if self.drain_timeout_seconds <= 0:
            raise ValueError("drain_timeout_seconds must be positive")
