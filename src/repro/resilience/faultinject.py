"""Deterministic fault injection for the data-path recovery tests.

Every recovery path in the loader and the blocked propagation engine —
worker crash, worker stall, torn scratch write, leaked shared-memory
segment — must be exercised by tests, and none of them can be triggered
reliably by timing games.  Instead the production code carries **named
injection points**: cheap calls to :func:`fault_point` that are no-ops
unless a :class:`FaultPlan` is active in that process.

A plan is a list of :class:`FaultSpec` entries.  Each spec names a site
(e.g. ``"loader.worker.batch"``), a fault kind, the 1-based hit at which it
fires, and an optional context match (e.g. only ``worker_id == 0``, only
``generation == 0`` so a respawned worker is not re-killed).  Hit counters
are per-process and per ``(site, spec)``, so a plan pickled into a worker
process fires deterministically given the worker's deterministic workload.

Kinds:

``"kill"``
    ``SIGKILL`` the calling process — the injected analogue of an OOM-kill
    or preemption.  (Use only at worker-side sites; killing the parent takes
    the test session with it.)
``"stall"``
    Sleep ``stall_seconds`` at the site — a wedged worker, hung I/O.
``"ioerror"``
    Raise :class:`OSError` — a failed scratch/store write.
``"error"``
    Raise :class:`InjectedFault` — a generic crash at the site, used to
    interrupt the blocked engine at phase boundaries without nuking the
    test process.
``"leak"``
    Fire without side effect; the call site checks the returned spec and
    skips its cleanup (e.g. leaves a shared-memory segment linked) so the
    janitor path is testable.

Plans activate either process-globally (:func:`activate_plan`, or the
:meth:`FaultPlan.active` context manager) or by being passed explicitly
through a worker-pool constructor, which pickles the plan into each worker
and activates it there.  ``seed`` makes randomized plans reproducible:
:meth:`FaultPlan.randomized` draws the firing hits from a seeded RNG so a
stress run is replayable from its seed alone.
"""

from __future__ import annotations

import contextlib
import os
import signal
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "InjectedFault",
    "FaultSpec",
    "FaultPlan",
    "fault_point",
    "activate_plan",
    "FAULT_KINDS",
    "KNOWN_SITES",
    "UPDATE_SITES",
]

#: the fault kinds :func:`fault_point` knows how to apply
FAULT_KINDS = ("kill", "stall", "ioerror", "error", "leak")

#: injection sites wired into the data path (kept here so tests and
#: randomized plans cannot drift from the instrumented code)
KNOWN_SITES = (
    "loader.worker.batch",       # worker-side, before assembling one batch
    "blocked.phase.start",       # parent-side, before a (kernel, hop) phase
    "blocked.phase.complete",    # parent-side, after journaling a phase
    "blocked.scratch.write",     # before a scratch/store block write
    "shm.unlink",                # before unlinking a shared-memory segment
    "serve.gather",              # serving engine, before every store gather
    "serve.dispatch",            # dispatcher loop, after claiming a batch
    "serve.drain",               # dispatcher loop, on a batch claimed during close(drain=True)
    "update.apply",              # incremental update, before a store clone / patch write
    "update.swap",               # incremental update, before publishing / engine swap
    "update.journal",            # incremental update, before a journal append
)

#: the incremental-update subset of :data:`KNOWN_SITES` (chaos suites target these)
UPDATE_SITES = ("update.apply", "update.swap", "update.journal")


class InjectedFault(RuntimeError):
    """Raised by ``kind="error"`` faults; never raised by production code."""


@dataclass
class FaultSpec:
    """One planned fault: fire ``kind`` at the ``at_hit``-th matching visit."""

    site: str
    kind: str
    at_hit: int = 1
    match: Dict[str, object] = field(default_factory=dict)
    stall_seconds: float = 0.5
    #: how many matching visits fire after ``at_hit`` is reached (0 = just one)
    repeat: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}")
        if self.at_hit < 1:
            raise ValueError("at_hit is 1-based and must be >= 1")
        if self.stall_seconds < 0:
            raise ValueError("stall_seconds must be non-negative")

    def matches(self, context: Dict[str, object]) -> bool:
        return all(context.get(key) == value for key, value in self.match.items())


@dataclass
class FaultPlan:
    """A seeded, picklable set of faults plus per-process hit bookkeeping."""

    specs: List[FaultSpec] = field(default_factory=list)
    seed: int = 0
    #: per-spec count of matching visits in *this* process (rebuilt after pickle)
    _hits: Dict[int, int] = field(default_factory=dict, repr=False, compare=False)
    #: (site, kind, hit) tuples of faults fired in this process
    fired: List[Tuple[str, str, int]] = field(default_factory=list, repr=False, compare=False)

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_hits"] = {}  # hit counters are per-process by design
        state["fired"] = []
        return state

    # ------------------------------------------------------------------ #
    def consult(self, site: str, context: Dict[str, object]) -> Optional[FaultSpec]:
        """Record a visit to ``site``; return the spec that fires, if any."""
        for index, spec in enumerate(self.specs):
            if spec.site != site or not spec.matches(context):
                continue
            hits = self._hits.get(index, 0) + 1
            self._hits[index] = hits
            if spec.at_hit <= hits <= spec.at_hit + spec.repeat:
                self.fired.append((site, spec.kind, hits))
                return spec
        return None

    @contextlib.contextmanager
    def active(self):
        """Activate this plan process-globally for the duration of the block."""
        previous = activate_plan(self)
        try:
            yield self
        finally:
            activate_plan(previous)

    # ------------------------------------------------------------------ #
    @staticmethod
    def randomized(
        seed: int,
        sites: Sequence[str] = ("loader.worker.batch",),
        kinds: Sequence[str] = ("kill", "stall"),
        num_faults: int = 1,
        max_hit: int = 8,
        stall_seconds: float = 0.5,
        match: Optional[Dict[str, object]] = None,
    ) -> "FaultPlan":
        """Draw a reproducible plan from ``seed`` — same seed, same faults."""
        rng = np.random.default_rng(seed)
        specs = [
            FaultSpec(
                site=str(rng.choice(list(sites))),
                kind=str(rng.choice(list(kinds))),
                at_hit=int(rng.integers(1, max_hit + 1)),
                stall_seconds=stall_seconds,
                match=dict(match or {}),
            )
            for _ in range(num_faults)
        ]
        return FaultPlan(specs=specs, seed=seed)


# --------------------------------------------------------------------------- #
#: the plan consulted by :func:`fault_point` in this process (None = no-op)
_ACTIVE: Optional[FaultPlan] = None


def activate_plan(plan: Optional[FaultPlan]) -> Optional[FaultPlan]:
    """Install ``plan`` as this process's active plan; returns the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = plan
    return previous


def fault_point(
    site: str, plan: Optional[FaultPlan] = None, **context: object
) -> Optional[FaultSpec]:
    """Injection point: apply the planned fault for ``site``, if any.

    ``plan`` overrides the process-global active plan (worker pools pass the
    plan they were constructed with so it survives the process boundary).
    Returns the fired spec for advisory kinds (``"leak"``), raises for
    ``"ioerror"``/``"error"``, sleeps for ``"stall"``, and does not return
    for ``"kill"``.
    """
    plan = plan if plan is not None else _ACTIVE
    if plan is None:
        return None
    spec = plan.consult(site, context)
    if spec is None:
        return None
    if spec.kind == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
        # not reached; SIGKILL is not catchable
    elif spec.kind == "stall":
        time.sleep(spec.stall_seconds)
    elif spec.kind == "ioerror":
        raise OSError(f"injected I/O error at {site} (context {context})")
    elif spec.kind == "error":
        raise InjectedFault(f"injected fault at {site} (context {context})")
    return spec


def assert_known_sites(specs: Iterable[FaultSpec]) -> None:
    """Guard helper for tests: reject specs naming un-instrumented sites."""
    for spec in specs:
        if spec.site not in KNOWN_SITES:
            raise ValueError(f"unknown injection site {spec.site!r}; known: {KNOWN_SITES}")
