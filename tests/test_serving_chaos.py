"""Randomized fault chaos over the serving tier (the `serving-chaos` CI job).

Each case draws a reproducible :meth:`FaultPlan.randomized` plan over the
serving fault site — the store gather — and runs a concurrent workload
through a fully-armed engine (admission control, deadlines, retries).
Whatever the plan does — transient gather errors or I/O errors, a stalled
gather — the invariants are always the same:

* no hang: every wait in the test is bounded;
* no silent loss: every submitted future resolves to data or a typed error;
* no corruption: every block returned is bit-identical to the direct gather;
* the engine still answers afterwards, on its first try.

``kind="kill"`` is deliberately excluded: on the serving path a fault fires
in a *thread* of this process, so a SIGKILL would take down the test runner.
"""

from __future__ import annotations

import threading
from concurrent.futures import wait as futures_wait

import numpy as np
import pytest

from repro.resilience.faultinject import FaultPlan, InjectedFault
from repro.serving import OverloadError, ServingConfig, ServingEngine, ServingError

SEEDS = [0, 1, 2]

CHAOS_SITES = ("serve.gather",)
CHAOS_KINDS = ("error", "stall", "ioerror", "leak")


def chaos_config() -> ServingConfig:
    """Every resilience feature armed, tuned for sub-second recovery."""
    return ServingConfig(
        max_pending=64,
        shed_policy="reject",
        gather_retries=2,
        gather_backoff_seconds=0.001,
        drain_timeout_seconds=10.0,
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_randomized_faults_lose_no_request(prepared_store, seed):
    store = prepared_store.store
    plan = FaultPlan.randomized(
        seed,
        sites=CHAOS_SITES,
        kinds=CHAOS_KINDS,
        num_faults=3,
        max_hit=6,
        stall_seconds=0.4,
    )
    num_threads, per_thread = 4, 100
    rng = np.random.default_rng(seed)
    collected: list = []
    shed = [0] * num_threads
    lock = threading.Lock()

    def client(tid, rows):
        local, lost = [], 0
        for sent, row in enumerate(rows, start=1):
            try:
                local.append((int(row), eng.submit(int(row))))
            except OverloadError:
                lost += 1
            if sent % 16 == 0 and local:
                # stay in step with the dispatcher: the clients can submit
                # everything before it first runs, and a first batch that a
                # fault takes down would then be the whole workload
                futures_wait([local[-1][1]], timeout=30)
        with lock:
            collected.extend(local)
        shed[tid] = lost

    with ServingEngine(store, chaos_config()) as eng:
        with plan.active():
            threads = []
            for tid in range(num_threads):
                rows = rng.integers(0, store.num_rows, size=per_thread)
                threads.append(threading.Thread(target=client, args=(tid, rows)))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive(), "client thread hung"
            answered = failed = 0
            for row, future in collected:
                try:
                    block = future.result(timeout=30)
                except (ServingError, InjectedFault, OSError):
                    failed += 1  # typed or injected: accounted for, not lost
                    continue
                expected = store.gather_packed(np.array([row]))[:, 0, :]
                assert np.array_equal(block, expected), f"row {row} corrupted (seed {seed})"
                answered += 1
            assert answered + failed + sum(shed) == num_threads * per_thread
            assert answered > 0, f"seed {seed}: nothing was ever answered"
            assert plan.fired, f"seed {seed}: no fault of {plan.specs} ever fired"
        # chaos over: nothing degrades the engine, so it answers the first probe
        probe = eng.submit(0).result(timeout=30)
        assert np.array_equal(probe, store.gather_packed(np.array([0]))[:, 0, :])


@pytest.mark.parametrize("seed", SEEDS)
def test_randomized_faults_during_drain_close_is_bounded(prepared_store, seed):
    """Chaos aimed at close(drain=True): it must return within its budget and
    leave every future resolved (data or typed) — never a hung teardown."""
    store = prepared_store.store
    plan = FaultPlan.randomized(
        seed,
        sites=CHAOS_SITES,
        kinds=("error", "stall"),
        num_faults=2,
        max_hit=2,
        stall_seconds=0.4,
    )
    config = chaos_config()
    with plan.active():
        eng = ServingEngine(store, config)
        futures = [eng.submit(row) for row in range(16)]
        eng.close(drain=True, timeout=5.0)
    for future in futures:
        assert future.done(), f"seed {seed}: future left unresolved by close"
        exc = future.exception(timeout=0)
        assert exc is None or isinstance(exc, (ServingError, InjectedFault, OSError))
