"""Serving tier: coalescing, admission, faults.

The load-bearing property throughout is *bit identity*: whatever path a
query takes — direct gather, ``fetch``, coalesced micro-batch, inline
degraded answer — the returned block must equal the reference
``store.gather_packed`` values byte for byte.
"""

from __future__ import annotations

import contextlib
import dataclasses
import glob
import os
import signal
import sys
import threading
import time
from concurrent.futures import wait as futures_wait

import numpy as np
import pytest

from repro.resilience.faultinject import FaultPlan, FaultSpec, InjectedFault
from repro.resilience.janitor import sweep_orphans
from repro.resilience.supervisor import SupervisorPolicy
from repro.serving import (
    DeadlineExceeded,
    DispatcherFailed,
    OverloadError,
    ServingConfig,
    ServingEngine,
    ServingError,
)


def zipfian_rows(num_rows: int, size: int, a: float = 1.1, seed: int = 0) -> np.ndarray:
    """Skewed node-id traffic: rank-permuted power-law draw."""
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, num_rows + 1) ** a
    ranked = rng.choice(num_rows, size=size, p=weights / weights.sum())
    return rng.permutation(num_rows)[ranked]


@pytest.fixture()
def engine(prepared_store):
    with ServingEngine(prepared_store.store, ServingConfig()) as eng:
        yield eng


def wait_until(condition, what: str, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, f"timed out waiting until {what}"
        time.sleep(0.001)


@contextlib.contextmanager
def held_dispatcher(eng: ServingEngine):
    """Hold the dispatcher inside a gather for the duration of the block.

    The engine's last row is submitted as a plug and claimed as a batch of its
    own; its gather then waits for ``_gather_lock``, which this helper holds.
    Everything submitted inside the block stays pending — observable, with no
    timer involved — and leaves as one batch when the block exits.  The block
    must not call ``fetch``/``gather_direct`` (they need the same lock) and
    should not submit the plug row.  Yields the plug's future.
    """
    plug = eng.num_rows - 1
    with eng._gather_lock:
        plugged = eng.submit(plug, deadline_seconds=60.0)
        wait_until(lambda: plug in eng._inflight, "the dispatcher claims the plug row")
        yield plugged


def close_in_background(eng: ServingEngine, **kwargs) -> threading.Thread:
    """Start ``eng.close(**kwargs)`` on a thread; return once admission has stopped.

    ``close`` waits for the dispatcher, so under :func:`held_dispatcher` it
    cannot run on the thread that holds the gather lock.
    """
    closer = threading.Thread(target=eng.close, kwargs=kwargs)
    closer.start()
    wait_until(lambda: eng.health()["draining"] or eng.health()["closed"], "close() stops admission")
    return closer


def join_closer(closer: threading.Thread) -> None:
    closer.join(timeout=30)
    assert not closer.is_alive(), "close() hung"


# =========================================================================== #
# serving config
# =========================================================================== #
class TestServingConfig:
    def test_defaults_valid(self):
        ServingConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"admission_timeout_seconds": 0},
            {"latency_window": 0},
            {"max_pending": 0},
            {"shed_policy": "drop"},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ServingConfig(**kwargs)

    def test_bench_shaped_cache_fields_still_serve_identically(self, prepared_store, small_dataset):
        """The ignored cache fields and ``graph=`` keep parsing until ``bench/``
        stops passing them."""
        store = prepared_store.store
        rows = zipfian_rows(store.num_rows, 100, seed=2)
        reference = store.gather_packed(np.asarray(rows, dtype=np.int64))
        bench_shaped = ServingConfig(
            cache_policy="lru", cache_capacity=64, default_deadline_seconds=10.0
        )
        for config in (bench_shaped, dataclasses.replace(bench_shaped, cache_policy="none")):
            with ServingEngine(store, config, graph=small_dataset.graph) as eng:
                assert np.array_equal(eng.fetch(rows), reference)
                assert np.array_equal(eng.query(rows), reference)
                assert "cache" not in eng.snapshot() and "cache" not in eng.health()


# =========================================================================== #
# engine correctness: every path bit-identical to the store
# =========================================================================== #
class TestServingCorrectness:
    def test_direct_fetch_query_match_store(self, engine, prepared_store):
        store = prepared_store.store
        rows = zipfian_rows(store.num_rows, 200, seed=1)
        reference = store.gather_packed(np.asarray(rows, dtype=np.int64))
        assert np.array_equal(engine.gather_direct(rows), reference)
        assert np.array_equal(engine.fetch(rows), reference)
        assert np.array_equal(engine.query(rows), reference)  # coalesced

    def test_fetch_duplicate_unsorted_ids_match_per_row_gathers(self, engine, prepared_store):
        store = prepared_store.store
        rows = np.array([17, 3, 17, 0, store.num_rows - 1, 3, 3, 9], dtype=np.int64)
        got = engine.fetch(rows)
        assert got.shape == (store.num_matrices, rows.size, store.feature_dim)
        assert got.tobytes() == engine.gather_direct(rows).tobytes()
        for i, row in enumerate(rows):
            expected = store.gather_packed(np.array([row], dtype=np.int64))[:, 0, :]
            assert got[:, i, :].tobytes() == expected.tobytes()
        assert engine.fetch([]).shape == (store.num_matrices, 0, store.feature_dim)

    def test_concurrent_zipfian_queries_match_single_node_gathers(self, engine, prepared_store):
        store = prepared_store.store
        per_thread = [zipfian_rows(store.num_rows, 80, seed=s) for s in range(4)]
        failures: list = []

        def worker(rows):
            try:
                futures = [engine.submit(int(row)) for row in rows]
                for row, future in zip(rows, futures):
                    expected = store.gather_packed(np.array([row], dtype=np.int64))[:, 0, :]
                    got = future.result(timeout=10)
                    if not np.array_equal(got, expected):
                        failures.append(int(row))
            except Exception as exc:  # pragma: no cover - surfaced via assert
                failures.append(exc)

        threads = [threading.Thread(target=worker, args=(rows,)) for rows in per_thread]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures
        snap = engine.snapshot()
        assert snap["requests"] == 4 * 80
        # skewed ids across 4 threads must coalesce at least once
        assert snap["coalesced_window"] + snap["coalesced_inflight"] > 0

    def test_submit_validates_row_range(self, engine):
        with pytest.raises(IndexError):
            engine.submit(engine.num_rows)
        with pytest.raises(IndexError):
            engine.submit(-1)

    def test_latency_drain(self, engine):
        engine.query(np.arange(10))
        latencies = engine.drain_latencies()
        assert latencies.size == 10
        assert np.all(latencies >= 0)
        assert engine.drain_latencies().size == 0


# =========================================================================== #
# coalescing mechanics
# =========================================================================== #
class TestCoalescing:
    def test_window_dedup_collapses_duplicate_ids(self, prepared_store):
        store = prepared_store.store
        with ServingEngine(store, ServingConfig()) as eng:
            # the dispatcher is busy: every submission joins the one batch forming behind it
            with held_dispatcher(eng):
                futures = [eng.submit(row % 5) for row in range(50)]
            results = [f.result(timeout=10) for f in futures]
            snap = eng.snapshot()
            assert snap["batches"] == 2  # the plug's, then everything that waited
            assert snap["coalesced_window"] == 45  # 50 requests over 5 distinct ids
            for row, got in zip(range(50), results):
                expected = store.gather_packed(np.array([row % 5], dtype=np.int64))[:, 0, :]
                assert np.array_equal(got, expected)

    def test_inflight_join_shares_the_running_gather(self, prepared_store):
        store = prepared_store.store
        config = ServingConfig()
        # stall the first gather long enough for a duplicate submit to arrive
        plan = FaultPlan(specs=[FaultSpec(site="serve.gather", kind="stall", at_hit=1, stall_seconds=0.3)])
        with ServingEngine(store, config) as eng, plan.active():
            first = eng.submit(3)
            deadline = 50
            while eng.stats.batches == 0 and not eng._inflight and deadline:
                threading.Event().wait(0.01)
                deadline -= 1
            joined = eng.submit(3)  # id 3 is mid-gather: must join, not re-gather
            expected = store.gather_packed(np.array([3], dtype=np.int64))[:, 0, :]
            assert np.array_equal(first.result(timeout=10), expected)
            assert np.array_equal(joined.result(timeout=10), expected)
            assert eng.snapshot()["coalesced_inflight"] == 1

    def test_idle_engine_answers_each_request_in_its_own_batch(self, engine, prepared_store):
        store = prepared_store.store
        rows = zipfian_rows(store.num_rows, 40, seed=5)
        for row in rows:
            expected = store.gather_packed(np.array([row]))[:, 0, :]
            assert np.array_equal(engine.submit(int(row)).result(timeout=10), expected)
        snap = engine.snapshot()
        # nobody waits for company: one hand-off per request, nothing to coalesce with
        assert snap["batches"] == len(rows)
        assert snap["coalesced_window"] == 0 and snap["coalesced_inflight"] == 0

    def test_everything_submitted_during_a_dispatch_leaves_as_one_batch(
        self, engine, prepared_store
    ):
        store = prepared_store.store
        rows = zipfian_rows(store.num_rows - 1, 300, seed=6)  # never the plug row
        with held_dispatcher(engine):
            futures = [engine.submit(int(row)) for row in rows]
            assert engine.health()["queue_depth"] == np.unique(rows).size
        reference = store.gather_packed(rows)
        for i, future in enumerate(futures):
            assert np.array_equal(future.result(timeout=10), reference[:, i, :])
        snap = engine.snapshot()
        assert snap["batches"] == 2  # the plug's, then the one that formed behind it
        assert snap["coalesced_window"] == rows.size - np.unique(rows).size
        assert snap["coalesced_inflight"] == 0

    @pytest.mark.parametrize("max_pending", [None, 1])
    def test_no_wakeup_is_lost_between_clients_and_dispatcher(self, prepared_store, max_pending):
        """Two clients in lock-step with the dispatcher: every hand-off is a
        notify that must reach a thread which may be just about to wait."""
        store = prepared_store.store
        config = ServingConfig(
            max_pending=max_pending,
            shed_policy="block",
            admission_timeout_seconds=5.0,
        )
        per_client = 5000
        failures: list = []

        def client(seed):
            rows = np.random.default_rng(seed).integers(0, store.num_rows, size=per_client)
            try:
                for row in rows.tolist():
                    eng.submit(row).result(timeout=5)
            except BaseException as exc:  # surfaced by the assert below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ServingEngine(store, config) as eng:
                threads = [threading.Thread(target=client, args=(seed,)) for seed in range(2)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                    assert not thread.is_alive(), "client thread hung"
                assert not failures, failures[:3]
                snap = eng.snapshot()
                assert snap["requests"] == 2 * per_client
                assert snap["shed"] == 0 and snap["expired"] == 0
        finally:
            sys.setswitchinterval(interval)

    def test_submit_after_close_raises(self, prepared_store):
        eng = ServingEngine(prepared_store.store, ServingConfig())
        eng.close()
        with pytest.raises(RuntimeError, match="closed"):
            eng.submit(0)
        eng.close()  # idempotent


# =========================================================================== #
# fault injection on the serving path
# =========================================================================== #
class TestServingFaults:
    def test_gather_error_fails_futures_but_not_engine(self, prepared_store):
        store = prepared_store.store
        # retries off: a single injected fault must surface to the caller
        config = ServingConfig(gather_retries=0)
        plan = FaultPlan(specs=[FaultSpec(site="serve.gather", kind="error", at_hit=1)])
        with ServingEngine(store, config) as eng, plan.active():
            doomed = eng.submit(1)
            with pytest.raises(InjectedFault):
                doomed.result(timeout=10)
            assert eng.snapshot()["gather_errors"] == 1
            # the engine survives and the next query succeeds
            expected = store.gather_packed(np.array([1], dtype=np.int64))[:, 0, :]
            assert np.array_equal(eng.submit(1).result(timeout=10), expected)

    @pytest.mark.parametrize("model_name", ["sgc", "sign"])
    def test_predict_reads_model_inputs_and_keeps_the_fault_point(
        self, prepared_store, small_dataset, model_name
    ):
        from repro.models.registry import build_pp_model

        store = prepared_store.store
        model = build_pp_model(
            model_name, small_dataset.num_features, small_dataset.num_classes, num_hops=2, seed=0
        ).to(store.dtype)
        rows = np.array([5, 0, 17, 5, store.num_rows - 1], dtype=np.int64)
        plan = FaultPlan(specs=[FaultSpec(site="serve.gather", kind="ioerror", at_hit=1)])
        with ServingEngine(store, ServingConfig(), model=model) as eng:
            with plan.active(), pytest.raises(OSError):
                eng.predict(rows)
            got = eng.predict(rows)
        model.eval()
        expected = np.argmax(model(store.gather_packed(rows)).data, axis=-1)
        assert np.array_equal(got, expected)
        shallow = build_pp_model(
            model_name, small_dataset.num_features, small_dataset.num_classes, num_hops=1, seed=0
        )
        with pytest.raises(ValueError, match="expects 2 hop matrices"):
            ServingEngine(store, ServingConfig(), model=shallow)

    def test_gather_ioerror_direct_path_propagates(self, prepared_store):
        plan = FaultPlan(specs=[FaultSpec(site="serve.gather", kind="ioerror", at_hit=1)])
        with ServingEngine(prepared_store.store, ServingConfig()) as eng:
            with plan.active(), pytest.raises(OSError):
                eng.gather_direct([0, 1])
            assert np.array_equal(
                eng.gather_direct([0, 1]),
                prepared_store.store.gather_packed(np.array([0, 1], dtype=np.int64)),
            )


# =========================================================================== #
# shared-memory lifecycle
# =========================================================================== #
class TestServingShm:
    def test_engine_reads_the_store_it_serves_and_creates_no_segment(self, prepared_store):
        """Constructing, answering with, swapping and closing an engine over an
        in-memory store — and SIGKILLing a process that holds one — leaves the
        ``/dev/shm/ppgnn-*`` set as it was: the engine gathers from the store
        object it was given, so no process boundary and no segment is involved."""
        import multiprocessing as mp

        from repro.prepropagation.store import FeatureStore, HopFeatures

        def segments():
            return set(glob.glob("/dev/shm/ppgnn-*"))

        store = prepared_store.store
        assert not store.is_file_backed
        rows = np.array([0, 5, 9, store.num_rows - 1], dtype=np.int64)
        before = segments()
        eng = ServingEngine(store, ServingConfig())
        try:
            assert segments() == before
            assert np.array_equal(eng.fetch(rows), store.gather_packed(rows))
            assert segments() == before
            patched = FeatureStore(
                HopFeatures(
                    store.node_ids.copy(),
                    store.packed_matrix() + 1,
                    num_kernels=store.num_kernels,
                )
            )
            eng.adopt_store(patched, version="v0001")
            assert segments() == before
            assert np.array_equal(eng.fetch(rows), patched.gather_packed(rows))
        finally:
            eng.close()
        assert segments() == before

        ctx = mp.get_context("fork")
        queue = ctx.Queue()

        def hold_an_engine():
            held = ServingEngine(store, ServingConfig(watchdog=False))
            queue.put(bool(np.array_equal(held.fetch(rows), store.gather_packed(rows))))
            time.sleep(60)  # SIGKILLed long before this returns

        process = ctx.Process(target=hold_an_engine, daemon=True)
        process.start()
        try:
            assert queue.get(timeout=30) is True
            assert segments() == before
            os.kill(process.pid, signal.SIGKILL)
            process.join(timeout=30)
        finally:
            if process.is_alive():  # pragma: no cover - cleanup on assert failure
                process.kill()
                process.join()
            queue.close()
        assert segments() == before

    def test_janitor_sweeps_dead_serving_segments(self, tmp_path):
        import multiprocessing as mp

        process = mp.get_context("fork").Process(target=lambda: None)
        process.start()
        process.join()
        orphan = tmp_path / f"ppgnn-serve-{process.pid}-deadbeef"
        live = tmp_path / f"ppgnn-serve-{os.getpid()}-cafebabe"
        orphan.write_bytes(b"x")
        live.write_bytes(b"x")
        assert sweep_orphans(shm_dir=tmp_path) == [orphan]
        assert not orphan.exists() and live.exists()
        live.unlink()


# =========================================================================== #
# admission control + backpressure
# =========================================================================== #
def quiet_config(**overrides):
    """No watchdog: for tests that park submissions in the pending
    queue behind :func:`held_dispatcher`, so admission, deadline and drain
    behavior can be observed deterministically."""
    defaults = dict(watchdog=False)
    defaults.update(overrides)
    return ServingConfig(**defaults)


class TestAdmissionControl:
    def test_reject_policy_sheds_with_typed_error(self, prepared_store):
        config = quiet_config(max_pending=4, shed_policy="reject")
        with ServingEngine(prepared_store.store, config) as eng:
            with held_dispatcher(eng):
                admitted = [eng.submit(row) for row in range(4)]
                with pytest.raises(OverloadError):
                    eng.submit(4)
                assert eng.snapshot()["shed"] == 1
                assert eng.health()["saturated"]
            for row, future in enumerate(admitted):
                expected = prepared_store.store.gather_packed(np.array([row]))[:, 0, :]
                assert np.array_equal(future.result(timeout=10), expected)

    def test_coalesced_joins_bypass_admission(self, prepared_store):
        config = quiet_config(max_pending=1, shed_policy="reject")
        with ServingEngine(prepared_store.store, config) as eng:
            with held_dispatcher(eng):
                first = eng.submit(5)
                joined = eng.submit(5)  # same id: no new gather work, always admitted
                assert eng.snapshot()["coalesced_window"] == 1
            assert np.array_equal(first.result(timeout=10), joined.result(timeout=10))

    def test_block_policy_times_out_with_typed_error(self, prepared_store):
        config = quiet_config(
            max_pending=1, shed_policy="block", admission_timeout_seconds=0.05
        )
        with ServingEngine(prepared_store.store, config) as eng, held_dispatcher(eng):
            eng.submit(0)
            start = time.monotonic()
            with pytest.raises(OverloadError):
                eng.submit(1)
            assert time.monotonic() - start >= 0.04
            assert eng.snapshot()["shed"] == 1

    def test_block_policy_admits_when_dispatcher_drains(self, prepared_store):
        config = quiet_config(
            max_pending=1, shed_policy="block", admission_timeout_seconds=10.0
        )
        store = prepared_store.store
        admitted: list = []
        with ServingEngine(store, config) as eng:
            blocked = threading.Thread(target=lambda: admitted.append(eng.submit(1)))
            with held_dispatcher(eng):
                first = eng.submit(0)  # fills the queue
                blocked.start()  # waits for space: the dispatcher is held
                time.sleep(0.05)
                assert not admitted
            # released: the dispatcher claims row 0, which frees the space
            blocked.join(timeout=10)
            assert not blocked.is_alive() and len(admitted) == 1
            for row, future in zip([0, 1], [first, admitted[0]]):
                expected = store.gather_packed(np.array([row]))[:, 0, :]
                assert np.array_equal(future.result(timeout=10), expected)
            assert eng.snapshot()["shed"] == 0

    def test_unbounded_queue_never_sheds(self, prepared_store):
        config = quiet_config(max_pending=None)
        with ServingEngine(prepared_store.store, config) as eng:
            with held_dispatcher(eng):
                futures = [eng.submit(row) for row in range(64)]
                assert eng.health()["queue_depth"] == 64
                assert eng.snapshot()["shed"] == 0
            for future in futures:
                future.result(timeout=10)


# =========================================================================== #
# per-request deadlines
# =========================================================================== #
class TestDeadlines:
    def test_expired_request_fails_typed_before_gather(self, prepared_store):
        with ServingEngine(prepared_store.store, quiet_config()) as eng:
            with held_dispatcher(eng) as plugged:
                doomed = eng.submit(3, deadline_seconds=0.02)  # expires while it waits
                time.sleep(0.05)
            with pytest.raises(DeadlineExceeded):
                doomed.result(timeout=10)
            plugged.result(timeout=10)
            assert eng.snapshot()["expired"] == 1
            assert eng.snapshot()["batches"] == 1  # the plug's: nothing was gathered for row 3

    def test_config_default_deadline_applies(self, prepared_store):
        config = quiet_config(default_deadline_seconds=0.02)
        with ServingEngine(prepared_store.store, config) as eng:
            with held_dispatcher(eng):
                doomed = eng.submit(3)
                time.sleep(0.05)
            with pytest.raises(DeadlineExceeded):
                doomed.result(timeout=10)

    def test_mixed_deadlines_on_one_entry(self, prepared_store):
        store = prepared_store.store
        with ServingEngine(store, quiet_config()) as eng:
            with held_dispatcher(eng):
                doomed = eng.submit(7, deadline_seconds=0.02)
                patient = eng.submit(7)  # coalesces onto the same entry, no deadline
                time.sleep(0.05)
            expected = store.gather_packed(np.array([7]))[:, 0, :]
            assert np.array_equal(patient.result(timeout=10), expected)
            with pytest.raises(DeadlineExceeded):
                doomed.result(timeout=10)


# =========================================================================== #
# transient-gather retry
# =========================================================================== #
class TestGatherRetry:
    def test_transient_error_is_retried_to_success(self, prepared_store):
        store = prepared_store.store
        config = ServingConfig(
            gather_retries=2,
            gather_backoff_seconds=0.001,
            watchdog=False,
        )
        plan = FaultPlan(specs=[FaultSpec(site="serve.gather", kind="error", at_hit=1)])
        with ServingEngine(store, config) as eng, plan.active():
            expected = store.gather_packed(np.array([1]))[:, 0, :]
            assert np.array_equal(eng.submit(1).result(timeout=10), expected)
            snap = eng.snapshot()
            assert snap["retried"] == 1
            assert snap["gather_errors"] == 0

    def test_transient_ioerror_is_retried_to_success(self, prepared_store):
        store = prepared_store.store
        config = ServingConfig(
            gather_backoff_seconds=0.001,
            watchdog=False,
        )
        plan = FaultPlan(specs=[FaultSpec(site="serve.gather", kind="ioerror", at_hit=1)])
        with ServingEngine(store, config) as eng, plan.active():
            expected = store.gather_packed(np.array([2]))[:, 0, :]
            assert np.array_equal(eng.submit(2).result(timeout=10), expected)

    def test_persistent_fault_exhausts_budget_and_fails_futures(self, prepared_store):
        config = ServingConfig(
            gather_retries=1,
            gather_backoff_seconds=0.001,
            watchdog=False,
        )
        plan = FaultPlan(
            specs=[FaultSpec(site="serve.gather", kind="error", at_hit=1, repeat=100)]
        )
        with ServingEngine(prepared_store.store, config) as eng:
            with plan.active():
                doomed = eng.submit(1)
                with pytest.raises(InjectedFault):
                    doomed.result(timeout=10)
            snap = eng.snapshot()
            assert snap["retried"] == 1
            assert snap["gather_errors"] == 1
            # the engine survives: next request (fault plan gone) succeeds
            expected = prepared_store.store.gather_packed(np.array([1]))[:, 0, :]
            assert np.array_equal(eng.submit(1).result(timeout=10), expected)


# =========================================================================== #
# dispatcher supervision (watchdog)
# =========================================================================== #
def eager_policy(max_respawns=2):
    return SupervisorPolicy(
        max_respawns=max_respawns,
        backoff_seconds=0.0,
        max_backoff_seconds=0.0,
        stall_timeout_seconds=5.0,
        batch_deadline_seconds=1.0,
    )


class TestWatchdog:
    def test_dispatcher_crash_fails_inflight_and_respawns(self, prepared_store):
        store = prepared_store.store
        config = ServingConfig(
            watchdog_interval_seconds=0.02,
            supervisor=eager_policy(),
        )
        plan = FaultPlan(specs=[FaultSpec(site="serve.dispatch", kind="error", at_hit=1)])
        with ServingEngine(store, config) as eng:
            with plan.active():
                doomed = eng.submit(1)
                with pytest.raises(DispatcherFailed):
                    doomed.result(timeout=10)
            snap = eng.snapshot()
            assert snap["dispatcher_crashes"] == 1
            assert snap["respawns"] == 1
            # the respawned dispatcher keeps serving
            expected = store.gather_packed(np.array([4]))[:, 0, :]
            assert np.array_equal(eng.submit(4).result(timeout=10), expected)
            health = eng.health()
            assert health["ready"] and not health["degraded"]
            assert health["watchdog"]["respawns_remaining"] == 1

    def test_stalled_dispatcher_is_detected_and_replaced(self, prepared_store):
        store = prepared_store.store
        config = ServingConfig(
            watchdog_interval_seconds=0.02,
            supervisor=SupervisorPolicy(
                max_respawns=2,
                backoff_seconds=0.0,
                max_backoff_seconds=0.0,
                stall_timeout_seconds=0.15,
                batch_deadline_seconds=0.05,
            ),
        )
        plan = FaultPlan(
            specs=[FaultSpec(site="serve.dispatch", kind="stall", at_hit=1, stall_seconds=1.0)]
        )
        with ServingEngine(store, config) as eng:
            with plan.active():
                doomed = eng.submit(1)
                with pytest.raises(DispatcherFailed):
                    doomed.result(timeout=10)
            assert eng.snapshot()["dispatcher_stalls"] == 1
            assert eng.snapshot()["respawns"] == 1
            expected = store.gather_packed(np.array([2]))[:, 0, :]
            assert np.array_equal(eng.submit(2).result(timeout=10), expected)

    def test_spent_budget_degrades_to_inline_gathers(self, prepared_store):
        store = prepared_store.store
        config = ServingConfig(
            watchdog_interval_seconds=0.02,
            supervisor=eager_policy(max_respawns=0),
        )
        plan = FaultPlan(specs=[FaultSpec(site="serve.dispatch", kind="error", at_hit=1)])
        with ServingEngine(store, config) as eng:
            with plan.active():
                doomed = eng.submit(1)
                with pytest.raises(DispatcherFailed):
                    doomed.result(timeout=10)
            # budget of zero: first crash degrades instead of respawning
            deadline = time.monotonic() + 10
            while not eng.health()["degraded"] and time.monotonic() < deadline:
                time.sleep(0.01)
            health = eng.health()
            assert health["degraded"] and health["live"] and health["ready"]
            assert eng.snapshot()["respawns"] == 0
            # degraded mode answers synchronously, bit-identically
            expected = store.gather_packed(np.array([6]))[:, 0, :]
            assert np.array_equal(eng.submit(6).result(timeout=10), expected)
            assert eng.snapshot()["inline_gathers"] >= 1

    def test_degradation_drains_stranded_pending_inline(self, prepared_store):
        store = prepared_store.store
        config = ServingConfig(
            watchdog_interval_seconds=0.02,
            supervisor=SupervisorPolicy(
                max_respawns=0,
                backoff_seconds=0.0,
                max_backoff_seconds=0.0,
                stall_timeout_seconds=0.15,
                batch_deadline_seconds=0.05,
            ),
        )
        plan = FaultPlan(
            specs=[FaultSpec(site="serve.dispatch", kind="stall", at_hit=1, stall_seconds=1.0)]
        )
        with ServingEngine(store, config) as eng:
            with plan.active():
                doomed = eng.submit(1)  # claimed, then the dispatcher stalls on it
                time.sleep(0.05)
                stranded = [eng.submit(row) for row in (2, 3)]  # left pending
                with pytest.raises(DispatcherFailed):
                    doomed.result(timeout=10)
                # stranded entries are answered inline at degradation, with data
                for row, future in zip((2, 3), stranded):
                    expected = store.gather_packed(np.array([row]))[:, 0, :]
                    assert np.array_equal(future.result(timeout=10), expected)
            assert eng.health()["degraded"]


# =========================================================================== #
# graceful drain + close
# =========================================================================== #
class TestDrainAndClose:
    def test_drain_flushes_pending_bit_identically(self, prepared_store):
        store = prepared_store.store
        with ServingEngine(store, quiet_config()) as eng:
            with held_dispatcher(eng):
                futures = {row: eng.submit(row) for row in range(8)}
                closer = close_in_background(eng, drain=True, timeout=30)
            join_closer(closer)
            for row, future in futures.items():
                expected = store.gather_packed(np.array([row]))[:, 0, :]
                assert np.array_equal(future.result(timeout=0), expected)

    def test_close_without_drain_fails_pending_typed(self, prepared_store):
        with ServingEngine(prepared_store.store, quiet_config()) as eng:
            with held_dispatcher(eng) as plugged:
                future = eng.submit(1)
                closer = close_in_background(eng, drain=False)
                # pending and claimed work alike fail before close() returns
                for doomed in (future, plugged):
                    with pytest.raises(RuntimeError, match="closed before dispatch"):
                        doomed.result(timeout=10)
            join_closer(closer)

    def test_close_without_drain_fails_claimed_inflight_batch(self, prepared_store):
        # the batch is already claimed (mid-gather) when close lands: its
        # futures must still resolve typed, not hang unresolved forever
        config = ServingConfig(watchdog=False)
        plan = FaultPlan(
            specs=[FaultSpec(site="serve.gather", kind="stall", at_hit=1, stall_seconds=0.5)]
        )
        with plan.active():
            eng = ServingEngine(prepared_store.store, config)
            future = eng.submit(1)
            time.sleep(0.05)  # let the dispatcher claim it and stall in the gather
            eng.close(drain=False)
        assert future.done()
        with pytest.raises(RuntimeError, match="closed before dispatch"):
            future.result(timeout=0)

    def test_drain_deadline_fails_stragglers_typed(self, prepared_store):
        plan = FaultPlan(
            specs=[FaultSpec(site="serve.drain", kind="stall", at_hit=1, stall_seconds=1.0)]
        )
        with ServingEngine(prepared_store.store, quiet_config()) as eng, plan.active():
            start = time.monotonic()
            with held_dispatcher(eng):
                future = eng.submit(1)  # still pending at close: claimed as a drain batch
                closer = close_in_background(eng, drain=True, timeout=0.1)
            join_closer(closer)
            assert time.monotonic() - start < 5.0  # bounded, despite the stall
            with pytest.raises(DeadlineExceeded):
                future.result(timeout=0)

    def test_submissions_rejected_while_draining_and_after_close(self, prepared_store):
        eng = ServingEngine(prepared_store.store, ServingConfig())
        eng.close()
        with pytest.raises(RuntimeError, match="closed"):
            eng.submit(0)
        eng.close()  # idempotent

    def test_dispatcher_killed_mid_drain_still_resolves_every_future(self, prepared_store):
        config = quiet_config(
            watchdog=True,
            watchdog_interval_seconds=0.02,
            supervisor=eager_policy(),
        )
        plan = FaultPlan(specs=[FaultSpec(site="serve.drain", kind="error", at_hit=1)])
        with ServingEngine(prepared_store.store, config) as eng, plan.active():
            with held_dispatcher(eng):
                futures = [eng.submit(row) for row in range(4)]
                closer = close_in_background(eng, drain=True, timeout=30)
            join_closer(closer)
            # no future may be left unresolved: data or a typed serving error
            for future in futures:
                assert future.done()
                exc = future.exception(timeout=0)
                assert exc is None or isinstance(exc, ServingError)


# =========================================================================== #
# health snapshots
# =========================================================================== #
class TestHealth:
    def test_fresh_engine_is_ready_and_live(self, engine):
        health = engine.health()
        assert health["ready"] and health["live"]
        assert not health["degraded"] and not health["draining"] and not health["closed"]
        assert health["queue_depth"] == 0 and health["inflight"] == 0
        assert health["watchdog"]["enabled"] and health["watchdog"]["dispatcher_alive"]
        assert health["watchdog"]["respawns"] == 0
        assert health["shed_rate"] == 0.0

    def test_saturation_is_visible(self, prepared_store):
        config = quiet_config(max_pending=2)
        with ServingEngine(prepared_store.store, config) as eng, held_dispatcher(eng):
            eng.submit(0)
            eng.submit(1)
            health = eng.health()
            assert health["queue_depth"] == 2 and health["saturated"]
            assert health["inflight"] == 1  # the plug

    def test_closed_engine_reports_not_ready(self, prepared_store):
        eng = ServingEngine(prepared_store.store, ServingConfig())
        eng.close()
        health = eng.health()
        assert health["closed"] and not health["ready"] and not health["live"]


# =========================================================================== #
# query() cleanup (no leaked futures)
# =========================================================================== #
class TestQueryCleanup:
    def test_timeout_abandons_remaining_futures(self, prepared_store):
        with ServingEngine(prepared_store.store, quiet_config()) as eng, held_dispatcher(eng):
            with pytest.raises(TimeoutError):
                eng.query([1, 2, 3], timeout=0.05)
            with eng._cond:
                assert len(eng._pending) == 0  # nothing left enqueued

    def test_shed_mid_query_abandons_admitted_futures(self, prepared_store):
        config = quiet_config(max_pending=2, shed_policy="reject")
        with ServingEngine(prepared_store.store, config) as eng, held_dispatcher(eng):
            with pytest.raises(OverloadError):
                eng.query([0, 1, 2])  # third submit sheds; first two must not leak
            with eng._cond:
                assert len(eng._pending) == 0


# =========================================================================== #
# end-to-end overload + chaos acceptance
# =========================================================================== #
class TestOverloadEndToEnd:
    def test_overload_with_faults_loses_no_request(self, prepared_store):
        """Saturated admission, then concurrent offered load over a small
        admission bound with one transient gather fault and one dispatcher kill:
        every submission must be shed or resolve to data or a typed serving
        error, accepted data must be bit-identical to direct gathers, and the
        engine must still be serving afterwards."""
        store = prepared_store.store
        config = ServingConfig(
            max_pending=32,
            shed_policy="reject",
            gather_retries=2,
            gather_backoff_seconds=0.001,
            watchdog_interval_seconds=0.02,
            supervisor=eager_policy(max_respawns=3),
        )
        # kill the FIRST dispatch: heavy coalescing can drain the whole
        # workload in very few cycles, so any later at_hit may never fire
        plan = FaultPlan(
            specs=[
                FaultSpec(site="serve.gather", kind="error", at_hit=3),
                FaultSpec(site="serve.dispatch", kind="error", at_hit=1),
            ]
        )
        num_threads, per_thread = 4, 200
        outcomes = {"shed": 0, "data": 0, "typed": 0}
        lock = threading.Lock()
        collected = []

        def client(tid):
            rows = zipfian_rows(store.num_rows, per_thread, seed=tid)
            local = []
            shed = 0
            for sent, row in enumerate(rows, start=1):
                try:
                    local.append((int(row), eng.submit(int(row))))
                except OverloadError:
                    shed += 1
                if sent % 16 == 0 and local:
                    # stay in step with the dispatcher: the clients can submit
                    # everything before it first runs, and the batch that is
                    # killed would then be the whole workload
                    futures_wait([local[-1][1]], timeout=30)
            with lock:
                outcomes["shed"] += shed
                collected.extend(local)

        saturating = 2 * config.max_pending
        with ServingEngine(store, config) as eng:
            # saturate admission without a timer: while the dispatcher is held,
            # every distinct id past max_pending is shed at submit()
            with held_dispatcher(eng):
                for row in range(saturating):
                    try:
                        collected.append((row, eng.submit(row)))
                    except OverloadError:
                        outcomes["shed"] += 1
                assert outcomes["shed"] == saturating - config.max_pending
            # settled before the plan is armed, so its kill hits the clients' load
            futures_wait([future for _, future in collected], timeout=30)
            with plan.active():
                threads = [
                    threading.Thread(target=client, args=(tid,)) for tid in range(num_threads)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive(), "client thread hung"
                for row, future in collected:
                    try:
                        block = future.result(timeout=30)  # no hang: bounded waits
                    except ServingError:
                        outcomes["typed"] += 1
                        continue
                    expected = store.gather_packed(np.array([row]))[:, 0, :]
                    assert np.array_equal(block, expected)
                    outcomes["data"] += 1
                # every offered request is accounted for — none silently lost
                total = outcomes["shed"] + outcomes["data"] + outcomes["typed"]
                assert total == saturating + num_threads * per_thread
                assert outcomes["data"] > 0
                snap = eng.snapshot()
                assert snap["respawns"] >= 1  # the dispatcher kill was recovered
                assert snap["shed"] == outcomes["shed"]
                # and the engine keeps serving after the chaos
                expected = store.gather_packed(np.array([0]))[:, 0, :]
                assert np.array_equal(eng.submit(0).result(timeout=10), expected)
