"""Serving tier: hot-node cache, node-adaptive depth, coalescing, faults.

The load-bearing property throughout is *bit identity*: whatever path a
query takes — direct gather, cache hit, cache miss, coalesced micro-batch,
adaptive-depth truncation, injected cache bypass — the returned block must
equal the reference ``store.gather_packed`` values (post-truncation when
adaptive depth is on) byte for byte.
"""

from __future__ import annotations

import contextlib
import os
import signal
import sys
import threading
import time
from concurrent.futures import wait as futures_wait

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hardware.memory import MemoryDevice
from repro.hardware.spec import DeviceSpec
from repro.resilience.faultinject import FaultPlan, FaultSpec, InjectedFault
from repro.resilience.janitor import sweep_orphans
from repro.resilience.supervisor import SupervisorPolicy
from repro.serving import (
    DeadlineExceeded,
    DispatcherFailed,
    HopCache,
    NodeAdaptiveDepth,
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
    with ServingEngine(prepared_store.store, ServingConfig(cache_capacity=128)) as eng:
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
# hot-node cache
# =========================================================================== #
class TestHopCache:
    def make(self, capacity=3, policy="lru"):
        return HopCache(capacity, num_matrices=2, feature_dim=4, dtype=np.float32, policy=policy)

    def block(self, value):
        return np.full((2, 4), value, dtype=np.float32)

    def test_round_trip_and_stats(self):
        cache = self.make()
        assert cache.get(7) is None
        cache.put(7, self.block(7))
        got = cache.get(7)
        assert np.array_equal(got, self.block(7))
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5
        assert len(cache) == 1 and 7 in cache

    def test_lru_evicts_least_recently_used(self):
        cache = self.make(capacity=2, policy="lru")
        cache.put(1, self.block(1))
        cache.put(2, self.block(2))
        cache.get(1)  # refresh 1; 2 becomes the LRU victim
        cache.put(3, self.block(3))
        assert 1 in cache and 3 in cache and 2 not in cache
        assert cache.stats.evictions == 1

    def test_put_refresh_updates_value_and_recency(self):
        cache = self.make(capacity=2, policy="lru")
        cache.put(1, self.block(1))
        cache.put(2, self.block(2))
        cache.put(1, self.block(10))  # refresh: 2 is now oldest
        cache.put(3, self.block(3))
        assert 2 not in cache
        assert np.array_equal(cache.get(1), self.block(10))

    def test_clock_grants_second_chance(self):
        cache = self.make(capacity=2, policy="clock")
        cache.put(1, self.block(1))
        cache.put(2, self.block(2))
        cache.get(1)
        cache.get(2)
        # both referenced: the hand clears slot 0's bit first, then slot 1's,
        # wraps, and evicts slot 0's occupant (node 1)
        cache.put(3, self.block(3))
        assert 3 in cache and len(cache) == 2
        assert cache.stats.evictions == 1
        # every resident entry still returns its own values
        for row in (3, *(r for r in (1, 2) if r in cache)):
            assert np.array_equal(cache.get(row), self.block(row))

    @pytest.mark.parametrize("policy", ["lru", "clock"])
    def test_fill_beyond_capacity_keeps_len_bounded(self, policy):
        cache = self.make(capacity=4, policy=policy)
        for row in range(20):
            cache.put(row, self.block(row))
        assert len(cache) == 4
        assert cache.stats.evictions == 16
        for row in list(range(20)):
            got = cache.get(row)
            if got is not None:
                assert np.array_equal(got, self.block(row))

    def test_clear_resets_everything(self):
        cache = self.make()
        cache.put(1, self.block(1))
        cache.get(1)
        cache.clear()
        assert len(cache) == 0 and cache.stats.lookups == 0
        assert cache.get(1) is None

    def test_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            self.make(capacity=0)
        with pytest.raises(ValueError, match="policy"):
            self.make(policy="mru")

    @staticmethod
    def state(cache):
        """Everything that decides future hits, victims and returned bytes."""
        resident = sorted(cache._slot_of.values())
        return (
            list(cache._slot_of.items()),  # row -> slot, in LRU order under lru
            list(cache._node_of),
            cache._referenced.tolist(),
            cache._hand,
            list(cache._free),
            cache.stats.snapshot(),
            cache._slab[:, resident, :].tobytes(),
        )

    @settings(max_examples=150, deadline=None)
    @given(
        policy=st.sampled_from(["lru", "clock"]),
        capacity=st.integers(1, 6),
        ops=st.lists(
            st.tuples(
                st.sampled_from(["get", "put", "invalidate"]),
                # up to 12 rows against a capacity of at most 6: batches that overflow the cache
                st.lists(st.integers(0, 11), max_size=12),
            ),
            max_size=12,
        ),
    )
    def test_batch_ops_match_per_row_reference(self, policy, capacity, ops):
        batched = self.make(capacity, policy)
        reference = self.make(capacity, policy)
        for step, (op, rows) in enumerate(ops):
            if op == "get":
                out = np.full((2, len(rows), 4), -1.0, dtype=np.float32)
                misses = batched.get_many(rows, out)
                expected = [reference.get(row) for row in rows]
                assert misses == [i for i, block in enumerate(expected) if block is None]
                for i, block in enumerate(expected):
                    if block is not None:
                        assert np.array_equal(out[:, i, :], block)
            elif op == "put":
                rows = list(dict.fromkeys(rows))  # put_many takes distinct rows
                blocks = np.empty((2, len(rows), 4), dtype=np.float32)
                blocks[:] = 100 * step + np.asarray(rows, dtype=np.float32)[None, :, None]
                batched.put_many(rows, blocks)
                for i, row in enumerate(rows):
                    reference.put(row, blocks[:, i, :])
            else:
                assert batched.invalidate(rows) == reference.invalidate(rows)
            assert self.state(batched) == self.state(reference)

    @pytest.mark.parametrize("policy", ["lru", "clock"])
    def test_put_many_longer_than_capacity_keeps_only_its_tail(self, policy):
        cache = self.make(capacity=3, policy=policy)
        rows = list(range(8))
        blocks = np.stack([self.block(row) for row in rows], axis=1)
        cache.put_many(rows, blocks)
        assert sorted(cache._slot_of) == [5, 6, 7]  # as with one-by-one puts
        assert cache.stats.insertions == 8 and cache.stats.evictions == 5
        out = np.empty((2, 8, 4), dtype=np.float32)
        assert cache.get_many(rows, out) == [0, 1, 2, 3, 4]
        assert np.array_equal(out[:, 5:, :], blocks[:, 5:, :])


# =========================================================================== #
# node-adaptive depth
# =========================================================================== #
class TestNodeAdaptiveDepth:
    def test_higher_scores_get_shallower_depth(self):
        scores = np.arange(100, dtype=np.float64)
        depth = NodeAdaptiveDepth.from_scores(scores, num_hops=3, min_depth=1)
        assert depth.depths.min() == 1 and depth.depths.max() == 3
        # monotone: sorting by score never increases depth
        order = np.argsort(scores)
        assert np.all(np.diff(depth.depths[order]) <= 0)

    def test_uniform_scores_keep_full_depth(self):
        depth = NodeAdaptiveDepth.from_scores(np.ones(50), num_hops=3)
        assert depth.is_trivial()
        assert np.all(depth.depths == 3)

    def test_truncate_matches_manual_reference(self):
        rng = np.random.default_rng(3)
        num_hops, num_kernels, feat = 3, 2, 5
        per = num_hops + 1
        depths = rng.integers(1, num_hops + 1, size=30)
        depth = NodeAdaptiveDepth(depths, num_hops=num_hops, num_kernels=num_kernels)
        block = rng.standard_normal((num_kernels * per, 12, feat)).astype(np.float32)
        rows = rng.integers(0, 30, size=12)
        expected = block.copy()
        for col, row in enumerate(rows):
            for k in range(num_kernels):
                for hop in range(depths[row] + 1, per):
                    expected[k * per + hop, col] = expected[k * per + depths[row], col]
        got = depth.truncate(block.copy(), rows)
        assert np.array_equal(got, expected)

    def test_from_graph_uses_out_degree(self, small_dataset, prepared_store):
        store = prepared_store.store
        depth = NodeAdaptiveDepth.from_graph(
            small_dataset.graph, store.node_ids, num_hops=store.num_hops
        )
        assert depth.depths.shape == (store.num_rows,)
        degrees = small_dataset.graph.out_degree(store.node_ids)
        # the highest-degree row must sit in the shallowest occupied band
        assert depth.depths[np.argmax(degrees)] == depth.depths.min()

    def test_validation(self):
        with pytest.raises(ValueError, match="min_depth"):
            NodeAdaptiveDepth.from_scores(np.ones(5), num_hops=2, min_depth=3)
        with pytest.raises(ValueError, match="quantiles"):
            NodeAdaptiveDepth.from_scores(np.ones(5), num_hops=2, quantiles=(0.0, 0.5))
        with pytest.raises(ValueError, match="depths"):
            NodeAdaptiveDepth(np.array([5]), num_hops=3, num_kernels=1)


# =========================================================================== #
# serving config
# =========================================================================== #
class TestServingConfig:
    def test_defaults_valid(self):
        ServingConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"cache_policy": "fifo"},
            {"cache_capacity": 0},
            {"cache_fraction": 0.0},
            {"min_depth": -1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ServingConfig(**kwargs)

    def test_capacity_resolution_order(self):
        entry = 1024
        assert ServingConfig(cache_capacity=7).resolve_cache_capacity(entry) == 7
        assert ServingConfig(cache_bytes=10 * entry).resolve_cache_capacity(entry) == 10
        assert ServingConfig(cache_policy="none").resolve_cache_capacity(entry) == 0
        assert (
            ServingConfig().resolve_cache_capacity(entry)
            == ServingConfig.DEFAULT_CACHE_CAPACITY
        )

    def test_capacity_from_host_headroom(self):
        host = MemoryDevice(DeviceSpec(name="host", capacity_bytes=1024**2, bandwidth=1e9))
        entry = 1024
        config = ServingConfig(cache_fraction=0.5)
        assert config.resolve_cache_capacity(entry, host) == host.fit_count(entry, 0.5)
        assert host.fit_count(entry, 0.5) == 512
        with pytest.raises(ValueError):
            host.fit_count(0)


# =========================================================================== #
# engine correctness: every path bit-identical to the store
# =========================================================================== #
class TestServingCorrectness:
    def test_direct_fetch_query_match_store(self, engine, prepared_store):
        store = prepared_store.store
        rows = zipfian_rows(store.num_rows, 200, seed=1)
        reference = store.gather_packed(np.asarray(rows, dtype=np.int64))
        assert np.array_equal(engine.gather_direct(rows), reference)
        assert np.array_equal(engine.fetch(rows), reference)  # cold cache
        assert np.array_equal(engine.fetch(rows), reference)  # warm cache
        assert np.array_equal(engine.query(rows), reference)  # coalesced
        assert engine.cache.stats.hits > 0

    def test_cache_disabled_still_identical(self, prepared_store):
        store = prepared_store.store
        rows = zipfian_rows(store.num_rows, 100, seed=2)
        reference = store.gather_packed(np.asarray(rows, dtype=np.int64))
        with ServingEngine(store, ServingConfig(cache_policy="none")) as eng:
            assert eng.cache is None
            assert np.array_equal(eng.fetch(rows), reference)
            assert np.array_equal(eng.query(rows), reference)

    @pytest.mark.parametrize("policy", ["lru", "clock"])
    def test_tiny_cache_thrashing_stays_identical(self, prepared_store, policy):
        store = prepared_store.store
        rows = zipfian_rows(store.num_rows, 300, seed=3)
        reference = store.gather_packed(np.asarray(rows, dtype=np.int64))
        config = ServingConfig(cache_policy=policy, cache_capacity=8)
        with ServingEngine(store, config) as eng:
            for _ in range(2):
                assert np.array_equal(eng.fetch(rows), reference)
            assert eng.cache.stats.evictions > 0

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

    def test_adaptive_depth_identical_across_paths(self, small_dataset, prepared_store):
        store = prepared_store.store
        config = ServingConfig(adaptive_depth=True, min_depth=1, cache_capacity=64)
        rows = zipfian_rows(store.num_rows, 150, seed=4)
        with ServingEngine(store, config, graph=small_dataset.graph) as eng:
            assert not eng.depth_policy.is_trivial()
            reference = store.gather_packed(np.asarray(rows, dtype=np.int64)).copy()
            eng.depth_policy.truncate(reference, rows)
            assert np.array_equal(eng.gather_direct(rows), reference)
            assert np.array_equal(eng.fetch(rows), reference)  # miss path
            assert np.array_equal(eng.fetch(rows), reference)  # hit path
            assert np.array_equal(eng.query(rows), reference)

    def test_adaptive_depth_requires_graph(self, prepared_store):
        with pytest.raises(ValueError, match="graph"):
            ServingEngine(prepared_store.store, ServingConfig(adaptive_depth=True))

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
        with ServingEngine(store, ServingConfig(cache_policy="none")) as eng:
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
        config = ServingConfig(cache_policy="none")
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
        engine.fetch(rows[:50])  # part of the batch will hit the cache, part will miss
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
            cache_capacity=64,
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
        config = ServingConfig(cache_policy="none", gather_retries=0)
        plan = FaultPlan(specs=[FaultSpec(site="serve.gather", kind="error", at_hit=1)])
        with ServingEngine(store, config) as eng, plan.active():
            doomed = eng.submit(1)
            with pytest.raises(InjectedFault):
                doomed.result(timeout=10)
            assert eng.snapshot()["gather_errors"] == 1
            # the engine survives and the next query succeeds
            expected = store.gather_packed(np.array([1], dtype=np.int64))[:, 0, :]
            assert np.array_equal(eng.submit(1).result(timeout=10), expected)

    def test_cache_bypass_fault_forces_misses_with_identical_results(self, prepared_store):
        store = prepared_store.store
        rows = np.arange(6, dtype=np.int64)
        reference = store.gather_packed(rows)
        plan = FaultPlan(
            specs=[FaultSpec(site="serve.cache", kind="leak", at_hit=1, repeat=10_000)]
        )
        with ServingEngine(store, ServingConfig(cache_capacity=64)) as eng, plan.active():
            assert np.array_equal(eng.fetch(rows), reference)
            assert np.array_equal(eng.fetch(rows), reference)
            assert np.array_equal(eng.query(rows), reference)  # the dispatcher's batches too
            # every lookup was bypassed: nothing was inserted, nothing hit
            assert len(eng.cache) == 0
            assert eng.cache.stats.insertions == 0 and eng.cache.stats.lookups == 0

    def test_gather_ioerror_direct_path_propagates(self, prepared_store):
        plan = FaultPlan(specs=[FaultSpec(site="serve.gather", kind="ioerror", at_hit=1)])
        with ServingEngine(prepared_store.store, ServingConfig(cache_policy="none")) as eng:
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
    def test_engine_segment_is_tagged_and_unlinked(self, prepared_store):
        eng = ServingEngine(prepared_store.store, ServingConfig())
        name = eng._shared.handle.shm_name
        assert name is not None and "-serve-" in name
        assert os.path.exists(f"/dev/shm/{name}")
        eng.close()
        assert not os.path.exists(f"/dev/shm/{name}")

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

    def test_sigkilled_holder_is_swept_and_fresh_engine_reattaches(self, prepared_store):
        """SIGKILL a process holding a ppgnn-serve-* attach: the janitor must
        sweep its real /dev/shm segment and a fresh engine must come up clean."""
        import multiprocessing as mp

        ctx = mp.get_context("fork")
        queue = ctx.Queue()
        store = prepared_store.store

        def hold_an_attach():
            eng = ServingEngine(store, ServingConfig(watchdog=False))
            queue.put(eng._shared.handle.shm_name)
            time.sleep(60)  # SIGKILLed long before this returns

        process = ctx.Process(target=hold_an_attach, daemon=True)
        process.start()
        try:
            name = queue.get(timeout=30)
            assert name is not None and os.path.exists(f"/dev/shm/{name}")
            os.kill(process.pid, signal.SIGKILL)
            process.join(timeout=30)
        finally:
            if process.is_alive():  # pragma: no cover - cleanup on assert failure
                process.kill()
                process.join()
        swept = sweep_orphans()
        assert name in [path.name for path in swept]
        assert not os.path.exists(f"/dev/shm/{name}")
        # a fresh engine re-attaches and serves bit-identically
        rows = np.array([0, 5, 9], dtype=np.int64)
        with ServingEngine(store, ServingConfig()) as eng:
            assert np.array_equal(eng.fetch(rows), store.gather_packed(rows))


# =========================================================================== #
# admission control + backpressure
# =========================================================================== #
def quiet_config(**overrides):
    """No cache and no watchdog: for tests that park submissions in the pending
    queue behind :func:`held_dispatcher`, so admission, deadline and drain
    behavior can be observed deterministically."""
    defaults = dict(cache_policy="none", watchdog=False)
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
            cache_policy="none",
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
            cache_policy="none",
            gather_backoff_seconds=0.001,
            watchdog=False,
        )
        plan = FaultPlan(specs=[FaultSpec(site="serve.gather", kind="ioerror", at_hit=1)])
        with ServingEngine(store, config) as eng, plan.active():
            expected = store.gather_packed(np.array([2]))[:, 0, :]
            assert np.array_equal(eng.submit(2).result(timeout=10), expected)

    def test_persistent_fault_exhausts_budget_and_fails_futures(self, prepared_store):
        config = ServingConfig(
            cache_policy="none",
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
            cache_policy="none",
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
            cache_policy="none",
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
            cache_policy="none",
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
            cache_policy="none",
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
        config = ServingConfig(cache_policy="none", watchdog=False)
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
            cache_capacity=128,
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
