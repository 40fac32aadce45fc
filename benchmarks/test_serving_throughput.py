"""Microbenchmark: online serving latency/QPS (emits BENCH_serving.json).

Serves single-node queries from a file-backed packed store (the deployment
shape: the pre-propagated block lives on storage and is memory-mapped by the
serving process) under a Zipfian load — the skewed traffic shape real
inference sees — and reports:

* ``cache`` — p50 single-node latency of the synchronous cache-aware
  ``fetch()`` path, cold (every lookup misses and pays the fused gather +
  cache fill) vs. hot (every lookup hits the hot-node cache).  The
  acceptance bar is the cache paying for itself: hot p50 at least
  ``CACHE_SPEEDUP_TARGET``x faster than cold.
* ``zipfian`` — throughput and latency through the coalescing ``submit()``
  path: ``NUM_REQUESTS`` Zipfian-distributed ids submitted with at most
  ``MAX_OUTSTANDING`` futures outstanding (a closed-loop client), reporting
  QPS plus p50/p99 per-request latency from the engine's own clock.
  Acceptance: >= ``QPS_TARGET`` QPS and p99 <= ``P99_LIMIT_MS`` ms.
* ``adaptive_depth`` — context row (not gated): cold-gather throughput with
  node-adaptive hop truncation on vs. off.
* ``overload`` — open-loop flood at roughly twice what the admission queue
  can drain, with a transient ``serve.gather`` fault and one dispatcher kill
  injected mid-run.  Gated invariants: every offered request is accounted
  for (data, typed error, or shed — zero silently lost), failures are typed
  serving errors only, the watchdog respawn keeps the engine serving, and
  p99 latency of *accepted* requests stays under
  ``OVERLOAD_P99_LIMIT_MS``.

Bit identity is asserted *and* recorded: concurrently submitted Zipfian
queries must return exactly the blocks ``store.gather_packed`` yields.

Methodology mirrors the loader benchmark: warm-up first, min/best over
``REPEATS``, and a retry loop before the acceptance asserts because the CI
containers are noisy.  Results go to ``BENCH_serving.json`` at the repo root.
"""

import tempfile
import threading
import time
from pathlib import Path

import numpy as np
from conftest import merge_report, run_once

from repro.datasets.registry import load_dataset
from repro.prepropagation.pipeline import PreprocessingPipeline
from repro.prepropagation.propagator import PropagationConfig
from repro.resilience.faultinject import FaultPlan, FaultSpec
from repro.resilience.supervisor import SupervisorPolicy
from repro.serving import OverloadError, ServingConfig, ServingEngine, ServingError

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_serving.json"

DATASET = "igb-medium"
NUM_NODES = 8000
HOPS = 3
CACHE_CAPACITY = 1024
ZIPF_A = 1.1
NUM_REQUESTS = 20000
MAX_OUTSTANDING = 2048
CACHE_SAMPLE = 1000
REPEATS = 3
IDENTITY_THREADS = 4
IDENTITY_PER_THREAD = 100

QPS_TARGET = 2000.0
# p99 in this closed-loop setup is dominated by self-inflicted queueing
# (MAX_OUTSTANDING requests race into each batch), measured ~33-41 ms on
# an idle container; the limit leaves headroom for noisy CI neighbours.
P99_LIMIT_MS = 100.0
CACHE_SPEEDUP_TARGET = 1.2

# overload row: a paced 4-thread open-loop client offering ~2x what the
# admission queue drains.  The dispatcher claims the whole queue whenever it is
# free, so the row throttles the store gather instead: a repeating injected
# stall makes every dispatch last OVERLOAD_STALL_SECONDS, during which at most
# max_pending distinct ids queue up — drain capacity is max_pending/stall ids
# per second, and offered load is set to twice that, making sustained shedding
# (and bounded accepted latency) the gate.
OVERLOAD_THREADS = 4
OVERLOAD_PER_THREAD = 3000
OVERLOAD_MAX_PENDING = 64
OVERLOAD_STALL_SECONDS = 0.005
OVERLOAD_FACTOR = 2.0  # offered / sustainable
# accepted p99 under overload adds queue wait (one 5 ms dispatch ahead, then
# its own) and one watchdog recovery (~tens of ms) on top of the gather itself
OVERLOAD_P99_LIMIT_MS = 150.0
OVERLOAD_IDENTITY_SAMPLE = 500


def zipfian_rows(num_rows: int, size: int, seed: int) -> np.ndarray:
    """Rank-permuted power-law node ids (p ∝ 1/rank^a)."""
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, num_rows + 1) ** ZIPF_A
    ranked = rng.choice(num_rows, size=size, p=weights / weights.sum())
    return rng.permutation(num_rows)[ranked]


def _measure_cache(engine: ServingEngine, rows: np.ndarray) -> dict:
    """p50 of single-node ``fetch()``: all-miss (cold) vs all-hit (hot)."""
    best = None
    for _ in range(REPEATS):
        engine.cache.clear()
        cold = np.empty(rows.size)
        for i, row in enumerate(rows):  # unique ids on a cleared cache: all misses
            began = time.perf_counter()
            engine.fetch([row])
            cold[i] = time.perf_counter() - began
        assert engine.cache.stats.misses == rows.size
        hot = np.empty(rows.size)
        for i, row in enumerate(rows):  # same ids again: all hits
            began = time.perf_counter()
            engine.fetch([row])
            hot[i] = time.perf_counter() - began
        assert engine.cache.stats.hits == rows.size
        sample = {
            "p50_cold_ms": float(np.percentile(cold, 50) * 1e3),
            "p50_hit_ms": float(np.percentile(hot, 50) * 1e3),
        }
        sample["p50_speedup_vs_cold"] = sample["p50_cold_ms"] / max(sample["p50_hit_ms"], 1e-9)
        if best is None or sample["p50_speedup_vs_cold"] > best["p50_speedup_vs_cold"]:
            best = sample
    best["sample_rows"] = int(rows.size)
    return best


def _measure_zipfian(engine: ServingEngine, seed: int) -> dict:
    """Closed-loop Zipfian client through the coalescing ``submit()`` path."""
    rows = zipfian_rows(engine.num_rows, NUM_REQUESTS, seed=seed)
    engine.cache.clear()
    # warm-up: prime the hot set and the coalescer thread's code paths
    for future in [engine.submit(int(row)) for row in rows[:MAX_OUTSTANDING]]:
        future.result(timeout=60)
    engine.drain_latencies()
    began = time.perf_counter()
    outstanding = []
    for row in rows:
        outstanding.append(engine.submit(int(row)))
        if len(outstanding) >= MAX_OUTSTANDING:
            for future in outstanding:
                future.result(timeout=60)
            outstanding.clear()
    for future in outstanding:
        future.result(timeout=60)
    wall = time.perf_counter() - began
    latencies = engine.drain_latencies()
    snap = engine.snapshot()
    return {
        "requests": NUM_REQUESTS,
        "wall_seconds": wall,
        "qps": NUM_REQUESTS / wall,
        "p50_ms": float(np.percentile(latencies, 50) * 1e3),
        "p99_ms": float(np.percentile(latencies, 99) * 1e3),
        "batches": snap["batches"],
        "coalesced_window": snap["coalesced_window"],
        "coalesced_inflight": snap["coalesced_inflight"],
        "cache_hit_rate": snap.get("cache", {}).get("hit_rate", 0.0),
    }


def _assert_bit_identical(engine: ServingEngine, store) -> bool:
    """Concurrent Zipfian submits must equal direct per-row store gathers."""
    failures: list = []

    def client(seed: int) -> None:
        rows = zipfian_rows(store.num_rows, IDENTITY_PER_THREAD, seed=seed)
        futures = [(int(row), engine.submit(int(row))) for row in rows]
        for row, future in futures:
            expected = store.gather_packed(np.array([row], dtype=np.int64))[:, 0, :]
            if not np.array_equal(future.result(timeout=60), expected):
                failures.append(row)

    threads = [threading.Thread(target=client, args=(seed,)) for seed in range(IDENTITY_THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not failures, f"coalesced answers diverged from direct gathers for rows {failures[:5]}"
    return True


def _measure_overload(store) -> dict:
    """Open-loop flood ≈2x capacity with injected faults and a dispatcher kill.

    Accounts for every offered request: resolved with data (sample-verified
    bit-identical), failed with a typed serving error, or shed at admission.
    """
    config = ServingConfig(
        cache_policy="lru",
        cache_capacity=CACHE_CAPACITY,
        max_pending=OVERLOAD_MAX_PENDING,
        shed_policy="reject",
        gather_retries=2,
        gather_backoff_seconds=0.001,
        watchdog_interval_seconds=0.02,
        supervisor=SupervisorPolicy(
            max_respawns=3,
            backoff_seconds=0.01,
            max_backoff_seconds=0.1,
            stall_timeout_seconds=5.0,
            batch_deadline_seconds=1.0,
        ),
    )
    plan = FaultPlan(
        specs=[
            FaultSpec(site="serve.gather", kind="error", at_hit=50),  # transient, retried
            FaultSpec(site="serve.dispatch", kind="error", at_hit=20),  # dispatcher kill
            # the throttle: every other gather stalls (a plan fires its first matching
            # spec, so this one comes after the transient error)
            FaultSpec(
                site="serve.gather",
                kind="stall",
                stall_seconds=OVERLOAD_STALL_SECONDS,
                repeat=10 * OVERLOAD_THREADS * OVERLOAD_PER_THREAD,
            ),
        ]
    )
    offered = OVERLOAD_THREADS * OVERLOAD_PER_THREAD
    collected: list = []
    shed_counts = [0] * OVERLOAD_THREADS
    lock = threading.Lock()

    sustainable_qps = OVERLOAD_MAX_PENDING / OVERLOAD_STALL_SECONDS
    interval = OVERLOAD_THREADS / (OVERLOAD_FACTOR * sustainable_qps)

    def flood(tid: int, engine: ServingEngine) -> None:
        rng = np.random.default_rng(100 + tid)
        rows = rng.integers(0, store.num_rows, size=OVERLOAD_PER_THREAD)
        local, shed = [], 0
        start = time.perf_counter()
        for i, row in enumerate(rows):
            ahead = start + i * interval - time.perf_counter()
            if ahead > 0:  # open-loop pacing at 2x sustainable
                time.sleep(ahead)
            try:
                local.append((int(row), engine.submit(int(row))))
            except OverloadError:
                shed += 1
        with lock:
            collected.append(local)
        shed_counts[tid] = shed

    with ServingEngine(store, config) as engine:
        engine.drain_latencies()
        began = time.perf_counter()
        with plan.active():
            threads = [
                threading.Thread(target=flood, args=(tid, engine))
                for tid in range(OVERLOAD_THREADS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            wall = time.perf_counter() - began  # time to offer the full load
            accepted_pairs = [pair for local in collected for pair in local]
            data = typed = untyped = 0
            resolved_rows = []
            for row, future in accepted_pairs:
                try:
                    resolved_rows.append((row, future.result(timeout=60)))
                    data += 1
                except ServingError:
                    typed += 1
                except BaseException:  # noqa: BLE001 - counted as a gate failure
                    untyped += 1
        latencies = engine.drain_latencies()
        snap = engine.snapshot()
        # after the chaos the engine must still answer, correctly
        probe_row = 0
        probe = engine.submit(probe_row).result(timeout=60)
        kept_serving = bool(
            snap["respawns"] >= 1
            and np.array_equal(
                probe, store.gather_packed(np.array([probe_row], dtype=np.int64))[:, 0, :]
            )
        )
    shed = sum(shed_counts)
    rng = np.random.default_rng(7)
    sample = rng.choice(len(resolved_rows), size=min(OVERLOAD_IDENTITY_SAMPLE, len(resolved_rows)), replace=False)
    identical = all(
        np.array_equal(
            resolved_rows[i][1],
            store.gather_packed(np.array([resolved_rows[i][0]], dtype=np.int64))[:, 0, :],
        )
        for i in sample
    )
    return {
        "offered": offered,
        "offered_qps": offered / wall,
        "accepted": data,
        "shed": shed,
        "typed_failures": typed,
        "untyped_failures": untyped,
        "shed_rate": shed / offered,
        "accepted_p50_ms": float(np.percentile(latencies, 50) * 1e3) if latencies.size else 0.0,
        "accepted_p99_ms": float(np.percentile(latencies, 99) * 1e3) if latencies.size else 0.0,
        "zero_lost": bool(data + typed + untyped + shed == offered),
        "typed_errors_only": bool(untyped == 0),
        "kept_serving_after_respawn": kept_serving,
        "bit_identical_sample": bool(identical),
        "identity_sample": int(len(sample)),
        "respawns": snap["respawns"],
        "retried": snap["retried"],
        "max_pending": OVERLOAD_MAX_PENDING,
    }


def _measure_adaptive(store, graph) -> dict:
    """Context row: cold fused-gather wall with per-node hop truncation on/off."""
    rows = zipfian_rows(store.num_rows, 4000, seed=9)
    timings = {}
    for label, config in (
        ("full_depth", ServingConfig(cache_policy="none")),
        ("adaptive", ServingConfig(cache_policy="none", adaptive_depth=True, min_depth=1)),
    ):
        with ServingEngine(store, config, graph=graph) as engine:
            best = float("inf")
            for _ in range(REPEATS):
                began = time.perf_counter()
                for start in range(0, rows.size, 256):
                    engine.fetch(rows[start : start + 256])
                best = min(best, time.perf_counter() - began)
            timings[label] = best
    return {
        "full_depth_seconds": timings["full_depth"],
        "adaptive_seconds": timings["adaptive"],
        "speedup_vs_full": timings["full_depth"] / max(timings["adaptive"], 1e-12),
    }


def _run_suite() -> dict:
    dataset = load_dataset(DATASET, seed=0, num_nodes=NUM_NODES)
    with tempfile.TemporaryDirectory() as tmp:
        prepared = PreprocessingPipeline(
            PropagationConfig(num_hops=HOPS), root=Path(tmp) / "store", store_layout="packed"
        ).run(dataset)
        store = prepared.store

        config = ServingConfig(cache_policy="lru", cache_capacity=CACHE_CAPACITY)
        results = {}
        with ServingEngine(store, config) as engine:
            results["bit_identical_to_direct"] = _assert_bit_identical(engine, store)
            sample_rows = np.random.default_rng(1).choice(
                store.num_rows, size=CACHE_SAMPLE, replace=False
            )
            results["cache"] = _measure_cache(engine, sample_rows)
            results["zipfian"] = _measure_zipfian(engine, seed=2)

            def _accepted() -> bool:
                return (
                    results["cache"]["p50_speedup_vs_cold"] >= CACHE_SPEEDUP_TARGET
                    and results["zipfian"]["qps"] >= QPS_TARGET
                    and results["zipfian"]["p99_ms"] <= P99_LIMIT_MS
                )

            # retries before the acceptance asserts: shared CI machines can
            # hand an entire measurement window to a noisy neighbour
            for _ in range(2):
                if _accepted():
                    break
                results["cache"] = _measure_cache(engine, sample_rows)
                results["zipfian"] = _measure_zipfian(engine, seed=3)

        results["overload"] = _measure_overload(store)
        if results["overload"]["accepted_p99_ms"] > OVERLOAD_P99_LIMIT_MS:
            results["overload"] = _measure_overload(store)  # one retry for noise

        results["adaptive_depth"] = _measure_adaptive(store, dataset.graph)

        return {
            "dataset": DATASET,
            "num_nodes": NUM_NODES,
            "hops": HOPS,
            "store_rows": int(store.num_rows),
            "num_matrices": int(store.num_matrices),
            "feature_dim": int(store.feature_dim),
            "cache_capacity": CACHE_CAPACITY,
            "zipf_a": ZIPF_A,
            "requests": NUM_REQUESTS,
            "max_outstanding": MAX_OUTSTANDING,
            "repeats": REPEATS,
            "qps_target": QPS_TARGET,
            "p99_limit_ms": P99_LIMIT_MS,
            "cache_speedup_target": CACHE_SPEEDUP_TARGET,
            "overload_p99_limit_ms": OVERLOAD_P99_LIMIT_MS,
            "metric": (
                "zipfian = closed-loop QPS and p50/p99 request latency through the "
                "coalescing submit() path; cache = p50 single-node fetch() latency, "
                "cold (all-miss) vs hot (all-hit); overload = paced open-loop flood at "
                "2x sustainable load with injected faults + one dispatcher kill "
                "(accounting + accepted-request p99); best of repeats"
            ),
            "results": results,
        }


def test_serving_throughput(benchmark):
    report = run_once(benchmark, _run_suite)
    merge_report(OUTPUT_PATH, report)
    results = report["results"]
    assert results["bit_identical_to_direct"]
    speedup = results["cache"]["p50_speedup_vs_cold"]
    assert speedup >= CACHE_SPEEDUP_TARGET, (
        f"cache-hit p50 only {speedup:.2f}x faster than cold gather "
        f"(target {CACHE_SPEEDUP_TARGET}x)"
    )
    qps = results["zipfian"]["qps"]
    assert qps >= QPS_TARGET, f"Zipfian throughput only {qps:.0f} QPS (target {QPS_TARGET:.0f})"
    p99 = results["zipfian"]["p99_ms"]
    assert p99 <= P99_LIMIT_MS, f"p99 latency {p99:.1f} ms exceeds {P99_LIMIT_MS:.0f} ms"
    overload = results["overload"]
    assert overload["zero_lost"], (
        f"requests silently lost under overload: offered {overload['offered']}, accounted "
        f"{overload['accepted'] + overload['typed_failures'] + overload['shed']}"
    )
    assert overload["typed_errors_only"], (
        f"{overload['untyped_failures']} request(s) failed with untyped errors under overload"
    )
    assert overload["kept_serving_after_respawn"], (
        "engine did not keep serving (bit-identically) after the dispatcher kill"
    )
    assert overload["bit_identical_sample"], "accepted overload answers diverged from direct gathers"
    assert overload["shed"] > 0, "overload row never saturated admission — not an overload"
    overload_p99 = overload["accepted_p99_ms"]
    assert overload_p99 <= OVERLOAD_P99_LIMIT_MS, (
        f"accepted-request p99 {overload_p99:.1f} ms under overload exceeds "
        f"{OVERLOAD_P99_LIMIT_MS:.0f} ms"
    )
    print(f"\nwrote {OUTPUT_PATH}")
    print(
        f"zipfian: {qps:.0f} QPS, p50 {results['zipfian']['p50_ms']:.2f} ms, "
        f"p99 {p99:.2f} ms, cache hit rate {results['zipfian']['cache_hit_rate']:.0%}"
    )
    print(
        f"cache: cold p50 {results['cache']['p50_cold_ms']:.4f} ms, "
        f"hit p50 {results['cache']['p50_hit_ms']:.4f} ms (x{speedup:.2f})"
    )
    print(
        f"overload: offered {overload['offered_qps']:.0f} QPS, shed {overload['shed_rate']:.0%}, "
        f"accepted p99 {overload_p99:.2f} ms, respawns {overload['respawns']}"
    )
    print(f"adaptive depth: x{results['adaptive_depth']['speedup_vs_full']:.2f} vs full depth")
