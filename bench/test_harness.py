"""Tests of the benchmark harness itself (fast; collected by the tier-1 run).

They pin the statistics, the span arithmetic, the determinism of the input
generators, the open-loop scheduler's accounting under a fake clock, the
consistency of ``BENCHMARK.json`` with the harness's own vocabulary, and — with
a smoke run of every workload — that every phase and check still executes.
"""

from __future__ import annotations

import json
import re
import statistics
from argparse import Namespace
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

from bench import compare, loadgen, stats
from bench.metrics import END_TO_END, END_TO_END_BY_NAME, LAYERS
from bench.trace import Tracer, covered
from bench.workloads import GATED, WORKLOADS, build_dataset, make_delta

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# --------------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------------- #
def test_quartiles_match_the_drivers_rule():
    values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0]
    q1, median, q3 = stats.quartiles(values)
    assert [q1, median, q3] == statistics.quantiles(values, n=4)
    assert stats.relative_spread(values) == pytest.approx((q3 - q1) / statistics.median(values))
    summary = stats.summarize(values)
    assert (summary["median"], summary["n"], summary["min"], summary["max"]) == (3.5, 10, 1.0, 9.0)
    assert stats.quartiles([7.0]) == (7.0, 7.0, 7.0)


@pytest.mark.parametrize(
    "count, expected",
    [(9, None), (19, None), (20, 50.0), (100, 90.0), (199, 90.0), (200, 95.0), (999, 95.0),
     (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_needs_ten_samples_beyond(count, expected):
    assert stats.supported_tail(count) == expected
    used, value = stats.tail(list(range(count)), 99.0)
    assert used == (None if expected is None else min(99.0, expected))
    assert (value is None) == (expected is None)


# --------------------------------------------------------------------------- #
# spans
# --------------------------------------------------------------------------- #
class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += max(seconds, 0.0)


def test_self_time_with_nested_and_overlapping_children():
    clock = FakeClock()
    tracer = Tracer("w", clock=clock)
    tracer.pass_index = 0
    with tracer.span("pass") as root:
        clock.now = 1.0
        with tracer.span("api.preprocess"):
            clock.now = 2.0
            with tracer.span("graph.build"):
                clock.now = 3.0
            clock.now = 4.0
        clock.now = 5.0
        # two children of the root that overlap each other (as two threads would)
        here = tracer.spans[root]["thread"]
        for name, start, end, thread in (
            ("updates.clone", 5.0, 8.0, here), ("updates.patch", 6.0, 9.0, here),
            ("serving.reader", 0.5, 9.5, here + 1),  # another thread, beside everything
        ):
            tracer.spans.append({"name": name, "start": start, "end": end, "parent": root,
                                 "workload": "w", "pass": 0, "thread": thread})
        clock.now = 10.0
    own = tracer.self_times(0)
    assert own["graph.build"] == pytest.approx(1.0)
    assert own["api.preprocess"] == pytest.approx(2.0)  # 3 s minus the nested 1 s
    # root: 10 s minus [1,4] and the union [5,9] of the overlapping pair; the reader
    # ran on another thread, so it takes nothing from the root's own time
    assert own["pass"] == pytest.approx(10.0 - 3.0 - 4.0)
    table = tracer.layer_table(0)
    assert {row["layer"] for row in table} == {"pass", "api", "graph", "updates", "serving"}
    assert [row["span"] for row in table if row["beside"]] == ["serving.reader"]
    assert covered([(0.0, 2.0), (1.0, 3.0), (5.0, 9.0)], 0.0, 6.0) == pytest.approx(4.0)


def test_disabled_tracer_records_nothing():
    tracer = Tracer("w", enabled=False)
    with tracer.span("pass") as index:
        assert index is None
    assert tracer.spans == []


# --------------------------------------------------------------------------- #
# host index
# --------------------------------------------------------------------------- #
def test_host_index_is_the_geometric_mean_of_the_kernel_slowdowns():
    from bench.calibrate import NOMINAL_SECONDS, HostIndex, between, index_of

    assert index_of(dict(NOMINAL_SECONDS)) == pytest.approx(1.0)
    slow = {name: seconds * (4.0 if name == "take" else 1.0) for name, seconds in NOMINAL_SECONDS.items()}
    assert index_of(slow) == pytest.approx(4.0 ** (1 / len(NOMINAL_SECONDS)))
    assert between(1.0, 4.0) == pytest.approx(2.0)
    host = HostIndex()
    assert set(host.kernels) == set(NOMINAL_SECONDS)
    assert host.burst() > 0 and len(host.bursts) == 1


def test_segments_are_divided_by_the_index_around_them():
    from bench.lifecycle import Recorder, Stopwatch

    class ScriptedHost:
        def __init__(self, indices):
            self.indices = iter(indices)

        def burst(self):
            return next(self.indices)

    recorder = Recorder()
    watch = Stopwatch(recorder, ScriptedHost([1.0, 4.0, 4.0]), Tracer("w", enabled=False))
    watch.calibrate()
    with watch.timed("preprocess", "preprocess_s") as first:
        pass
    with watch.timed("build"):  # part of the lifecycle, a sample of nothing
        pass
    first.seconds = 1.0
    watch._pending[1].seconds = 0.5
    watch.calibrate()  # both ran between index 1 and index 4: divided by 2
    with watch.timed("serve_closed", "serve_closed_qps") as closed:
        pass
    closed.seconds, closed.count = 2.0, 1000
    watch.calibrate()  # between 4 and 4
    with watch.timed("close") as last:
        pass
    last.seconds = 0.4
    watch.finish()  # after the last burst: that burst's index
    assert recorder.samples == {"preprocess_s": [0.5], "serve_closed_qps": [2000.0]}
    assert recorder.raw == {"preprocess_s": [1.0], "serve_closed_qps": [500.0]}
    assert watch.lifecycle_s == pytest.approx(0.5 + 0.25 + 0.5 + 0.1)
    assert watch.raw_lifecycle_s == pytest.approx(3.9)
    # no host: wall seconds
    plain = Stopwatch(Recorder(), None, Tracer("w", enabled=False))
    plain.calibrate()
    with plain.timed("update", "update_s") as segment:
        pass
    segment.seconds = 0.25
    plain.finish()
    assert plain.recorder.samples == {"update_s": [0.25]} and plain.lifecycle_s == 0.25


# --------------------------------------------------------------------------- #
# input generators
# --------------------------------------------------------------------------- #
def test_streams_are_seed_deterministic():
    for zipf in (None, 0.8, 1.1):
        first = loadgen.make_rows(np.random.default_rng(7), 5000, 1000, zipf)
        again = loadgen.make_rows(np.random.default_rng(7), 5000, 1000, zipf)
        other = loadgen.make_rows(np.random.default_rng(8), 5000, 1000, zipf)
        assert np.array_equal(first, again) and not np.array_equal(first, other)
        assert first.min() >= 0 and first.max() < 1000
    skewed = loadgen.make_rows(np.random.default_rng(7), 20000, 1000, 1.1)
    top = np.sort(np.bincount(skewed, minlength=1000))[::-1]
    assert top[:10].sum() > 5 * top[-500:].sum()  # a few rows take most of the traffic


def test_datasets_and_deltas_are_seed_deterministic():
    for name in ("ring_churn", "igbm_lifecycle"):
        workload = WORKLOADS[name]
        first = build_dataset(workload, 3, smoke=True)
        again = build_dataset(workload, 3, smoke=True)
        assert np.array_equal(first.graph.indices, again.graph.indices)
        assert np.array_equal(first.features, again.features)
        one = make_delta(workload, np.random.default_rng(5), first.graph, first.num_features)
        two = make_delta(workload, np.random.default_rng(5), again.graph, again.num_features)
        assert one.fingerprint() == two.fingerprint()
        one.validate_for(first.graph)
    ring = build_dataset(WORKLOADS["ring_churn"], 3, smoke=True)
    assert set(np.diff(ring.graph.indptr)) == {40}  # every node sees i ± 1..20


# --------------------------------------------------------------------------- #
# open-loop scheduler under a fake clock
# --------------------------------------------------------------------------- #
def resolved(value=0) -> Future:
    future: Future = Future()
    future.set_result(value)
    return future


def test_open_loop_charges_latency_from_the_due_time():
    clock = FakeClock()

    def submit(row: int) -> Future:
        if row == 3:
            clock.now += 0.005  # the generator is stalled inside this call
        return resolved(row)

    result = loadgen.open_loop(
        submit, np.arange(10), 1000.0, clock=clock, sleep=clock.sleep, sample_every=1
    )
    assert (result.attempted, result.failed) == (10, 0)
    late_ms = np.round(result.lateness * 1e3, 3)
    # requests 4..7 were due during the stall and are sent the moment it ends
    assert late_ms.tolist() == [0, 0, 0, 0, 4, 3, 2, 1, 0, 0]
    # service is instantaneous, so latency is exactly what the stall cost each request
    assert np.round(result.latencies * 1e3, 3).tolist() == [0, 0, 0, 5, 4, 3, 2, 1, 0, 0]
    assert np.round(result.submit_calls * 1e3, 3).tolist() == [0, 0, 0, 5, 0, 0, 0, 0, 0, 0]
    assert [sample.row for sample in result.samples] == list(range(10))


def test_open_loop_counts_shed_failed_and_unresolved_requests():
    clock = FakeClock()

    def submit(row: int) -> Future:
        if row == 1:
            raise RuntimeError("shed")
        future: Future = Future()
        if row == 2:
            future.set_exception(TimeoutError("deadline"))
        elif row != 4:  # row 4 never resolves
            future.set_result(row)
        return future

    result = loadgen.open_loop(submit, np.arange(6), 1000.0, clock=clock, sleep=clock.sleep)
    assert (result.attempted, result.failed) == (6, 3)
    assert result.latencies.size == 3

    clock = FakeClock()
    stopped = loadgen.open_loop(
        resolved, np.arange(1000), 1000.0, clock=clock, sleep=clock.sleep, stop=lambda: clock.now > 0.5
    )
    assert 450 < stopped.attempted < 550 and stopped.failed == 0  # unsent requests are not attempted


def test_open_loop_tail_is_the_median_over_windows():
    from bench.lifecycle import WINDOW_SECONDS, Recorder

    rate, windows = 4000.0, 8
    per_window = int(rate * WINDOW_SECONDS)
    latencies = np.full(windows * per_window + per_window // 2, 0.002)  # a short last window
    latencies[per_window : per_window + 100] = 0.150  # one freeze, inside the second window
    recorder = Recorder()
    numbers = recorder.load_open(
        loadgen.LoadResult(attempted=latencies.size, latencies=latencies), rate
    )
    tails = recorder.samples["serve_p99_ms"]
    assert len(tails) == len(recorder.samples["serve_p50_ms"]) == windows  # full windows only
    assert statistics.median(tails) == pytest.approx(2.0) and max(tails) == pytest.approx(150.0)
    # the pass's own tail keeps the freeze: 100 of 8500 requests is more than 1 %
    assert numbers["p99_ms"] == pytest.approx(150.0) == recorder.samples["serving.pass_p99_ms"][0]
    # a tail that recurs in every window moves the median
    latencies[:] = 0.002
    latencies[::50] = 0.030
    recorder = Recorder()
    recorder.load_open(loadgen.LoadResult(attempted=latencies.size, latencies=latencies), rate)
    assert statistics.median(recorder.samples["serve_p99_ms"]) == pytest.approx(30.0)


def test_closed_loop_keeps_the_window_and_counts_failures():
    outstanding = []

    def submit(row: int) -> Future:
        if row == 5:
            raise RuntimeError("shed")
        future: Future = Future()
        outstanding.append(future)
        if len(outstanding) >= 4:  # resolve in bursts, as a coalescing server would
            for pending in outstanding:
                pending.set_result(np.zeros(1))
            outstanding.clear()
        return future

    def submit_checked(row: int) -> Future:
        assert len(outstanding) < 4
        return submit(row)

    result = loadgen.closed_loop(submit_checked, np.arange(17), window=4, sample_every=4)
    assert (result.attempted, result.failed) == (17, 1)
    assert [sample.row for sample in result.samples] == [0, 4, 8, 12, 16]
    assert result.qps > 0


# --------------------------------------------------------------------------- #
# BENCHMARK.json against the harness's vocabulary
# --------------------------------------------------------------------------- #
def test_benchmark_json_is_consistent_with_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["bench"] and spec["command"][-1] == "bench/run.py"
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer") for m in spec[group]]
    assert len(names) == len(set(names)) and all(NAME.match(name) for name in names)

    assert {w["name"]: w["why"] for w in spec["workloads"]} == {name: WORKLOADS[name].why for name in GATED}
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in spec["workloads"])

    assert [m["name"] for m in spec["end_to_end"]] == [m.name for m in END_TO_END]
    for entry in spec["end_to_end"]:
        metric = END_TO_END_BY_NAME[entry["name"]]
        assert entry == {"name": metric.name, "unit": metric.unit, "better": metric.better, "bound": metric.bound}
        assert UNIT.match(entry["unit"]) and entry["better"] in ("lower", "higher") and 0 < entry["bound"] <= 0.25
    setup = END_TO_END_BY_NAME["setup_s"]
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in END_TO_END)

    required = [layer for layer in LAYERS if not layer.optional]
    assert [m["name"] for m in spec["per_layer"]] == [layer.name for layer in required]
    for entry, layer in zip(spec["per_layer"], required):
        assert entry == {"name": layer.name, "unit": layer.unit, "better": layer.better}
    for layer in LAYERS:
        assert UNIT.match(layer.unit) and layer.better in ("lower", "higher")
        assert layer.moves in END_TO_END_BY_NAME, layer
        for where in (layer.most, layer.least):
            assert where in (None, "all") or where in WORKLOADS, layer


# --------------------------------------------------------------------------- #
# comparison verdicts
# --------------------------------------------------------------------------- #
def run_document(workload: str, metric: str, median: float, spread: float = 0.01) -> dict:
    entry = {"unit": "s", "better": "lower", "median": median,
             "q1": median * (1 - spread / 2), "q3": median * (1 + spread / 2), "n": 5}
    return {"workload": workload, "smoke": False, "end_to_end": {metric: entry}, "layers": {}}


def test_compare_verdicts():
    bound = END_TO_END_BY_NAME["update_s"].bound

    def one(a: float, b: float, spread: float = 0.01) -> str:
        rows = compare.compare(
            [run_document("ring_churn", "update_s", a, spread)],
            [run_document("ring_churn", "update_s", b, spread)],
        )
        return rows[0]["verdict"]

    assert one(1.0, 1.0 + bound / 2) == "unchanged"
    assert one(1.0, 1.0 + 2 * bound) == "regressed"
    assert one(1.0, 0.9) == "improved"
    assert one(1.0, 0.9, spread=2 * bound) == "unresolved"  # spread wider than the bound
    # several runs per side: the spread is taken across the runs' medians
    many_a = [run_document("ring_churn", "update_s", value) for value in (1.0, 1.01, 0.99, 1.0)]
    many_b = [run_document("ring_churn", "update_s", value) for value in (1.0, 2.0, 0.5, 1.0)]
    assert compare.compare(many_a, many_b)[0]["verdict"] == "unresolved"
    higher = compare.verdict(worse=-0.5, spread_a=0.01, spread_b=0.01, bound=None)
    assert higher == "-"  # layer metrics carry no bound


# --------------------------------------------------------------------------- #
# smoke: every phase and check of every workload
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_exercises_every_phase(name):
    from bench.worker import run_workload

    args = Namespace(workload=name, seed=11, seconds=1.0, trace=1, smoke=True,
                     scratch=None, spawned=None)
    document = run_workload(args)
    assert document["smoke"] is True
    assert document["correct"], document["failures"]
    assert document["failed"] == 0 and document["attempted"] > 1000
    assert set(document["end_to_end"]) == {metric.name for metric in END_TO_END}
    assert all(entry["median"] > 0 for entry in document["end_to_end"].values())
    missing = [layer.name for layer in LAYERS
               if not layer.optional and document["layers"][layer.name]["value"] is None]
    assert not missing, {name: document["layers"][name]["reason"] for name in missing}
    wall = document["traced_pass_wall_s"]
    on_path = [row for row in document["layer_table"] if not row["beside"]]
    assert sum(row["self_s"] for row in on_path) == pytest.approx(wall, rel=1e-6)
