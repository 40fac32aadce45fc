"""One pass of the Session lifecycle, with its correctness checks.

A pass drives the public ``repro.api`` surface only — ``Session``,
``LoaderConfig``, ``ServingConfig``, ``PropagationConfig``, ``GraphDelta`` —
in the order a user would: preprocess to a file-backed packed store, train,
serve a closed loop, serve an open loop (alone, or beside the updates on a
churn workload), apply the updates, serve again, close.  Every program call
is timed from outside and divided by the host index measured at the phase
boundaries around it (``calibrate.py``); harness work (input generation,
verification, the index bursts) is not part of any metric.

Outputs are checked bit for bit against the in-core ``propagate_features``
oracle; a mismatch, a failed request, a failed update or a non-finite loss is
a failed operation.
"""

from __future__ import annotations

import copy
import shutil
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional

import numpy as np

from bench import loadgen
from bench.calibrate import HostIndex, between
from bench.trace import Tracer
from bench.workloads import Workload, make_delta

#: per-request deadline handed to the engine; a request past it is failed.  Far above
#: any latency the program produces (p99 is 3-5 ms): on the sizing VM the *host* froze
#: the process for more than 250 ms about once in 300 runs, and every request queued
#: across the freeze then expired
DEADLINE_SECONDS = 1.0
#: store rows compared against the oracle after every preprocess
ORACLE_ROWS = 256
#: batches of an epoch compared against a direct gather
CHECKED_BATCHES = 3
#: length of the open-loop segment when it runs alone (fixed duration, not lifecycle time)
OPEN_SECONDS = 1.0
#: An open-loop segment is cut into windows of this many seconds of due times; every
#: window gives one p50 and one p99 sample and the run reports their medians.  A tail the
#: program produces several times a second (a slow flush, the engine swap of a churn
#: update: every window holds one) moves every window; a host freeze or a full garbage
#: collection (30-300 ms, in a third of all one-second segments on the sizing VM) spoils
#: one window in eight instead of deciding the pass's p99.  The pass's own p99 and maximum
#: are layer metrics (``serving.pass_p99_ms``, ``serving.pass_max_ms``).
WINDOW_SECONDS = 0.25
#: longest a churn reader may run (its id stream is generated up front)
CHURN_MAX_SECONDS = 20.0


class Recorder:
    """Samples, attempted/failed counts and failure notes of one run."""

    def __init__(self) -> None:
        self.samples: Dict[str, List[float]] = {}
        #: the wall-clock value of every sample that was divided by a host index
        self.raw: Dict[str, List[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def add(self, name: str, value: float, raw: Optional[float] = None) -> None:
        self.samples.setdefault(name, []).append(float(value))
        if raw is not None:
            self.raw.setdefault(name, []).append(float(raw))

    def check(self, ok: bool, what: str) -> bool:
        """Count one verification or operation; remember what failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return bool(ok)

    def load(self, result: loadgen.LoadResult, what: str) -> None:
        self.attempted += result.attempted
        self.failed += result.failed
        for error in result.errors:
            if len(self.failures) < 20:
                self.failures.append(f"{what}: {error}")

    def load_open(self, result: loadgen.LoadResult, rate: float) -> dict:
        """Record one open-loop segment: a p50 and a p99 sample per full window."""
        self.load(result, "open loop")
        latencies_ms = result.latencies * 1e3
        # a smoke run's segment is shorter than a window: it is one window
        per_window = min(int(rate * WINDOW_SECONDS), max(latencies_ms.size, 1))
        for start in range(0, latencies_ms.size - per_window + 1, per_window):
            window = latencies_ms[start : start + per_window]
            self.add("serve_p50_ms", float(np.percentile(window, 50.0)))
            self.add("serve_p99_ms", float(np.percentile(window, 99.0)))
        if not latencies_ms.size:
            return {}
        numbers = {
            "p50_ms": float(np.percentile(latencies_ms, 50.0)),
            "p99_ms": float(np.percentile(latencies_ms, 99.0)),
            "max_ms": float(latencies_ms.max()),
        }
        # printed beside the windowed metrics, never gated: every stall of the pass is in these
        self.add("serving.pass_p99_ms", numbers["p99_ms"])
        self.add("serving.pass_max_ms", numbers["max_ms"])
        return numbers


@dataclass
class Segment:
    """One timed call into the program; ``metric`` makes it a sample once its index is known."""

    name: str
    seconds: float = 0.0
    #: end-to-end metric this segment is a sample of (``None``: only part of ``lifecycle_s``)
    metric: Optional[str] = None
    #: with a count the sample is a rate, ``count / seconds``
    count: Optional[int] = None


class Stopwatch:
    """Times the program's segments of one pass and divides them by the host index.

    ``calibrate()`` takes a burst of the host index at a phase boundary; every
    segment timed since the previous burst ran between the two and is divided
    by their geometric mean.  ``lifecycle_s`` is the sum of the pass's
    segments, ``raw_lifecycle_s`` the same in wall seconds.
    """

    def __init__(self, recorder: Recorder, host: Optional[HostIndex], tracer: Tracer) -> None:
        self.recorder = recorder
        self.host = host
        self.tracer = tracer
        self.lifecycle_s = 0.0
        self.raw_lifecycle_s = 0.0
        self.segments: Dict[str, List[float]] = {}
        self.indices: List[float] = []
        self._pending: List[Segment] = []
        self._last: Optional[float] = None

    @contextmanager
    def timed(self, name: str, metric: Optional[str] = None) -> Iterator[Segment]:
        segment = Segment(name, metric=metric)
        began = time.perf_counter()
        try:
            yield segment
        finally:
            segment.seconds = time.perf_counter() - began
            self.segments.setdefault(name, []).append(segment.seconds)
            self._pending.append(segment)

    def calibrate(self) -> None:
        """Burst at a phase boundary: settles the segments timed since the last one."""
        if self.host is None:
            index = 1.0
        else:
            with self.tracer.span("host.index"):
                index = self.host.burst()
        self.indices.append(index)
        self._settle(index if self._last is None else between(self._last, index))
        self._last = index

    def finish(self) -> None:
        """End of the pass: what was timed after the last burst takes that burst's index."""
        self._settle(self._last if self._last is not None else 1.0)

    def _settle(self, index: float) -> None:
        for segment in self._pending:
            seconds = segment.seconds / index
            self.lifecycle_s += seconds
            self.raw_lifecycle_s += segment.seconds
            if segment.metric is None:
                continue
            if segment.count is None:
                self.recorder.add(segment.metric, seconds, raw=segment.seconds)
            else:
                self.recorder.add(segment.metric, segment.count / seconds, raw=segment.count / segment.seconds)
        self._pending.clear()


def flat_matrices(full_matrices) -> List[np.ndarray]:
    """Kernel-major flat list of the ``hop_features[k][r]`` oracle matrices."""
    return [matrix for per_kernel in full_matrices for matrix in per_kernel]


class WorkloadRun:
    """State shared by the passes of one workload process."""

    def __init__(
        self,
        workload: Workload,
        dataset,
        seed: int,
        scratch: Path,
        tracer: Tracer,
        smoke: bool = False,
        host: Optional[HostIndex] = None,
    ) -> None:
        self.host = host
        self.workload = workload
        self.dataset = dataset
        self.seed = seed
        self.scratch = Path(scratch)
        self.tracer = tracer
        self.smoke = smoke
        self.recorder = Recorder()
        self.final_losses: List[float] = []
        #: (rows, expected block) verified against the oracle on the first pass
        self._oracle: Optional[tuple[np.ndarray, np.ndarray]] = None
        #: set by the traced run: an object with the ``probes.LayerProbes`` hooks
        self.probes = None
        #: versions the last prune removed (``None`` once pruning is gone)
        self.pruned: Optional[int] = None

    # ------------------------------------------------------------------ #
    def scaled(self, count: int) -> int:
        return max(count // 20, 256) if self.smoke else count

    @property
    def updates(self) -> tuple[int, int]:
        """``(apply_updates calls per pass, how many of the first are untimed)``."""
        spec = self.workload
        if self.smoke:
            return min(spec.updates, 3), min(spec.untimed_updates, 1)
        return spec.updates, spec.untimed_updates

    @property
    def open_seconds(self) -> float:
        return 0.1 if self.smoke else OPEN_SECONDS

    def propagation_config(self):
        from repro.api import PropagationConfig

        return PropagationConfig(num_hops=self.workload.num_hops)

    def serving_config(self, capacity: Optional[int] = None):
        from repro.api import ServingConfig

        return ServingConfig(
            cache_policy="lru",
            cache_capacity=capacity if capacity is not None else self.workload.cache_capacity,
            default_deadline_seconds=DEADLINE_SECONDS,
        )

    def oracle(self, graph, features) -> List[np.ndarray]:
        """From-scratch in-core propagation: the reference every check uses."""
        from repro.prepropagation import propagate_features

        full_matrices, _ = propagate_features(graph, features, self.propagation_config())
        return flat_matrices(full_matrices)

    # ------------------------------------------------------------------ #
    def run_pass(self, index: int, traced: bool = False) -> dict:
        """Run one full lifecycle; returns the pass's own numbers."""
        from repro.api import LoaderConfig, Session

        spec = self.workload
        rec = self.recorder
        tracer = self.tracer
        tracer.enabled = traced
        tracer.pass_index = index
        probes = self.probes if traced else None
        watch = Stopwatch(rec, self.host, tracer)
        rng = np.random.default_rng([self.seed + index, 0x5AFE])
        root = self.scratch / f"pass{index}"
        store_root = root / "store"
        dataset = copy.copy(self.dataset)  # apply_updates rebinds graph and features
        summary: dict = {"index": index, "traced": traced}
        pass_began = time.perf_counter()
        with tracer.span("pass"):
            session = Session(
                dataset,
                seed=self.seed,
                root=store_root,
                loader=LoaderConfig(seed=self.seed, **spec.loader),
            )
            try:
                config = self.propagation_config()
                root.mkdir(parents=True)
                preprocess_kwargs = dict(spec.preprocess_kwargs)
                if spec.mode == "blocked":
                    # the engine's hop scratch defaults to the system temp dir: keep it with the store
                    preprocess_kwargs["scratch_dir"] = root
                watch.calibrate()
                with watch.timed("preprocess", "preprocess_s"), tracer.span("api.preprocess"):
                    result = session.preprocess(
                        config, mode=spec.mode, store_layout="packed", **preprocess_kwargs
                    )
                watch.calibrate()
                rec.check(session.store.is_file_backed, "preprocess did not produce a file-backed store")
                if probes is not None:
                    probes.after_preprocess(self, session, result, root)
                with tracer.span("bench.verify"):
                    self._check_store_rows(session)
                    self._check_batches(session)

                watch.calibrate()
                self._train(session, watch)
                if probes is not None:
                    probes.after_training(self, session)
                    watch.calibrate()

                with watch.timed("serve_start"), tracer.span("api.serve"):
                    engine = session.serve(self.serving_config())
                before = engine.snapshot() if probes is not None else None
                closed = self._closed_segment(session, engine, rng, watch)
                if probes is not None:
                    probes.after_closed(self, session, engine, before, closed)
                    watch.calibrate()

                if spec.churn:
                    opened = self._churn_segment(session, engine, rng, watch, store_root, root)
                else:
                    opened = self._open_segment(session, engine, rng)
                    watch.calibrate()
                    self._updates(session, rng, watch, store_root, root)
                watch.calibrate()
                if probes is not None:
                    probes.after_serving(self, session, engine, opened, rng)
                    watch.calibrate()
                self._closed_segment(session, engine, rng, watch)
                if spec.churn or index == 0:
                    with tracer.span("bench.verify"):
                        self._check_rebuild(session)
            finally:
                with watch.timed("close"), tracer.span("api.session_close"):
                    session.close()
                with tracer.span("bench.cleanup"):
                    shutil.rmtree(root, ignore_errors=True)
                watch.finish()
        tracer.enabled = False
        summary["wall_s"] = time.perf_counter() - pass_began
        summary["lifecycle_s"] = watch.lifecycle_s
        summary["raw_lifecycle_s"] = watch.raw_lifecycle_s
        summary["segments"] = {name: sum(values) for name, values in watch.segments.items()}
        summary["host_indices"] = watch.indices
        rec.add("lifecycle_s", watch.lifecycle_s, raw=watch.raw_lifecycle_s)
        return summary

    # ------------------------------------------------------------------ #
    def _check_store_rows(self, session) -> None:
        """Sampled store rows equal in-core propagation + row restriction."""
        store = session.store
        if self._oracle is None:
            rows = np.sort(
                np.random.default_rng([self.seed, 0x0AC1]).choice(
                    store.num_rows, size=min(ORACLE_ROWS, store.num_rows), replace=False
                )
            )
            nodes = store.node_ids[rows]
            matrices = self.oracle(session.dataset.graph, session.dataset.features)
            self._oracle = (rows, np.stack([matrix[nodes] for matrix in matrices]))
        rows, expected = self._oracle
        self.recorder.check(
            np.array_equal(store.gather_packed(rows), expected),
            "store rows differ from in-core propagate_features",
        )

    def _check_batches(self, session) -> None:
        """The first batches of an epoch equal a direct gather plus labels."""
        store = session.store
        labels = session.store_labels()
        loader = session.loader()
        try:
            for number, batch in enumerate(loader.epoch()):
                if number >= CHECKED_BATCHES:
                    continue  # let the epoch run out: loaders own threads and workers
                rows = batch.row_indices
                same = np.array_equal(np.stack(batch.hop_features), store.gather_packed(rows))
                self.recorder.check(
                    same and np.array_equal(batch.labels, labels[rows]),
                    f"batch {number} differs from store.gather_packed + labels",
                )
        finally:
            loader.close()

    def _train(self, session, watch: Stopwatch) -> None:
        spec = self.workload
        tracer = self.tracer
        epochs = min(spec.epochs, 2) if self.smoke else spec.epochs
        with watch.timed("trainer_build"), tracer.span("api.trainer"):
            trainer = session.trainer(spec.model, num_epochs=epochs)
        loss = float("nan")
        try:
            for _ in range(epochs):
                with watch.timed("train_epoch", "train_epoch_s"), tracer.span("training.train_epoch"):
                    loss = trainer.train_epoch()
                self.recorder.check(np.isfinite(loss), f"training loss is {loss}")
        finally:
            with watch.timed("trainer_close"), tracer.span("api.trainer_close"):
                trainer.close()
            watch.calibrate()
        self.final_losses.append(float(loss))

    # ------------------------------------------------------------------ #
    def _check_answers(self, samples: List[loadgen.Sample], versions: list, what: str) -> None:
        """Each sampled answer equals the store row of a version it may be pinned to.

        ``versions`` is a list of ``(active_from, active_until, rows, blocks)``;
        an answer submitted at ``s`` and resolved at ``d`` may legally come from
        any version active at some time in ``[s, d]``.
        """
        for sample in samples:
            legal = False
            for active_from, active_until, rows, blocks in versions:
                if active_from > sample.done or active_until < sample.submitted:
                    continue
                position = int(np.searchsorted(rows, sample.row))
                if np.array_equal(sample.block, blocks[:, position, :]):
                    legal = True
                    break
            self.recorder.check(legal, f"{what}: answer for row {sample.row} matches no legal version")

    @staticmethod
    def _version(store, rows: np.ndarray, active_from: float = -np.inf) -> list:
        return [active_from, np.inf, rows, store.gather_packed(rows)]

    def _closed_segment(self, session, engine, rng, watch: Stopwatch) -> loadgen.LoadResult:
        spec = self.workload
        rows = loadgen.make_rows(rng, self.scaled(spec.closed_requests), session.store.num_rows, spec.zipf)
        with watch.timed("serve_closed", "serve_closed_qps") as segment, self.tracer.span("serving.closed_loop"):
            result = loadgen.closed_loop(engine.submit, rows)
        segment.count = result.attempted - result.failed
        watch.calibrate()
        self.recorder.load(result, "closed loop")
        with self.tracer.span("bench.verify"):
            sampled = np.unique([sample.row for sample in result.samples])
            self._check_answers(result.samples, [self._version(session.store, sampled)], "closed loop")
        return result

    def _open_segment(self, session, engine, rng) -> dict:
        """Fixed-duration open loop on the calling thread (not lifecycle time)."""
        spec = self.workload
        count = int(spec.open_rate * self.open_seconds)
        rows = loadgen.make_rows(rng, count, session.store.num_rows, spec.zipf)
        with self.tracer.span("serving.open_loop"):
            result = loadgen.open_loop(engine.submit, rows, spec.open_rate)
        with self.tracer.span("bench.verify"):
            sampled = np.unique([sample.row for sample in result.samples])
            self._check_answers(result.samples, [self._version(session.store, sampled)], "open loop")
        numbers = self.recorder.load_open(result, spec.open_rate)
        numbers["result"] = result
        return numbers

    # ------------------------------------------------------------------ #
    def _apply(self, session, delta, watch: Stopwatch, store_root: Path, timed: bool) -> Optional[object]:
        """One ``apply_updates`` + the operator's prune; returns the result."""
        rec = self.recorder
        try:
            with watch.timed("update", "update_s" if timed else None), self.tracer.span("api.apply_updates"):
                result = session.apply_updates(delta)
        except Exception as exc:
            rec.check(False, f"apply_updates raised {type(exc).__name__}: {exc}")
            return None
        rec.check(
            result.status == "applied" and not result.engine_errors,
            f"update status {result.status!r}, engine errors {result.engine_errors}",
        )
        with watch.timed("prune"), self.tracer.span("updates.prune"):
            self.pruned = prune_versions(store_root)
        return result

    def _updates(self, session, rng, watch: Stopwatch, store_root: Path, root: Path) -> None:
        spec = self.workload
        count, untimed = self.updates
        for number in range(count):
            with self.tracer.span("bench.generate"):
                delta = make_delta(spec, rng, session.dataset.graph, session.dataset.num_features)
            if self.probes is not None and self.tracer.enabled and number == 0:
                self.probes.before_update(self, session, delta, store_root, root)
            self._apply(session, delta, watch, store_root, timed=number >= untimed)

    def _churn_segment(self, session, engine, rng, watch: Stopwatch, store_root: Path, root: Path) -> dict:
        """Open-loop reader on its own thread while this thread applies the updates."""
        spec = self.workload
        tracer = self.tracer
        rows = loadgen.make_rows(
            rng, int(spec.open_rate * CHURN_MAX_SECONDS), session.store.num_rows, spec.zipf
        )
        sampled = np.unique(rows[:: loadgen.SAMPLE_EVERY])
        versions = [self._version(session.store, sampled)]
        finished = threading.Event()
        outcome: dict = {}

        def reader(parent: Optional[int]) -> None:
            try:
                with tracer.span("serving.open_loop", parent=parent):
                    outcome["result"] = loadgen.open_loop(
                        engine.submit, rows, spec.open_rate, stop=finished.is_set
                    )
            except BaseException as exc:  # surfaced by the main thread below
                outcome["error"] = exc

        with tracer.span("bench.churn") as churn_span:
            thread = threading.Thread(target=reader, args=(churn_span,), name="bench-reader")
            thread.start()
            try:
                count, untimed = self.updates
                for number in range(count):
                    delta = make_delta(spec, rng, session.dataset.graph, session.dataset.num_features)
                    if self.probes is not None and tracer.enabled and number == 0:
                        self.probes.before_update(self, session, delta, store_root, root)
                    called = time.perf_counter()
                    result = self._apply(session, delta, watch, store_root, timed=number >= untimed)
                    if result is not None and result.status == "applied":
                        versions[-1][1] = time.perf_counter()
                        versions.append(self._version(session.store, sampled, active_from=called))
            finally:
                finished.set()
                thread.join(timeout=CHURN_MAX_SECONDS + 2 * loadgen.DRAIN_SECONDS)
        if thread.is_alive() or "result" not in outcome:
            self.recorder.check(False, f"churn reader did not finish: {outcome.get('error')!r}")
            return {}
        result = outcome["result"]
        with tracer.span("bench.verify"):
            self._check_answers(result.samples, versions, "churn reader")
        numbers = self.recorder.load_open(result, spec.open_rate)
        numbers["result"] = result
        return numbers

    def _check_rebuild(self, session) -> None:
        """The store after the updates equals a from-scratch rebuild, byte for byte."""
        store = session.store
        matrices = self.oracle(session.dataset.graph, session.dataset.features)
        rebuilt = np.stack([matrix[store.node_ids] for matrix in matrices])
        self.recorder.check(
            np.array_equal(store.packed_matrix(), rebuilt),
            "updated store differs from a from-scratch rebuild",
        )

    # ------------------------------------------------------------------ #
    def check_losses(self) -> None:
        """``training.final_loss`` must repeat exactly across the passes of a seed."""
        self.recorder.check(
            len(set(self.final_losses)) == 1,
            f"final loss differs between passes: {sorted(set(self.final_losses))}",
        )


def prune_versions(store_root: Path) -> Optional[int]:
    """Drop store versions older than the newest two; ``None`` if pruning is gone."""
    try:
        from repro.updates import VersionedStore

        return len(VersionedStore(store_root).prune(keep=2))
    except (ImportError, AttributeError):
        return None
