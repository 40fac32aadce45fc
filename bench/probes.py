"""Per-layer probes of the traced pass: each layer measured from outside.

The traced pass runs the same lifecycle as every other pass and, between its
phases, calls straight into each module's public functions on the same data —
``build_operator``, ``propagate_features``, ``FeatureStore``, a loader driven
alone, a hand-driven training epoch, ``engine.fetch``, ``apply_delta`` /
``affected_frontier`` / ``compute_patches`` / ``apply_update`` — timing every
call inside a span named after the layer.  Nothing in ``src/repro`` is
instrumented.

A probe whose entry point a later change removed reports ``None`` with the
reason instead of raising, so deleting an optional surface never needs an
edit here.  Phase clocks the program reports itself (``*.timing`` dicts) are
echoed as ``*.reported.*`` rows: cross-checks, not layer metrics.
"""

from __future__ import annotations

import dataclasses
import mmap
import shutil
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional

import numpy as np

from bench import loadgen
from bench.lifecycle import WorkloadRun
from bench.stats import tail
from bench.trace import Tracer

#: bytes of the calibration buffer — well past the 4 MiB L2 of the sizing host
HOST_BYTES = 32 << 20
#: a pass whose memcpy probe moved more than this from the run's median is flagged
DISTURBED = 0.15
#: open-loop p99 above this, or a growing backlog, means the rate is not sustained
RATE_OK_P99_MS = 25.0
SWEEP_FACTORS = (1, 2, 4)


class LayerProbes:
    """Collects per-layer numbers; ``values[name]`` is a float or ``None``."""

    def __init__(self, tracer: Tracer, num_matrices: int, feature_dim: int, smoke: bool = False) -> None:
        self.tracer = tracer
        self.smoke = smoke
        self.values: Dict[str, Optional[float]] = {}
        self.reasons: Dict[str, str] = {}
        self.reported: Dict[str, float] = {}
        self.host_samples: List[dict] = []
        # calibration block with the packed store's own geometry, so the row-gather
        # roofline is the program's kernel on the program's row width
        rows = max((HOST_BYTES >> 3 if smoke else HOST_BYTES) // (num_matrices * feature_dim * 4), 1)
        rng = np.random.default_rng(0)
        self._host_src = rng.random((num_matrices, rows, feature_dim), dtype=np.float32)
        self._host_dst = np.empty_like(self._host_src)
        self._host_index = rng.permutation(rows)

    # ------------------------------------------------------------------ #
    def note(self, name: str, value: float) -> None:
        self.values[name] = float(value)
        self.reasons.pop(name, None)

    def missing(self, name: str, reason: str) -> None:
        if self.values.get(name) is None:
            self.values[name] = None
            self.reasons[name] = reason

    @contextmanager
    def guard(self, *names: str) -> Iterator[None]:
        """Run a probe; on any error its still-unset metrics become null + reason."""
        try:
            yield
        except Exception as exc:  # a probe must never fail the run: record why
            for name in names:
                self.missing(name, f"{type(exc).__name__}: {exc}")

    @contextmanager
    def timed(self, span: str) -> Iterator[List[float]]:
        """Span + stopwatch; the elapsed seconds land in the yielded list."""
        elapsed: List[float] = []
        with self.tracer.span(span):
            began = time.perf_counter()
            try:
                yield elapsed
            finally:
                elapsed.append(time.perf_counter() - began)

    def echo(self, prefix: str, timing) -> None:
        """Echo a program-reported phase-clock dict as ``<prefix>.reported.*`` rows."""
        if not isinstance(timing, dict):
            return
        for key, value in timing.items():
            if isinstance(value, (int, float)):
                self.reported[f"{prefix}.reported.{key}"] = float(value)

    # ------------------------------------------------------------------ #
    def host_probe(self) -> dict:
        """memcpy, row-gather and fresh-page rates of the host, right now."""
        src, dst, index = self._host_src, self._host_dst, self._host_index
        with self.tracer.span("host.calibrate"):
            began = time.perf_counter()
            np.copyto(dst, src)
            memcpy = src.nbytes / (time.perf_counter() - began) / 1e9
            began = time.perf_counter()
            np.take(src, index, axis=1, out=dst, mode="clip")  # the program's own gather kernel
            take = src.nbytes / (time.perf_counter() - began) / 1e9
            began = time.perf_counter()
            with mmap.mmap(-1, src.nbytes) as fresh:
                np.frombuffer(fresh, dtype=np.uint8)[::4096] = 1  # touch every page once
                fresh_rate = src.nbytes / (time.perf_counter() - began) / 1e9
        sample = {"memcpy_gb_per_s": memcpy, "take_gb_per_s": take, "fresh_page_gb_per_s": fresh_rate}
        self.host_samples.append(sample)
        return sample

    def take_rate(self) -> float:
        """Bytes per second of the host's row gather (the gather roofline)."""
        return statistics.median(s["take_gb_per_s"] for s in self.host_samples) * 1e9

    # ------------------------------------------------------------------ #
    def after_preprocess(self, run: WorkloadRun, session, result, root: Path) -> None:
        spec = run.workload
        graph, features = session.dataset.graph, session.dataset.features
        config = run.propagation_config()
        store = session.store
        self.echo("prepropagation", getattr(result, "timing", None))
        nnz = 0
        build_s = 0.0
        with self.guard("graph.operator_build_s", "graph.nnz"):
            from repro.graph.operators import build_operator

            with self.timed("graph.build_operator") as took:
                for k, name in enumerate(config.operators):
                    nnz += int(build_operator(name, graph, **config.kwargs_for(k)).nnz)
            build_s = took[0]
            self.note("graph.operator_build_s", build_s)
            self.note("graph.nnz", nnz)

        full_matrices = None
        with self.guard(
            "prepropagation.spmm_s", "prepropagation.spmm_gflop", "prepropagation.spmm_gflop_per_s"
        ):
            from repro.prepropagation import propagate_features

            with self.timed("prepropagation.propagate_features") as took:
                full_matrices, timing = propagate_features(graph, features, config)
            self.echo("prepropagation.in_core", timing)
            engine_s = took[0]
            if spec.mode == "blocked":
                from repro.prepropagation import propagate_blocked

                with self.timed("prepropagation.propagate_blocked") as took:
                    _, timing = propagate_blocked(
                        graph, features, config, store.node_ids,
                        root=root / "probe-blocked", layout="packed", scratch_dir=root,
                        **spec.preprocess_kwargs,
                    )
                self.echo("prepropagation.blocked", timing)
                engine_s = took[0]
            spmm_s = max(engine_s - build_s, 1e-9)
            gflop = 2.0 * nnz * features.shape[1] * config.num_hops / 1e9
            self.note("prepropagation.spmm_s", spmm_s)
            self.note("prepropagation.spmm_gflop", gflop)
            self.note("prepropagation.spmm_gflop_per_s", gflop / spmm_s)

        with self.guard(
            "prepropagation.store_write_s", "prepropagation.store_mb",
            "prepropagation.expansion_factor", "prepropagation.store_write_mb_per_s",
        ):
            from repro.prepropagation import FeatureStore, HopFeatures

            if full_matrices is None:
                raise RuntimeError("no in-core matrices to write (propagate_features probe failed)")
            with self.timed("prepropagation.store_write") as took:
                hop_features = HopFeatures.from_full_matrices(full_matrices, store.node_ids)
                written = FeatureStore(hop_features, root=root / "probe-store", layout="packed")
            store_mb = written.nbytes() / 1e6
            raw_mb = store.num_rows * store.feature_dim * store.dtype.itemsize / 1e6
            self.note("prepropagation.store_write_s", took[0])
            self.note("prepropagation.store_mb", store_mb)
            self.note("prepropagation.expansion_factor", store_mb / raw_mb)
            self.note("prepropagation.store_write_mb_per_s", store_mb / took[0])
        del full_matrices
        shutil.rmtree(root / "probe-store", ignore_errors=True)
        shutil.rmtree(root / "probe-blocked", ignore_errors=True)

        with self.guard("prepropagation.gather_rows_per_s", "prepropagation.gather_roofline_frac"):
            rng = np.random.default_rng([run.seed, 0x6A7])
            count = min(512, store.num_rows)
            repeats = 5 if self.smoke else 40
            row_bytes = store.num_matrices * store.feature_dim * store.dtype.itemsize
            out = np.empty((store.num_matrices, count, store.feature_dim), dtype=store.dtype)
            batches = [rng.choice(store.num_rows, size=count, replace=False) for _ in range(repeats)]
            with self.timed("prepropagation.gather_packed") as took:
                for rows in batches:
                    store.gather_packed(rows, out=out)
            rows_per_s = count * repeats / took[0]
            self.note("prepropagation.gather_rows_per_s", rows_per_s)
            self.note("prepropagation.gather_roofline_frac", rows_per_s * row_bytes / self.take_rate())

    # ------------------------------------------------------------------ #
    def after_training(self, run: WorkloadRun, session) -> None:
        spec = run.workload
        store = session.store
        labels = session.store_labels()
        loader_config = session.loader_config
        row_bytes = store.num_matrices * store.feature_dim * store.dtype.itemsize

        with self.guard(
            "dataloading.assembly_s_per_epoch", "dataloading.gb_per_s",
            "dataloading.roofline_frac", "dataloading.batches",
        ):
            # the same recipe assembled in this process: no pool, no prefetch thread
            alone = dataclasses.replace(loader_config, num_workers=0, prefetch=False)
            loader = alone.build(store, labels)
            assembly_s, batches = self._drive_alone(loader, "dataloading.assembly")
            rate = store.num_rows * row_bytes / assembly_s
            self.note("dataloading.assembly_s_per_epoch", assembly_s)
            self.note("dataloading.gb_per_s", rate / 1e9)
            self.note("dataloading.roofline_frac", rate / self.take_rate())
            self.note("dataloading.batches", batches)

        with self.guard(
            "dataloading.stall_s_per_epoch", "dataloading.stall_share", "models.forward_s_per_epoch",
            "tensor.backward_s_per_epoch", "tensor.optimizer_s_per_epoch", "training.loop_overhead_s",
        ):
            self._driven_epoch(run, session)

        with self.guard("training.eval_s"):
            trainer = session.trainer(spec.model, num_epochs=1)
            try:
                with self.timed("training.evaluate") as took:
                    trainer.evaluate()
            finally:
                trainer.close()
            self.note("training.eval_s", took[0])
        self.note("training.final_loss", run.final_losses[-1])

        for strategy in ("baseline", "fused", "chunk", "storage"):
            name = f"dataloading.{strategy}.rows_per_s"
            with self.guard(name):
                from repro.api import LoaderConfig

                loader = LoaderConfig(strategy=strategy, seed=run.seed).build(store, labels)
                took, _ = self._drive_alone(loader, f"dataloading.sweep.{strategy}")
                self.note(name, store.num_rows / took)

    def _drive_alone(self, loader, span: str) -> tuple[float, int]:
        """One ``epoch()`` with no consumer work: seconds inside ``next()``, batches."""
        inside = 0.0
        batches = 0
        try:
            with self.tracer.span(span):
                iterator = iter(loader.epoch())
                while True:
                    began = time.perf_counter()
                    batch = next(iterator, None)
                    inside += time.perf_counter() - began
                    if batch is None:
                        break
                    batches += 1
        finally:
            loader.close()
        return inside, batches

    def _driven_epoch(self, run: WorkloadRun, session) -> None:
        """The trainer's loop written out here, one span per step of each batch."""
        from repro.tensor.losses import cross_entropy
        from repro.training import TrainerConfig

        tracer = self.tracer
        loader_config = session.loader_config
        model = session.model(run.workload.model)
        model.train()
        optimizer = TrainerConfig(seed=run.seed).build_optimizer(model.parameters())
        if loader_config.prefetch:
            from repro.dataloading import PrefetchLoader

            # as the trainer does: a worker pool's slot ring must also cover the prefetch queue
            loader = session.loader(dataclasses.replace(loader_config, keep=loader_config.prefetch_depth + 2))
            source = PrefetchLoader(loader, depth=loader_config.prefetch_depth)
        else:
            source = loader = session.loader()
        phases = {"stall": 0.0, "forward": 0.0, "backward": 0.0, "optimizer": 0.0}

        @contextmanager
        def phase(name: str, span: str) -> Iterator[None]:
            with tracer.span(span):
                began = time.perf_counter()
                try:
                    yield
                finally:
                    phases[name] += time.perf_counter() - began

        def epoch() -> None:
            iterator = iter(source.epoch())
            while True:
                with phase("stall", "dataloading.next"):
                    batch = next(iterator, None)
                if batch is None:
                    break
                with phase("forward", "models.forward"):
                    loss = cross_entropy(model(batch.hop_features), batch.labels)
                with phase("backward", "tensor.backward"):
                    optimizer.zero_grad()
                    loss.backward()
                with phase("optimizer", "tensor.optimizer"):
                    optimizer.step()

        try:
            # the first epoch of a new model, optimizer and (forked) worker pool pays their
            # first-touch and copy-on-write faults: let it pass, as the trainer's median does
            with self.tracer.span("training.driven_warmup"):
                epoch()
            phases.update(dict.fromkeys(phases, 0.0))
            with self.timed("training.driven_epoch") as took:
                epoch()
        finally:
            loader.close()
        self.note("dataloading.stall_s_per_epoch", phases["stall"])
        self.note("dataloading.stall_share", phases["stall"] / took[0])
        self.note("models.forward_s_per_epoch", phases["forward"])
        self.note("tensor.backward_s_per_epoch", phases["backward"])
        self.note("tensor.optimizer_s_per_epoch", phases["optimizer"])
        epoch_s = statistics.median(self.tracer.durations("training.train_epoch", self.tracer.pass_index))
        self.note("training.loop_overhead_s", epoch_s - sum(phases.values()))

    # ------------------------------------------------------------------ #
    def after_closed(self, run: WorkloadRun, session, engine, before: dict, closed) -> None:
        with self.guard(
            "serving.cache_hit_rate", "serving.coalesced_share", "serving.mean_batch_rows",
            "serving.cpu_us_per_request",
        ):
            after = engine.snapshot()

            def delta(key: str, inner: Optional[str] = None) -> float:
                if inner is None:
                    return after.get(key, 0) - before.get(key, 0)
                return after.get(key, {}).get(inner, 0) - before.get(key, {}).get(inner, 0)

            hits, misses = delta("cache", "hits"), delta("cache", "misses")
            coalesced = delta("coalesced_window") + delta("coalesced_inflight")
            requests = delta("requests")
            self.note("serving.cache_hit_rate", hits / max(hits + misses, 1))
            self.note("serving.coalesced_share", coalesced / max(requests, 1))
            self.note("serving.mean_batch_rows", (requests - coalesced) / max(delta("batches"), 1))
            self.note("serving.cpu_us_per_request", closed.cpu_s / max(closed.attempted, 1) * 1e6)
        self._fetch_probes(run, session)

    def _fetch_probes(self, run: WorkloadRun, session) -> None:
        """``fetch`` hit, miss and batch cost on a private engine with a small cache."""
        store = session.store
        rng = np.random.default_rng([run.seed, 0xFE7C])
        distinct = min(256, store.num_rows)
        rows = rng.choice(store.num_rows, size=distinct, replace=False)
        capacity = max(distinct // 4, 1)
        repeats = 3 if self.smoke else 10
        block_bytes = distinct * store.num_matrices * store.feature_dim * store.dtype.itemsize
        names = ("serving.fetch1_hit_us", "serving.fetch1_miss_us", "serving.fetch256_us")
        with self.guard(*names, "serving.gather_direct256_us", "serving.gather_roofline_frac"):
            from repro.serving import ServingEngine

            engine = ServingEngine(store, run.serving_config(capacity), graph=session.dataset.graph)
            try:
                with self.tracer.span("serving.fetch_probe"):
                    hot = [int(rows[0])]
                    engine.fetch(hot)
                    self.note(names[0], _median_call_us(lambda: engine.fetch(hot), 200))
                    # cycling through more distinct rows than the LRU holds: every call misses
                    cycle = iter(np.tile(rows, repeats).tolist())
                    self.note(names[1], _median_call_us(lambda: engine.fetch([next(cycle)]), distinct * repeats))
                    self.note(names[2], _median_call_us(lambda: engine.fetch(rows), repeats))
                    with self.guard("serving.gather_direct256_us", "serving.gather_roofline_frac"):
                        direct_us = _median_call_us(lambda: engine.gather_direct(rows), repeats)
                        self.note("serving.gather_direct256_us", direct_us)
                        self.note(
                            "serving.gather_roofline_frac", block_bytes / (direct_us * 1e-6) / self.take_rate()
                        )
            finally:
                engine.close()

        with self.guard("serving.adaptive_depth_ratio"):
            from repro.serving import ServingEngine

            cold = {}
            for adaptive in (False, True):
                config = dataclasses.replace(
                    run.serving_config(), cache_policy="none", adaptive_depth=adaptive
                )
                engine = ServingEngine(store, config, graph=session.dataset.graph)
                try:
                    with self.tracer.span("serving.adaptive_probe"):
                        cold[adaptive] = _median_call_us(lambda: engine.fetch(rows), repeats)
                finally:
                    engine.close()
            self.note("serving.adaptive_depth_ratio", cold[True] / cold[False])

    # ------------------------------------------------------------------ #
    def after_serving(self, run: WorkloadRun, session, engine, opened: dict, rng) -> None:
        spec = run.workload
        result = opened.get("result")
        with self.guard(
            "serving.submit_call_us", "serving.resolve_wait_ms", "serving.generator_late_ms",
            "serving.pass_p99_ms", "serving.pass_max_ms", "serving.coalesce_overhead_ms",
        ):
            if result is None:
                raise RuntimeError("the open-loop segment produced no result")
            self.note("serving.submit_call_us", statistics.median(result.submit_calls) * 1e6)
            self.note("serving.resolve_wait_ms", statistics.median(result.resolve_waits) * 1e3)
            self.note("serving.generator_late_ms", np.percentile(result.lateness * 1e3, 99.0))
            self.note("serving.pass_p99_ms", opened["p99_ms"])
            self.note("serving.pass_max_ms", opened["max_ms"])
            hit_rate = self.values.get("serving.cache_hit_rate") or 0.0
            hit_us = self.values.get("serving.fetch1_hit_us")
            miss_us = self.values.get("serving.fetch1_miss_us")
            if hit_us is None or miss_us is None:
                raise RuntimeError("fetch probes unavailable")
            fetch_ms = (hit_rate * hit_us + (1.0 - hit_rate) * miss_us) / 1e3
            self.note("serving.coalesce_overhead_ms", opened["p50_ms"] - fetch_ms)
        if run.pruned is None:
            self.missing("updates.pruned_versions", "VersionedStore.prune is gone")
        else:
            self.note("updates.pruned_versions", run.pruned)

        sweep_names = [f"serving.p99_ms.r{factor}" for factor in SWEEP_FACTORS]
        with self.guard(*sweep_names, "serving.max_rate_ok"):
            seconds = 0.05 if self.smoke else 1.0
            best = 0.0
            for factor, name in zip(SWEEP_FACTORS, sweep_names):
                rate = spec.open_rate * factor
                rows = loadgen.make_rows(rng, int(rate * seconds), session.store.num_rows, spec.zipf)
                with self.tracer.span(f"serving.sweep.r{factor}"):
                    swept = loadgen.open_loop(engine.submit, rows, rate)
                # a capacity probe is expected to overload: its failures are not failed operations
                latencies_ms = swept.latencies * 1e3
                _, p99 = tail(latencies_ms, 99.0)
                if p99 is None:
                    raise RuntimeError(f"too few answers at {rate:.0f} req/s to report a tail")
                self.note(name, p99)
                third = max(latencies_ms.size // 3, 1)
                growing = np.median(latencies_ms[-third:]) > 2.0 * np.median(latencies_ms[:third]) + 1.0
                if swept.failed == 0 and p99 <= RATE_OK_P99_MS and not growing:
                    best = max(best, rate)
            self.note("serving.max_rate_ok", best)

        with self.guard("serving.shed", "serving.expired", "serving.retried", "serving.respawns"):
            snapshot = engine.snapshot()
            for key in ("shed", "expired", "retried", "respawns"):
                self.note(f"serving.{key}", snapshot[key])

    # ------------------------------------------------------------------ #
    def before_update(self, run: WorkloadRun, session, delta, store_root: Path, root: Path) -> None:
        graph, features = session.dataset.graph, session.dataset.features
        config = run.propagation_config()
        store = session.store
        layers_s = 0.0
        patch_rows = None
        with self.guard(
            "updates.apply_delta_s", "updates.frontier_s", "updates.frontier_nodes",
            "updates.compute_patches_s", "updates.patched_rows",
        ):
            from repro.updates import affected_frontier, apply_delta, apply_features, compute_patches

            with self.timed("updates.apply_delta") as took:
                new_graph = apply_delta(graph, delta)
            self.note("updates.apply_delta_s", took[0])
            layers_s += took[0]
            with self.timed("updates.affected_frontier") as took:
                affected = affected_frontier(graph, new_graph, delta, config)
            self.note("updates.frontier_s", took[0])
            self.note("updates.frontier_nodes", affected.size)
            layers_s += took[0]
            new_features = apply_features(features, delta)
            with self.timed("updates.compute_patches") as took:
                _, patch_rows, _ = compute_patches(new_graph, new_features, config, store.node_ids, affected)
            self.note("updates.compute_patches_s", took[0])
            self.note("updates.patched_rows", patch_rows.size)
            layers_s += took[0]

        probe_root = root / "probe-update" / "store"
        with self.guard(
            "updates.apply_update_s", "updates.commit_residual_s", "updates.write_amplification",
            "serving.adopt_store_s",
        ):
            from repro.serving import ServingEngine
            from repro.updates import apply_update

            if patch_rows is None:
                raise RuntimeError("layer calls unavailable (see updates.compute_patches_s)")
            with self.tracer.span("bench.copy"):
                shutil.copytree(store_root, probe_root)
            with self.timed("updates.apply_update") as took:
                result = apply_update(probe_root, graph, features, delta, config)
            self.echo("updates", getattr(result, "timing", None))
            self.note("updates.apply_update_s", took[0])
            self.note("updates.commit_residual_s", took[0] - layers_s)
            version_dir = Path(result.store.root)
            written = sum(path.stat().st_size for path in version_dir.iterdir() if path.is_file())
            patched = patch_rows.size * store.num_matrices * store.feature_dim * store.dtype.itemsize
            self.note("updates.write_amplification", written / max(patched, 1))

            engine = ServingEngine(store, run.serving_config(), graph=graph)
            try:
                with self.timed("serving.adopt_store") as took:
                    engine.begin_update(result.version)
                    engine.adopt_store(result.store, version=result.version, invalidate_rows=result.patch_rows)
                self.note("serving.adopt_store_s", took[0])
            finally:
                engine.close()
        shutil.rmtree(root / "probe-update", ignore_errors=True)

    # ------------------------------------------------------------------ #
    def finish(self, run: WorkloadRun, traced: dict, untraced_lifecycle_s: float, generate_s: float) -> None:
        """Numbers that need the whole traced pass: attribution, overhead, host."""
        tracer = self.tracer
        index = traced["index"]
        self.note("datasets.generate_s", generate_s)
        self.note("api.session_close_s", traced["segments"].get("close", 0.0))
        self.note("api.unattributed_s", tracer.self_times(index).get("pass", 0.0))
        self.note("trace.overhead_share", traced["lifecycle_s"] / untraced_lifecycle_s - 1.0)
        self.note("api.fail_share", run.recorder.failed / max(run.recorder.attempted, 1))
        if run.host is not None:
            self.note("host.index", statistics.median(index for _, index in run.host.bursts))
        for key in ("memcpy_gb_per_s", "take_gb_per_s", "fresh_page_gb_per_s"):
            self.note(f"host.{key}", statistics.median(s[key] for s in self.host_samples))
        memcpy = [s["memcpy_gb_per_s"] for s in self.host_samples]
        middle = statistics.median(memcpy)
        # samples come in (before, after) pairs, one pair per pass
        pairs = [memcpy[i : i + 2] for i in range(0, len(memcpy), 2)]
        self.note(
            "host.disturbed_passes",
            sum(any(abs(rate / middle - 1.0) > DISTURBED for rate in pair) for pair in pairs),
        )


def _median_call_us(call, repeats: int) -> float:
    """Median duration of ``call()`` over ``repeats`` calls, in microseconds."""
    durations = []
    for _ in range(repeats):
        began = time.perf_counter()
        call()
        durations.append(time.perf_counter() - began)
    return statistics.median(durations) * 1e6
