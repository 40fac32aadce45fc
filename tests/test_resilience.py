"""Tests for the fault-tolerant data path (PR 6).

Three layers, one contract — *a fault costs work, never correctness*:

* **Checkpoint/resume** — the blocked pre-propagation engine interrupted at
  any phase boundary (via the deterministic fault harness) resumes to a
  store **byte-identical** to an uninterrupted run, recomputing only the
  unfinished phases; torn store/scratch bytes are detected by digest and
  recomputed; a changed graph/config fingerprint invalidates stale staging.
  A block worker that dies or raises fails the build by name and leaves the
  previous store whole.
* **Self-healing loading** — a SIGKILLed or stalled loader worker is
  respawned (bounded, backed-off) and the epoch's batches stay bit-identical
  in content and order; with the respawn budget spent the loader degrades to
  in-process assembly instead of raising, and the counters say exactly what
  happened.
* **Janitor** — ``ppgnn-*`` shared-memory segments orphaned by dead creators
  are swept; live owners are never touched.

Every fault in this file is injected through a seeded
:class:`~repro.resilience.faultinject.FaultPlan` — no timing games, no
flakiness: the same plan fires the same faults at the same visits.
"""

from __future__ import annotations

import ast
import dataclasses
import json
import multiprocessing
import os
import pickle
import time
from pathlib import Path

import numpy as np
import pytest

from repro.dataloading import MultiProcessLoader, build_loader
from repro.dataloading.shm import SharedPackedStore
from repro.datasets.registry import load_dataset
from repro.models.registry import build_pp_model
from repro.prepropagation.blocked import propagate_blocked
from repro.prepropagation.pipeline import PreprocessingPipeline
from repro.prepropagation.propagator import PropagationConfig
from repro.prepropagation.store import FeatureStore
from repro.resilience import faultinject
from repro.resilience.checkpoint import (
    PhaseJournal,
    RunManifest,
    digest_array,
    digest_parts,
    run_parts,
)
from repro.resilience.faultinject import (
    FaultPlan,
    FaultSpec,
    InjectedFault,
    assert_known_sites,
    fault_point,
)
from repro.resilience.janitor import main as janitor_main
from repro.resilience.janitor import orphaned_segments, sweep_orphans
from repro.resilience.supervisor import ResilienceCounters, SupervisorPolicy
from repro.training.loop import PPGNNTrainer, TrainerConfig

MULTI_KERNEL_CONFIG = PropagationConfig(
    num_hops=3, operators=("normalized_adjacency", "random_walk")
)
NUM_PHASES = MULTI_KERNEL_CONFIG.num_matrices  # 2 kernels x (3 hops + 1) = 8


@pytest.fixture(scope="module")
def sparse_label_dataset():
    """Papers100M-style replica: labeled rows are a sparse sorted subset."""
    return load_dataset("papers100m", seed=5, num_nodes=2200)


@pytest.fixture(scope="module")
def labeled_rows(sparse_label_dataset):
    split = sparse_label_dataset.split
    return np.unique(np.concatenate([split.train, split.valid, split.test]))


def _propagate(dataset, labeled, root, layout, **kwargs):
    return propagate_blocked(
        dataset.graph,
        dataset.features,
        MULTI_KERNEL_CONFIG,
        labeled,
        root=root,
        layout=layout,
        block_size=512,
        **kwargs,
    )


def _interrupt_at(dataset, labeled, root, layout, boundary, **kwargs):
    """Run with ``resume=True`` and crash right after ``boundary`` phases."""
    plan = FaultPlan(
        specs=[FaultSpec(site="blocked.phase.complete", kind="error", at_hit=boundary)]
    )
    with pytest.raises(InjectedFault):
        _propagate(dataset, labeled, root, layout, resume=True, fault_plan=plan, **kwargs)


def _assert_store_bytes_equal(reference_root, candidate_root):
    for name in ("packed.npy", "node_ids.npy"):
        assert (candidate_root / name).read_bytes() == (reference_root / name).read_bytes(), name
    assert json.loads((candidate_root / "meta.json").read_text()) == json.loads(
        (reference_root / "meta.json").read_text()
    )


# =========================================================================== #
# fault-injection harness
# =========================================================================== #
class TestFaultHarness:
    def test_spec_validation(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(site="loader.worker.batch", kind="explode")
        with pytest.raises(ValueError, match="1-based"):
            FaultSpec(site="loader.worker.batch", kind="kill", at_hit=0)
        with pytest.raises(ValueError, match="unknown injection site"):
            assert_known_sites([FaultSpec(site="no.such.site", kind="kill")])

    def test_no_active_plan_is_noop(self):
        assert faultinject._ACTIVE is None
        assert fault_point("loader.worker.batch", worker_id=0) is None

    def test_fires_at_exact_hit_with_context_match(self):
        plan = FaultPlan(
            specs=[
                FaultSpec(
                    site="loader.worker.batch",
                    kind="error",
                    at_hit=2,
                    match={"worker_id": 1},
                )
            ]
        )
        # non-matching context never counts as a visit
        assert plan.consult("loader.worker.batch", {"worker_id": 0}) is None
        assert plan.consult("loader.worker.batch", {"worker_id": 1}) is None  # hit 1
        spec = plan.consult("loader.worker.batch", {"worker_id": 1})  # hit 2: fires
        assert spec is not None and spec.kind == "error"
        assert plan.consult("loader.worker.batch", {"worker_id": 1}) is None  # hit 3
        assert plan.fired == [("loader.worker.batch", "error", 2)]

    def test_repeat_widens_the_firing_window(self):
        plan = FaultPlan(
            specs=[FaultSpec(site="blocked.phase.start", kind="leak", at_hit=2, repeat=1)]
        )
        fired = [plan.consult("blocked.phase.start", {}) is not None for _ in range(4)]
        assert fired == [False, True, True, False]

    def test_hit_counters_reset_across_pickling(self):
        plan = FaultPlan(specs=[FaultSpec(site="blocked.phase.start", kind="leak", at_hit=1)])
        assert plan.consult("blocked.phase.start", {}) is not None
        clone = pickle.loads(pickle.dumps(plan))
        # the clone counts visits from scratch, as a fresh worker process would
        assert clone.consult("blocked.phase.start", {}) is not None
        assert clone.fired == [("blocked.phase.start", "leak", 1)]

    def test_fault_kinds_apply(self):
        plan = FaultPlan(
            specs=[
                FaultSpec(site="blocked.phase.start", kind="error", at_hit=1),
                FaultSpec(site="blocked.phase.complete", kind="ioerror", at_hit=1),
                FaultSpec(
                    site="blocked.scratch.write", kind="stall", at_hit=1, stall_seconds=0.05
                ),
            ]
        )
        with pytest.raises(InjectedFault):
            fault_point("blocked.phase.start", plan=plan)
        with pytest.raises(OSError, match="injected I/O error"):
            fault_point("blocked.phase.complete", plan=plan)
        began = time.perf_counter()
        fault_point("blocked.scratch.write", plan=plan)
        assert time.perf_counter() - began >= 0.05

    def test_active_context_manager_restores_previous(self):
        outer = FaultPlan()
        inner = FaultPlan()
        with outer.active():
            assert faultinject._ACTIVE is outer
            with inner.active():
                assert faultinject._ACTIVE is inner
            assert faultinject._ACTIVE is outer
        assert faultinject._ACTIVE is None

    def test_randomized_plan_is_seed_deterministic(self):
        a = FaultPlan.randomized(seed=42, num_faults=3, max_hit=10)
        b = FaultPlan.randomized(seed=42, num_faults=3, max_hit=10)
        assert a.specs == b.specs
        c = FaultPlan.randomized(seed=43, num_faults=3, max_hit=10)
        assert a.specs != c.specs
        assert_known_sites(a.specs)  # randomized plans only name real sites

    def test_known_sites_are_exactly_the_visited_sites(self):
        """``KNOWN_SITES`` is the set of site names ``fault_point`` is called with
        in ``src/repro``: a registered site nothing visits would let a plan pass
        :func:`assert_known_sites` and inject nothing."""
        package = Path(faultinject.__file__).resolve().parents[1]
        visited, dynamic = set(), []
        for path in sorted(package.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name != "fault_point":
                    continue
                site = node.args[0] if node.args else None
                if isinstance(site, ast.Constant) and isinstance(site.value, str):
                    visited.add(site.value)
                else:
                    dynamic.append(f"{path.relative_to(package)}:{node.lineno}")
        assert dynamic == [], "fault_point calls whose site is not a string literal"
        assert set(faultinject.KNOWN_SITES) == visited


# =========================================================================== #
# checkpoint primitives
# =========================================================================== #
class TestCheckpointPrimitives:
    def test_digest_tracks_content_not_storage(self, tmp_path):
        array = np.arange(24, dtype=np.float32).reshape(4, 6)
        path = tmp_path / "a.npy"
        np.save(path, array)
        memmapped = np.load(path, mmap_mode="r")
        assert digest_array(array) == digest_array(memmapped)
        assert digest_array(array) != digest_array(array.astype(np.float64))
        changed = array.copy()
        changed[3, 5] += 1
        assert digest_array(array) != digest_array(changed)

    def test_journal_append_roundtrip_and_torn_tail(self, tmp_path):
        journal = PhaseJournal(tmp_path / "staging")
        entries = [{"kernel": 0, "hop": h, "store_digest": f"d{h}"} for h in range(3)]
        with journal:
            for entry in entries:
                journal.append(entry)
        assert journal.entries() == entries
        # a torn (half-written) trailing line is dropped, earlier entries survive
        with open(journal.journal_path, "a") as handle:
            handle.write('{"kernel": 1, "hop"')
        assert journal.entries() == entries

    def test_journal_torn_middle_line_drops_the_tail(self, tmp_path):
        journal = PhaseJournal(tmp_path / "staging")
        journal.append({"hop": 0})
        journal.close()
        raw = journal.journal_path.read_text()
        journal.journal_path.write_text(raw + "garbage not json\n" + '{"hop": 1}\n')
        # ordering past a torn line is untrustworthy: only the prefix counts
        assert journal.entries() == [{"hop": 0}]

    def test_manifest_roundtrip_and_garbage(self, tmp_path):
        journal = PhaseJournal(tmp_path / "staging")
        manifest = RunManifest(
            fingerprint="abc",
            layout="packed",
            num_kernels=2,
            num_hops=3,
            num_rows=10,
            feature_dim=4,
            dtype="<f4",
            accumulate_dtype="<f8",
            block_size=512,
        )
        journal.write_manifest(manifest)
        assert journal.load_manifest() == manifest
        journal.manifest_path.write_text("{not json")
        assert journal.load_manifest() is None

    def test_discard_removes_run_state(self, tmp_path):
        journal = PhaseJournal(tmp_path / "staging")
        journal.write_manifest(
            RunManifest("f", "hops", 1, 2, 3, 4, "<f4", "<f8", 128)
        )
        journal.append({"hop": 0})
        journal.discard()
        assert not journal.manifest_path.exists()
        assert not journal.journal_path.exists()
        assert journal.load_manifest() is None and journal.entries() == []

    @pytest.mark.parametrize(
        "dtype, pinned",
        [
            ("float32", "d739ec82bd847ad72ccce0b9c14e091f"),
            ("float64", "95d6aa70c7e77718e818774a9ecf8fbb"),
        ],
    )
    def test_build_fingerprint_is_pinned(self, tiny_graph, dtype, pinned):
        """A resumable build staged by an earlier release still resumes: the
        values were computed by the blocked engine's own fingerprint before it
        and the update's were merged into :func:`run_parts`."""
        features = np.arange(8 * 3, dtype=np.float32).reshape(8, 3)
        config = PropagationConfig(num_hops=2, dtype=dtype)
        parts = run_parts(tiny_graph, features, config, np.arange(0, 8, 2))
        assert digest_parts(parts) == pinned


# =========================================================================== #
# checkpoint/resume of the blocked engine
# =========================================================================== #
class TestBlockedResume:
    def test_resume_requires_root(self, sparse_label_dataset, labeled_rows):
        with pytest.raises(ValueError, match="resume=True requires"):
            propagate_blocked(
                sparse_label_dataset.graph,
                sparse_label_dataset.features,
                MULTI_KERNEL_CONFIG,
                labeled_rows,
                resume=True,
            )

    @pytest.mark.parametrize("layout", ["packed"])
    def test_resume_after_every_phase_boundary(
        self, sparse_label_dataset, labeled_rows, tmp_path, layout
    ):
        """Crash after each of the 8 phases; resume must be byte-identical.

        Also proves resume recomputes *only* the unfinished phases, via the
        engine's phase counters.
        """
        reference = tmp_path / "reference"
        _propagate(sparse_label_dataset, labeled_rows, reference, layout)
        for boundary in range(1, NUM_PHASES + 1):
            root = tmp_path / f"interrupted-{boundary}"
            _interrupt_at(sparse_label_dataset, labeled_rows, root, layout, boundary)
            staging = root.parent / f".{root.name}.staging"
            assert (staging / "journal.log").exists()  # the checkpoint survived
            _, timing = _propagate(
                sparse_label_dataset, labeled_rows, root, layout, resume=True
            )
            assert timing["phases_resumed"] == boundary
            assert timing["phases_computed"] == NUM_PHASES - boundary
            _assert_store_bytes_equal(reference, root)
            assert not staging.exists()  # run state cleaned up on success

    @pytest.mark.parametrize("layout", ["packed"])
    def test_resume_with_worker_pool(
        self, sparse_label_dataset, labeled_rows, tmp_path, layout
    ):
        """Interrupt + resume with 2 propagation workers stays byte-identical."""
        reference = tmp_path / "reference"
        _propagate(sparse_label_dataset, labeled_rows, reference, layout)
        root = tmp_path / "workers"
        _interrupt_at(
            sparse_label_dataset, labeled_rows, root, layout, boundary=5, num_workers=2
        )
        _, timing = _propagate(
            sparse_label_dataset, labeled_rows, root, layout, resume=True, num_workers=2
        )
        assert timing["phases_resumed"] == 5
        _assert_store_bytes_equal(reference, root)

    def test_resume_across_block_size_change(
        self, sparse_label_dataset, labeled_rows, tmp_path
    ):
        """The fingerprint excludes tiling: a resumed run may re-plan blocks."""
        reference = tmp_path / "reference"
        _propagate(sparse_label_dataset, labeled_rows, reference, "packed")
        root = tmp_path / "reblocked"
        _interrupt_at(sparse_label_dataset, labeled_rows, root, "packed", boundary=3)
        _, timing = propagate_blocked(
            sparse_label_dataset.graph,
            sparse_label_dataset.features,
            MULTI_KERNEL_CONFIG,
            labeled_rows,
            root=root,
            block_size=1024,  # different tiling, same bytes
            resume=True,
        )
        assert timing["phases_resumed"] == 3
        _assert_store_bytes_equal(reference, root)

    def test_fingerprint_change_invalidates_stale_staging(
        self, sparse_label_dataset, labeled_rows, tmp_path
    ):
        root = tmp_path / "store"
        _interrupt_at(sparse_label_dataset, labeled_rows, root, "packed", boundary=3)
        changed = sparse_label_dataset.features.copy()
        changed[0, 0] += 1.0
        _, timing = propagate_blocked(
            sparse_label_dataset.graph,
            changed,
            MULTI_KERNEL_CONFIG,
            labeled_rows,
            root=root,
            block_size=512,
            resume=True,
        )
        # nothing journaled under the old fingerprint may be trusted
        assert timing["phases_resumed"] == 0
        assert timing["phases_computed"] == NUM_PHASES

    def test_legacy_partial_build_is_discarded_not_resumed(
        self, sparse_label_dataset, labeled_rows, tmp_path, monkeypatch
    ):
        """A float32 run staged by a release that accumulated in float64
        carries the pre-upgrade fingerprint (``"accumulate_dtype": "float64"``)
        and other bytes: it is rolled back, never resumed, and the rebuild is
        byte-identical to a fresh one."""
        from repro.prepropagation import blocked as blocked_module

        reference = tmp_path / "reference"
        _propagate(sparse_label_dataset, labeled_rows, reference, "packed")
        root = tmp_path / "legacy"
        hashed = []
        real = blocked_module.digest_parts
        monkeypatch.setattr(
            blocked_module, "digest_parts", lambda parts: (hashed.append(parts), real(parts))[1]
        )
        _interrupt_at(sparse_label_dataset, labeled_rows, root, "packed", boundary=5)
        monkeypatch.undo()
        assert hashed[-1]["accumulate_dtype"] == "float32"
        journal = PhaseJournal(root.parent / f".{root.name}.staging")
        manifest = journal.load_manifest()
        assert manifest.fingerprint == real(hashed[-1])
        journal.write_manifest(
            dataclasses.replace(
                manifest,
                fingerprint=real({**hashed[-1], "accumulate_dtype": "float64"}),
                accumulate_dtype="<f8",
            )
        )
        _, timing = _propagate(
            sparse_label_dataset, labeled_rows, root, "packed", resume=True
        )
        assert timing["phases_resumed"] == 0
        assert timing["phases_computed"] == NUM_PHASES
        _assert_store_bytes_equal(reference, root)

    def test_torn_store_write_is_detected_and_recomputed(
        self, sparse_label_dataset, labeled_rows, tmp_path
    ):
        reference = tmp_path / "reference"
        _propagate(sparse_label_dataset, labeled_rows, reference, "packed")
        root = tmp_path / "torn"
        _interrupt_at(sparse_label_dataset, labeled_rows, root, "packed", boundary=4)
        staging = root.parent / f".{root.name}.staging"
        # damage one byte of the *first* journaled phase's store region
        packed = np.load(staging / "packed.npy", mmap_mode="r+")
        packed[0, 0, 0] += 1.0
        packed.flush()
        del packed
        _, timing = _propagate(
            sparse_label_dataset, labeled_rows, root, "packed", resume=True
        )
        # the digest mismatch at phase 1 invalidates the whole journaled prefix
        assert timing["phases_resumed"] == 0
        _assert_store_bytes_equal(reference, root)

    def test_torn_scratch_rolls_kernel_back_to_hop_one(
        self, sparse_label_dataset, labeled_rows, tmp_path
    ):
        reference = tmp_path / "reference"
        _propagate(sparse_label_dataset, labeled_rows, reference, "packed")
        root = tmp_path / "torn-scratch"
        # phases (0,0), (0,1), (0,2) journaled; next phase (0,3) reads the
        # ping/pong file written by (0,2)
        _interrupt_at(sparse_label_dataset, labeled_rows, root, "packed", boundary=3)
        staging = root.parent / f".{root.name}.staging"
        with open(staging / "scratch" / "s1.dat", "r+b") as handle:
            handle.seek(0)
            handle.write(b"\xff" * 8)
        _, timing = _propagate(
            sparse_label_dataset, labeled_rows, root, "packed", resume=True
        )
        # the kernel's SpMM chain restarts at hop 1; hop 0 (features copy) holds
        assert timing["phases_resumed"] == 1
        _assert_store_bytes_equal(reference, root)

    def test_pipeline_resume(self, sparse_label_dataset, tmp_path):
        config = PropagationConfig(num_hops=2)
        reference_root = tmp_path / "reference"
        PreprocessingPipeline(
            config, root=reference_root, mode="blocked", block_size=512
        ).run(sparse_label_dataset)
        root = tmp_path / "resumable"
        plan = FaultPlan(
            specs=[FaultSpec(site="blocked.phase.complete", kind="error", at_hit=2)]
        )
        with plan.active(), pytest.raises(InjectedFault):
            PreprocessingPipeline(
                config,
                root=root,
                mode="blocked",
                block_size=512,
                resume=True,
            ).run(sparse_label_dataset)
        result = PreprocessingPipeline(
            config,
            root=root,
            mode="blocked",
            block_size=512,
            resume=True,
        ).run(sparse_label_dataset)
        assert result.timing["phases_resumed"] == 2
        assert (root / "packed.npy").read_bytes() == (
            reference_root / "packed.npy"
        ).read_bytes()

    def test_pipeline_resume_validation(self, tmp_path):
        with pytest.raises(ValueError, match="requires a persistent root"):
            PreprocessingPipeline(PropagationConfig(), resume=True)
        with pytest.raises(ValueError, match="only supported by the blocked mode"):
            PreprocessingPipeline(
                PropagationConfig(), root=tmp_path / "s", mode="in_core", resume=True
            )


# =========================================================================== #
# failures in the blocked-propagation worker pool
# =========================================================================== #
class TestBlockPoolFailures:
    """The block pool is fail-fast: a worker that dies or raises fails the
    build with its name and exit code or traceback, and leaves the previous
    store whole with no staging, scratch, segment or worker process behind."""

    @pytest.mark.parametrize(
        "kind, diagnosis",
        [("kill", "died with exit code -9 during propagation"), ("error", "raised during propagation")],
    )
    def test_failed_block_worker_fails_the_build_and_keeps_the_old_store(
        self, sparse_label_dataset, tmp_path, kind, diagnosis
    ):
        root = tmp_path / "store"
        scratch = tmp_path / "scratch"
        scratch.mkdir()
        PreprocessingPipeline(
            PropagationConfig(num_hops=1), root=root, mode="blocked", block_size=512
        ).run(sparse_label_dataset)
        previous = {path.name: path.read_bytes() for path in root.iterdir()}
        # blocks are dealt round-robin, so block 512 is worker 1's first block
        plan = FaultPlan(
            specs=[
                FaultSpec(
                    site="blocked.scratch.write",
                    kind=kind,
                    match={"kernel": 0, "hop": 1, "block_start": 512},
                )
            ]
        )
        pipeline = PreprocessingPipeline(
            PropagationConfig(num_hops=2),
            root=root,
            mode="blocked",
            block_size=512,
            num_workers=2,
            scratch_dir=scratch,
        )
        with plan.active(), pytest.raises(RuntimeError) as excinfo:
            pipeline.run(sparse_label_dataset)
        message = str(excinfo.value)
        assert message.startswith(f"worker ppgnn-propagate-1 {diagnosis}")
        if kind == "error":
            assert "InjectedFault: injected fault at blocked.scratch.write" in message
        FeatureStore.load(root)
        assert {path.name: path.read_bytes() for path in root.iterdir()} == previous
        assert sorted(path.name for path in tmp_path.iterdir()) == ["scratch", "store"]
        assert list(scratch.iterdir()) == []
        assert [p.name for p in multiprocessing.active_children() if p.name.startswith("ppgnn-")] == []


# =========================================================================== #
# self-healing loader workers
# =========================================================================== #
POLICY = SupervisorPolicy(
    max_respawns=2,
    backoff_seconds=0.01,
    stall_timeout_seconds=0.5,
    batch_deadline_seconds=0.2,
)


@pytest.fixture()
def store_and_labels(prepared_store, small_dataset):
    store = prepared_store.store
    return store, small_dataset.labels[store.node_ids]


def _materialize_epoch(loader):
    out = []
    for batch in loader.epoch():
        out.append(
            (
                batch.row_indices.copy(),
                [np.array(m, copy=True) for m in batch.hop_features],
                batch.labels.copy(),
            )
        )
    return out


def _assert_epochs_identical(expected, got):
    assert len(expected) == len(got)
    for (rows_a, feats_a, labels_a), (rows_b, feats_b, labels_b) in zip(expected, got):
        assert np.array_equal(rows_a, rows_b)
        assert np.array_equal(labels_a, labels_b)
        for m_a, m_b in zip(feats_a, feats_b):
            assert m_a.dtype == m_b.dtype
            assert np.array_equal(m_a, m_b)


def _reference_epochs(store, labels, num_epochs=2):
    loader = build_loader("baseline", store, labels, batch_size=64, seed=11)
    return [_materialize_epoch(loader) for _ in range(num_epochs)]


class TestSelfHealingLoader:
    def test_policy_validation(self):
        with pytest.raises(ValueError, match="max_respawns"):
            SupervisorPolicy(max_respawns=-1)
        with pytest.raises(ValueError, match="stall_timeout"):
            SupervisorPolicy(stall_timeout_seconds=0)
        assert SupervisorPolicy(backoff_seconds=0.1, max_backoff_seconds=0.3).backoff_for(
            3
        ) == pytest.approx(0.3)

    def test_counters_snapshot_delta(self):
        counters = ResilienceCounters(respawns=2, inline_batches=3)
        earlier = {"respawns": 1, "inline_batches": 0}
        delta = counters.delta_since(earlier)
        assert delta["respawns"] == 1 and delta["inline_batches"] == 3
        assert counters.degraded

    def test_sigkilled_worker_respawns_bit_identical(self, store_and_labels):
        store, labels = store_and_labels
        expected = _reference_epochs(store, labels)
        plan = FaultPlan(
            specs=[
                FaultSpec(
                    site="loader.worker.batch",
                    kind="kill",
                    at_hit=2,
                    # generation pin: the respawned incarnation is not re-killed
                    match={"worker_id": 0, "generation": 0},
                )
            ]
        )
        inner = build_loader("baseline", store, labels, batch_size=64, seed=11)
        with MultiProcessLoader(
            inner, num_workers=2, keep=2, timeout_seconds=30.0, policy=POLICY, fault_plan=plan
        ) as loader:
            _assert_epochs_identical(expected[0], _materialize_epoch(loader))
            _assert_epochs_identical(expected[1], _materialize_epoch(loader))
            snapshot = loader.counters.snapshot()
        assert snapshot["worker_crashes"] == 1
        assert snapshot["respawns"] == 1
        assert snapshot["requeued_batches"] >= 1
        assert snapshot["inline_batches"] == 0  # budget never ran out

    @pytest.mark.parametrize("max_respawns", [2, 0], ids=["respawned", "degraded"])
    def test_sigkilled_worker_keeps_the_model_input_selection(self, store_and_labels, max_respawns):
        """An SGC selection survives the respawn hand-off and inline assembly."""
        store, labels = store_and_labels
        inputs = range(store.num_matrices - 1, store.num_matrices)  # SGC's deepest hop
        plan = FaultPlan(
            specs=[
                FaultSpec(
                    site="loader.worker.batch",
                    kind="kill",
                    at_hit=2,
                    match={"worker_id": 0, "generation": 0},
                )
            ]
        )
        policy = SupervisorPolicy(
            max_respawns=max_respawns,
            backoff_seconds=0.01,
            stall_timeout_seconds=0.5,
            batch_deadline_seconds=0.2,
        )
        reference = build_loader("fused", store, labels, batch_size=64, seed=11)
        reference.select_inputs(inputs)
        expected = [_materialize_epoch(reference) for _ in range(2)]
        inner = build_loader("fused", store, labels, batch_size=64, seed=11)
        inner.select_inputs(inputs)
        with MultiProcessLoader(
            inner, num_workers=2, keep=2, timeout_seconds=30.0, policy=policy, fault_plan=plan
        ) as loader:
            for epoch in expected:
                got = _materialize_epoch(loader)
                _assert_epochs_identical(epoch, got)
                for rows, feats, _ in got:
                    assert np.stack(feats).tobytes() == store.gather_packed(rows)[-1:].tobytes()
            snapshot = loader.counters.snapshot()
        assert snapshot["worker_crashes"] == 1
        assert snapshot["respawns"] == min(max_respawns, 1)
        assert (snapshot["inline_batches"] > 0) == (max_respawns == 0)

    def test_stalled_worker_is_killed_and_respawned(self, store_and_labels):
        store, labels = store_and_labels
        expected = _reference_epochs(store, labels)
        plan = FaultPlan(
            specs=[
                FaultSpec(
                    site="loader.worker.batch",
                    kind="stall",
                    at_hit=2,
                    stall_seconds=60.0,  # far beyond the policy deadlines
                    match={"worker_id": 1, "generation": 0},
                )
            ]
        )
        inner = build_loader("baseline", store, labels, batch_size=64, seed=11)
        with MultiProcessLoader(
            inner, num_workers=2, keep=2, timeout_seconds=30.0, policy=POLICY, fault_plan=plan
        ) as loader:
            _assert_epochs_identical(expected[0], _materialize_epoch(loader))
            _assert_epochs_identical(expected[1], _materialize_epoch(loader))
            snapshot = loader.counters.snapshot()
        assert snapshot["worker_stalls"] == 1
        assert snapshot["respawns"] == 1

    def test_budget_zero_degrades_to_inline_assembly(self, store_and_labels):
        """max_respawns=0: the first crash degrades gracefully, never raises."""
        store, labels = store_and_labels
        expected = _reference_epochs(store, labels)
        plan = FaultPlan(
            specs=[
                FaultSpec(
                    site="loader.worker.batch",
                    kind="kill",
                    at_hit=1,
                    match={"worker_id": 0, "generation": 0},
                )
            ]
        )
        policy = SupervisorPolicy(
            max_respawns=0,
            backoff_seconds=0.01,
            stall_timeout_seconds=0.5,
            batch_deadline_seconds=0.2,
        )
        inner = build_loader("baseline", store, labels, batch_size=64, seed=11)
        with MultiProcessLoader(
            inner, num_workers=2, keep=2, timeout_seconds=30.0, policy=policy, fault_plan=plan
        ) as loader:
            _assert_epochs_identical(expected[0], _materialize_epoch(loader))
            # the degraded worker stays retired across epochs
            _assert_epochs_identical(expected[1], _materialize_epoch(loader))
            assert loader.counters.degraded
            snapshot = loader.counters.snapshot()
        assert snapshot["respawns"] == 0
        assert snapshot["inline_batches"] > 0

    def test_fail_fast_error_carries_exit_code_and_heartbeat_age(self, store_and_labels):
        store, labels = store_and_labels
        plan = FaultPlan(
            specs=[
                FaultSpec(
                    site="loader.worker.batch", kind="kill", at_hit=1, match={"worker_id": 0}
                )
            ]
        )
        inner = build_loader("baseline", store, labels, batch_size=64, seed=11)
        with MultiProcessLoader(
            inner, num_workers=2, keep=2, timeout_seconds=10.0, fault_plan=plan
        ) as loader:
            with pytest.raises(RuntimeError, match=r"died with exit code -9") as excinfo:
                _materialize_epoch(loader)
            assert "heartbeat" in str(excinfo.value)

    def test_trainer_surfaces_resilience_counters(self, prepared_store, small_dataset):
        """End-to-end: a worker killed mid-fit shows up in TrainingHistory,
        and the healed run's losses match a single-process run exactly."""
        store = prepared_store.store
        labels = small_dataset.labels[store.node_ids]

        def run(config_kwargs, plan=None):
            model = build_pp_model(
                "sign",
                in_features=small_dataset.num_features,
                num_classes=small_dataset.num_classes,
                num_hops=2,
                seed=0,
            )
            loader = build_loader("fused", store, labels, 256, seed=0)
            config = TrainerConfig(
                num_epochs=2, batch_size=256, eval_every=2, seed=0, **config_kwargs
            )
            # the plan must be active while the trainer *constructs* the
            # multi-process loader: workers inherit it at fork time
            from contextlib import nullcontext

            with plan.active() if plan is not None else nullcontext():
                trainer = PPGNNTrainer(model, loader, small_dataset, config)
                try:
                    return trainer.fit()
                finally:
                    trainer.close()

        reference = run({})
        plan = FaultPlan(
            specs=[
                FaultSpec(
                    site="loader.worker.batch",
                    kind="kill",
                    at_hit=1,
                    match={"worker_id": 0, "generation": 0},
                )
            ]
        )
        healed = run({"num_workers": 2, "loader_policy": POLICY}, plan=plan)
        losses = [[r.train_loss for r in history.records] for history in (healed, reference)]
        assert losses[0] == losses[1]  # bit-identical batches
        assert sum(r.loader_respawns for r in healed.records) == 1
        assert sum(r.loader_requeued_batches for r in healed.records) >= 1
        assert not any(r.loader_inline_batches for r in healed.records)  # not degraded
        assert healed.records[0].loader_respawns == 1  # counted in the right epoch
        assert healed.records[1].loader_respawns == 0


# =========================================================================== #
# shared-memory janitor
# =========================================================================== #
class TestJanitor:
    @pytest.fixture()
    def dead_pid(self):
        import multiprocessing as mp

        process = mp.get_context("fork").Process(target=lambda: None)
        process.start()
        process.join()
        return process.pid

    def test_sweeps_only_dead_creators(self, tmp_path, dead_pid):
        orphan = tmp_path / f"ppgnn-store-{dead_pid}-deadbeef"
        live = tmp_path / f"ppgnn-store-{os.getpid()}-cafebabe"
        foreign = tmp_path / "something-else-entirely"
        malformed = tmp_path / f"ppgnn-store-{dead_pid}"  # no token suffix
        for path in (orphan, live, foreign, malformed):
            path.write_bytes(b"x")
        assert orphaned_segments(shm_dir=tmp_path) == [orphan]
        swept = sweep_orphans(shm_dir=tmp_path)
        assert swept == [orphan]
        assert not orphan.exists()
        assert live.exists() and foreign.exists() and malformed.exists()

    def test_dry_run_reports_without_unlinking(self, tmp_path, dead_pid):
        orphan = tmp_path / f"ppgnn-slots-{dead_pid}-00ff00ff"
        orphan.write_bytes(b"x")
        assert sweep_orphans(shm_dir=tmp_path, dry_run=True) == [orphan]
        assert orphan.exists()

    def test_cli(self, tmp_path, dead_pid, capsys):
        orphan = tmp_path / f"ppgnn-store-{dead_pid}-0badf00d"
        orphan.write_bytes(b"x")
        assert janitor_main(["--dry-run", "--shm-dir", str(tmp_path)]) == 0
        assert "would sweep 1" in capsys.readouterr().out
        assert orphan.exists()
        assert janitor_main(["--shm-dir", str(tmp_path)]) == 0
        assert "swept 1" in capsys.readouterr().out
        assert not orphan.exists()

    def test_injected_leak_is_a_real_shm_orphan(self, prepared_store):
        """The ``shm.unlink`` fault leaves a live segment for the janitor path."""
        plan = FaultPlan(specs=[FaultSpec(site="shm.unlink", kind="leak", at_hit=1)])
        shared = SharedPackedStore(prepared_store.store)
        name = shared.handle.shm_name
        with plan.active():
            shared.close()
        leaked = f"/dev/shm/{name}"
        assert os.path.exists(leaked)  # the unlink was skipped, as planned
        # our own pid is alive, so the janitor must refuse to touch it ...
        assert orphaned_segments() == []
        # ... and the test cleans up what it deliberately leaked
        os.unlink(leaked)