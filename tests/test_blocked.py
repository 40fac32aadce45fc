"""Equivalence suite for the blocked out-of-core propagation engine.

The contract of :mod:`repro.prepropagation.blocked`: under the same config
(so the same accumulation dtype, the store's), the blocked engine writes
stores **bit-identical** to the in-core reference path — across kernels,
hops, file-backed or in-memory stores, and worker counts — while never
materializing a full-graph hop matrix in RAM.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import tracemalloc

import numpy as np
import pytest

from repro.datasets.registry import load_dataset
from repro.graph.operators import build_operator
from repro.prepropagation import (
    FeatureStore,
    PreprocessingPipeline,
    PropagationConfig,
    propagate_blocked,
)

#: >= 2 kernels x 3 hops, per the acceptance criteria
MULTI_KERNEL_CONFIG = PropagationConfig(
    num_hops=3, operators=("normalized_adjacency", "random_walk")
)


@pytest.fixture(scope="module")
def sparse_label_dataset():
    """A papers100M-style replica: only ~1.4% of nodes are labeled.

    Sparse labels exercise the streaming labeled-row restriction (most blocks
    contribute few or no store rows), which the dense-label fixtures cannot.
    """
    return load_dataset("papers100m", seed=5, num_nodes=2200)


def _assert_stores_equal(reference, candidate):
    assert np.array_equal(reference.node_ids, candidate.node_ids)
    assert reference.num_kernels == candidate.num_kernels
    assert reference.num_hops == candidate.num_hops
    ref_mats = reference.matrices()
    got_mats = candidate.matrices()
    assert len(ref_mats) == len(got_mats)
    for index, (ref, got) in enumerate(zip(ref_mats, got_mats)):
        assert np.array_equal(np.asarray(ref), np.asarray(got)), f"matrix {index} differs bit-wise"


class TestBlockedEqualsInCore:
    @pytest.mark.parametrize("layout", ["packed"])
    @pytest.mark.parametrize("num_workers", [0, 2])
    def test_file_backed_bit_identical_float64(
        self, sparse_label_dataset, tmp_path, layout, num_workers
    ):
        config = dataclasses.replace(MULTI_KERNEL_CONFIG, dtype="float64")
        reference = PreprocessingPipeline(
            config, root=tmp_path / "ref", store_layout=layout
        ).run(sparse_label_dataset)
        blocked = PreprocessingPipeline(
            config,
            root=tmp_path / "blk",
            store_layout=layout,
            mode="blocked",
            block_size=317,  # deliberately not a divisor of num_nodes
            num_workers=num_workers,
        ).run(sparse_label_dataset)
        _assert_stores_equal(reference.store, blocked.store)
        assert sorted(p.name for p in (tmp_path / "blk").iterdir()) == [
            "meta.json", "node_ids.npy", "packed.npy"
        ]
        # byte accounting is mode-independent
        assert blocked.expanded_feature_bytes == reference.expanded_feature_bytes
        assert blocked.labeled_rows == reference.labeled_rows

    @pytest.mark.parametrize("num_workers", [0, 2])
    def test_in_memory_store_bit_identical(self, sparse_label_dataset, num_workers):
        reference = PreprocessingPipeline(MULTI_KERNEL_CONFIG).run(sparse_label_dataset)
        blocked = PreprocessingPipeline(
            MULTI_KERNEL_CONFIG, mode="blocked", block_size=400, num_workers=num_workers
        ).run(sparse_label_dataset)
        assert not blocked.store.is_file_backed
        _assert_stores_equal(reference.store, blocked.store)

    def test_float32_accumulation_self_consistent(self, sparse_label_dataset, tmp_path):
        """A float32 store accumulates in float32 in every mode, so blocked
        matches in-core bit for bit.  (Its distance from a float64 build is
        the bound ``test_prepropagation`` checks hop by hop.)"""
        assert MULTI_KERNEL_CONFIG.dtype == "float32"
        reference32 = PreprocessingPipeline(MULTI_KERNEL_CONFIG).run(sparse_label_dataset)
        blocked32 = PreprocessingPipeline(
            MULTI_KERNEL_CONFIG, root=tmp_path / "blk32",
            mode="blocked", block_size=251,
        ).run(sparse_label_dataset)
        assert reference32.store.dtype == blocked32.store.dtype == np.float32
        _assert_stores_equal(reference32.store, blocked32.store)

    def test_single_block_covers_whole_graph(self, small_dataset, tmp_path):
        config = PropagationConfig(num_hops=2)
        reference = PreprocessingPipeline(config).run(small_dataset)
        blocked = PreprocessingPipeline(
            config, mode="blocked", block_size=10 * small_dataset.num_nodes
        ).run(small_dataset)
        _assert_stores_equal(reference.store, blocked.store)

    def test_non_contiguous_features_stage_through_scratch(self, small_dataset):
        """A strided feature view must not be materialized as a full copy."""
        wide = np.concatenate([small_dataset.features] * 2, axis=1)
        strided = wide[:, : small_dataset.features.shape[1]]  # non-contiguous view
        assert not strided.flags.c_contiguous
        config = PropagationConfig(num_hops=2)
        labeled = np.arange(0, small_dataset.num_nodes, 3, dtype=np.int64)
        reference, _ = propagate_blocked(
            small_dataset.graph, small_dataset.features.copy(), config, labeled, block_size=400
        )
        staged, _ = propagate_blocked(
            small_dataset.graph, strided, config, labeled, block_size=400
        )
        _assert_stores_equal(reference, staged)

    def test_zero_hops(self, small_dataset):
        config = PropagationConfig(num_hops=0)
        reference = PreprocessingPipeline(config).run(small_dataset)
        blocked = PreprocessingPipeline(config, mode="blocked", block_size=128).run(
            small_dataset
        )
        _assert_stores_equal(reference.store, blocked.store)

    def test_blocked_store_loads_like_in_core_store(self, sparse_label_dataset, tmp_path):
        """meta.json written by the engine is indistinguishable from FeatureStore's."""
        PreprocessingPipeline(
            MULTI_KERNEL_CONFIG, root=tmp_path / "ref"
        ).run(sparse_label_dataset)
        PreprocessingPipeline(
            MULTI_KERNEL_CONFIG,
            root=tmp_path / "blk",
            mode="blocked",
            block_size=500,
        ).run(sparse_label_dataset)
        ref_meta = json.loads((tmp_path / "ref" / "meta.json").read_text())
        blk_meta = json.loads((tmp_path / "blk" / "meta.json").read_text())
        assert ref_meta == blk_meta


class TestBlockedEngineBehavior:
    def test_timing_phases_reported(self, small_dataset):
        result = PreprocessingPipeline(
            PropagationConfig(num_hops=2), mode="blocked", block_size=256
        ).run(small_dataset)
        assert result.mode == "blocked"
        assert {
            "operator_seconds",
            "propagate_seconds",
            "store_write_seconds",
            "total_seconds",
            "num_blocks",
            "block_size",
        } <= set(result.timing)
        assert result.timing["num_blocks"] == -(-small_dataset.num_nodes // 256)
        assert result.wall_seconds > 0

    def test_auto_mode_picks_blocked_over_budget(self, small_dataset):
        tiny_budget = PreprocessingPipeline(
            PropagationConfig(num_hops=2), mode="auto", memory_budget_bytes=1024
        )
        huge_budget = PreprocessingPipeline(
            PropagationConfig(num_hops=2), mode="auto", memory_budget_bytes=1 << 40
        )
        assert tiny_budget.run(small_dataset).mode == "blocked"
        assert huge_budget.run(small_dataset).mode == "in_core"

    def test_auto_mode_prices_the_labeled_store_and_two_hops(self, sparse_label_dataset):
        """auto charges the in-core run what it holds: ``M n F`` stored bytes
        (labeled rows only) plus two ``(N, F)`` hops, all in the float32 store
        dtype the chain accumulates in."""
        dataset = sparse_label_dataset
        config = PropagationConfig(num_hops=2)
        working_set = dataset.num_features * (
            dataset.split.num_labeled * 4 * config.num_matrices + dataset.num_nodes * 2 * 4
        )
        fits = PreprocessingPipeline(config, mode="auto", memory_budget_bytes=working_set)
        over = PreprocessingPipeline(config, mode="auto", memory_budget_bytes=working_set - 1)
        assert fits.run(dataset).mode == "in_core"
        assert over.run(dataset).mode == "blocked"

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            PreprocessingPipeline(PropagationConfig(num_hops=1), mode="streamed")

    def test_engine_validates_inputs(self, small_dataset):
        graph = small_dataset.graph
        features = small_dataset.features
        config = PropagationConfig(num_hops=1)
        with pytest.raises(ValueError, match="at least one stored row"):
            propagate_blocked(graph, features, config, np.array([], dtype=np.int64))
        with pytest.raises(ValueError, match="sorted and unique"):
            propagate_blocked(graph, features, config, np.array([3, 1, 2]))
        with pytest.raises(ValueError, match="out of range"):
            propagate_blocked(graph, features, config, np.array([0, graph.num_nodes]))
        with pytest.raises(ValueError, match="block_size"):
            propagate_blocked(graph, features, config, np.array([0, 1]), block_size=0)
        with pytest.raises(ValueError, match="per-hop layout was removed"):
            propagate_blocked(graph, features, config, np.array([0, 1]), layout="hops")

    def test_scratch_is_cleaned_up(self, small_dataset, tmp_path):
        PreprocessingPipeline(
            PropagationConfig(num_hops=3),
            mode="blocked",
            block_size=200,
            scratch_dir=tmp_path,
        ).run(small_dataset)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("mode", ["in_core", "blocked"])
    def test_failed_run_leaves_no_partial_store_files(
        self, small_dataset, tmp_path, monkeypatch, mode
    ):
        """A crash mid-propagation must not leave half-written hop slabs at root."""
        from repro.prepropagation import blocked as blocked_module

        def boom(*args, **kwargs):
            raise RuntimeError("injected phase failure")

        monkeypatch.setattr(blocked_module, "_run_phase", boom)
        root = tmp_path / "partial"
        with pytest.raises(RuntimeError, match="injected"):
            PreprocessingPipeline(
                PropagationConfig(num_hops=2),
                root=root,
                mode=mode,
                block_size=256,
            ).run(small_dataset)
        assert not (root / "packed.npy").exists()
        assert not (root / "meta.json").exists()

    @pytest.mark.parametrize("mode", ["in_core", "blocked"])
    def test_failed_rerun_preserves_previous_store_at_same_root(
        self, small_dataset, tmp_path, monkeypatch, mode
    ):
        """Output is staged and renamed into place: a crashed rerun must leave
        the earlier valid store untouched (and no staging residue)."""
        from repro.prepropagation import blocked as blocked_module
        root = tmp_path / "reused"
        first = PreprocessingPipeline(
            PropagationConfig(num_hops=1), root=root, mode=mode, block_size=512
        ).run(small_dataset)
        assert (root / "meta.json").exists()

        def boom(*args, **kwargs):
            raise RuntimeError("injected phase failure")

        monkeypatch.setattr(blocked_module, "_run_phase", boom)
        with pytest.raises(RuntimeError, match="injected"):
            PreprocessingPipeline(
                PropagationConfig(num_hops=2), root=root, mode=mode, block_size=512
            ).run(small_dataset)
        # the old store still loads verbatim, and no staging dirs are left over
        reloaded = FeatureStore.load(root)
        _assert_stores_equal(first.store, reloaded)
        assert [p for p in tmp_path.iterdir() if p.name != "reused"] == []

    @pytest.mark.parametrize("mode", ["in_core", "blocked"])
    def test_successful_rerun_replaces_previous_store(self, small_dataset, tmp_path, mode):
        """A different-config rerun at the same root swaps cleanly — no stale mix."""
        root = tmp_path / "swapped"
        PreprocessingPipeline(
            PropagationConfig(num_hops=1), root=root, mode=mode, block_size=512
        ).run(small_dataset)
        result = PreprocessingPipeline(
            PropagationConfig(num_hops=2), root=root, mode=mode, block_size=512
        ).run(small_dataset)
        reference = PreprocessingPipeline(PropagationConfig(num_hops=2)).run(small_dataset)
        reloaded = FeatureStore.load(root)
        assert reloaded.num_hops == result.store.num_hops == 2
        _assert_stores_equal(reference.store, reloaded)
        # no file of the first store and no staging residue is left over
        assert sorted(p.name for p in root.iterdir()) == ["meta.json", "node_ids.npy", "packed.npy"]
        assert [p for p in tmp_path.iterdir() if p.name != "swapped"] == []

    def test_spawn_workers_stage_features_instead_of_pickling(
        self, sparse_label_dataset, tmp_path
    ):
        """Spawn-mode workers read features from a scratch memmap, bit-identically."""
        reference = PreprocessingPipeline(PropagationConfig(num_hops=2)).run(
            sparse_label_dataset
        )
        labeled = reference.store.node_ids
        store, _ = propagate_blocked(
            sparse_label_dataset.graph,
            sparse_label_dataset.features,
            PropagationConfig(num_hops=2),
            labeled,
            root=tmp_path / "spawned",
            block_size=600,
            num_workers=2,
            start_method="spawn",
        )
        _assert_stores_equal(reference.store, store)

    def test_blocked_peak_memory_is_bounded_by_the_block(self, tmp_path):
        """Blocked's peak traced heap is at least 4x below in-core's, and below
        one full-graph hop matrix in the store (accumulation) dtype.

        NumPy registers its allocations with ``tracemalloc``; the blocked
        engine's scratch and store files are memory-mapped page cache and stay
        out of the count, which is the resident-vs-spillable split the engine
        is built around.  Peaks are deterministic, so no wall clock is read.
        """
        dataset = load_dataset("igb-medium", seed=0, num_nodes=2000)
        config = PropagationConfig(num_hops=3)

        def peak_bytes(mode):
            pipeline = PreprocessingPipeline(
                config,
                root=tmp_path / mode,
                mode=mode,
                block_size=250,
                scratch_dir=tmp_path,
            )
            gc.collect()
            tracemalloc.start()
            try:
                pipeline.run(dataset)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        in_core, blocked = peak_bytes("in_core"), peak_bytes("blocked")
        assert in_core >= 4 * blocked, f"in-core peak {in_core} B, blocked peak {blocked} B"
        hop_matrix = dataset.num_nodes * dataset.num_features * np.dtype(config.dtype).itemsize
        assert blocked < hop_matrix, f"blocked peak {blocked} B, one hop matrix {hop_matrix} B"

    @pytest.mark.parametrize(
        "name, dataset_kwargs, num_hops",
        [
            ("igb-medium", dict(seed=0, num_nodes=2000), 3),  # every node labeled
            ("wiki", dict(seed=0, num_nodes=1500), 6),  # 7 matrices of 600-dim rows
            ("papers100m", dict(seed=5, num_nodes=20_000), 3),  # ~1.4% labeled
        ],
        ids=["igb-medium", "wiki", "papers100m"],
    )
    def test_in_core_peak_memory_is_the_store_plus_two_hops(
        self, tmp_path, name, dataset_kwargs, num_hops
    ):
        """The in-core (one-block) run holds the store, the CSR operator and
        two full-graph hops, all in the float32 store dtype the chain
        accumulates in — the SpMM's input and output, the floor of a chain
        that keeps a hop's input until its product exists — and nothing else
        beyond 5% of the store.  Traced like the blocked bound above.  Peak
        over store: 1.53 (igb), 1.32 (wiki), 41 (papers, ~1.4% labeled)."""
        dataset = load_dataset(name, **dataset_kwargs)
        config = PropagationConfig(num_hops=num_hops)
        dtype = np.dtype(config.dtype)
        assert dtype == np.float32
        operator = build_operator(config.operators[0], dataset.graph).astype(dtype)
        operator_bytes = operator.data.nbytes + operator.indices.nbytes + operator.indptr.nbytes
        del operator
        pipeline = PreprocessingPipeline(config, root=tmp_path / name)
        gc.collect()
        tracemalloc.start()
        try:
            result = pipeline.run(dataset)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        store = result.store.nbytes()
        hops = 2 * dataset.num_nodes * dataset.num_features * dtype.itemsize
        bound = store + hops + operator_bytes + 0.05 * store
        assert peak <= bound, (
            f"in-core peak {peak} B exceeds store {store} + two hops {hops} + "
            f"operator {operator_bytes} B (+5% of the store)"
        )

    def test_worker_pool_with_more_workers_than_blocks(self, small_dataset):
        """Idle workers (blocks < workers) must still barrier correctly."""
        reference = PreprocessingPipeline(PropagationConfig(num_hops=2)).run(small_dataset)
        blocked = PreprocessingPipeline(
            PropagationConfig(num_hops=2),
            mode="blocked",
            block_size=small_dataset.num_nodes,  # a single block
            num_workers=3,
        ).run(small_dataset)
        _assert_stores_equal(reference.store, blocked.store)
