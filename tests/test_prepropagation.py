"""Tests for hop-wise feature propagation, the feature store and the pipeline."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.operators import normalized_adjacency
from repro.prepropagation import (
    FeatureStore,
    HopFeatures,
    PreprocessingPipeline,
    PropagationConfig,
    propagate_features,
)
from repro.prepropagation.propagator import expanded_bytes, flops_estimate


class TestPropagationConfig:
    def test_num_matrices_is_input_expansion_factor(self):
        config = PropagationConfig(num_hops=3, operators=("normalized_adjacency", "ppr"))
        assert config.num_matrices == 2 * 4

    def test_invalid_hops(self):
        with pytest.raises(ValueError):
            PropagationConfig(num_hops=-1)

    def test_empty_operators(self):
        with pytest.raises(ValueError):
            PropagationConfig(num_hops=2, operators=())

    def test_kwargs_length_mismatch(self):
        with pytest.raises(ValueError):
            PropagationConfig(num_hops=2, operators=("ppr",), operator_kwargs=({}, {}))


class TestPropagateFeatures:
    def test_hop_zero_is_raw_features(self, tiny_graph):
        features = np.random.default_rng(0).standard_normal((8, 4)).astype(np.float32)
        hop_feats, _ = propagate_features(tiny_graph, features, PropagationConfig(num_hops=2))
        assert np.allclose(hop_feats[0][0], features)

    def test_matches_manual_operator_powers(self, tiny_graph):
        features = np.random.default_rng(1).standard_normal((8, 3))
        config = PropagationConfig(num_hops=3)
        hop_feats, _ = propagate_features(tiny_graph, features, config)
        operator = normalized_adjacency(tiny_graph)
        expected = features.copy()
        for r in range(1, 4):
            expected = operator @ expected
            assert np.allclose(hop_feats[0][r], expected.astype(np.float32), atol=1e-5)

    def test_multiple_kernels(self, tiny_graph):
        features = np.ones((8, 2))
        config = PropagationConfig(num_hops=1, operators=("normalized_adjacency", "random_walk"))
        hop_feats, _ = propagate_features(tiny_graph, features, config)
        assert len(hop_feats) == 2
        assert len(hop_feats[0]) == 2

    def test_feature_shape_validation(self, tiny_graph):
        with pytest.raises(ValueError):
            propagate_features(tiny_graph, np.ones((5, 2)), PropagationConfig(num_hops=1))

    def test_timing_reported(self, tiny_graph):
        _, timing = propagate_features(tiny_graph, np.ones((8, 2)), PropagationConfig(num_hops=1))
        assert timing["total_seconds"] >= 0
        assert set(timing) == {"operator_seconds", "propagate_seconds", "total_seconds"}

    def test_propagation_preserves_scale(self, small_dataset):
        """Normalized-adjacency propagation must not blow up feature magnitudes."""
        config = PropagationConfig(num_hops=4)
        hop_feats, _ = propagate_features(small_dataset.graph, small_dataset.features, config)
        raw_norm = np.linalg.norm(small_dataset.features)
        assert np.linalg.norm(hop_feats[0][-1]) < 2.0 * raw_norm

    def test_flops_and_bytes_estimates(self, tiny_graph):
        config = PropagationConfig(num_hops=2)
        assert flops_estimate(tiny_graph, 4, config) > 0
        assert expanded_bytes(100, 10, config) == 100 * 10 * 4 * 3

    def test_invalid_accumulate_dtype_rejected(self):
        with pytest.raises(ValueError):
            PropagationConfig(num_hops=1, accumulate_dtype="float16")
        with pytest.raises(ValueError):
            PropagationConfig(num_hops=1, accumulate_dtype="int64")

    def test_float32_accumulation_close_to_float64(self, tiny_graph):
        features = np.random.default_rng(2).standard_normal((8, 4)).astype(np.float32)
        hops64, _ = propagate_features(
            tiny_graph, features, PropagationConfig(num_hops=3)
        )
        hops32, _ = propagate_features(
            tiny_graph, features, PropagationConfig(num_hops=3, accumulate_dtype="float32")
        )
        for m64, m32 in zip(hops64[0], hops32[0]):
            assert m32.dtype == np.float32
            assert np.allclose(m64, m32, atol=1e-6)


class TestHopFeatures:
    def _make(self, rows=6, dim=3, hops=2):
        rng = np.random.default_rng(0)
        mats = [[rng.standard_normal((rows, dim)).astype(np.float32) for _ in range(hops + 1)]]
        return HopFeatures(node_ids=np.arange(rows) * 2, matrices=mats)

    def test_properties(self):
        hf = self._make()
        assert hf.num_rows == 6
        assert hf.num_hops == 2
        assert hf.num_kernels == 1
        assert hf.feature_dim == 3
        assert len(hf.hop_list()) == 3

    def test_gather_rows(self):
        hf = self._make()
        gathered = hf.gather(np.array([0, 5]))
        assert all(g.shape == (2, 3) for g in gathered)

    def test_restrict(self):
        hf = self._make()
        sub = hf.restrict(np.array([1, 2]))
        assert sub.num_rows == 2
        assert np.array_equal(sub.node_ids, hf.node_ids[[1, 2]])

    def test_misaligned_matrices_rejected(self):
        with pytest.raises(ValueError):
            HopFeatures(node_ids=np.arange(3), matrices=[[np.zeros((4, 2))]])

    def test_empty_matrices_rejected(self):
        with pytest.raises(ValueError):
            HopFeatures(node_ids=np.arange(3), matrices=[])

    def test_from_full_matrices_slices_rows(self):
        full = [[np.arange(20).reshape(10, 2).astype(np.float32)]]
        hf = HopFeatures.from_full_matrices(full, np.array([2, 7]))
        assert np.allclose(hf.matrices[0][0], [[4, 5], [14, 15]])


class TestFeatureStore:
    def test_in_memory_gather(self, prepared_store):
        store = prepared_store.store
        rows = np.array([0, 1, 5])
        gathered = store.gather(rows)
        assert len(gathered) == store.num_matrices
        assert gathered[0].shape == (3, store.feature_dim)

    def test_iter_chunks_cover_all_rows(self, prepared_store):
        store = prepared_store.store
        seen = 0
        for rows, mats in store.iter_chunks(chunk_size=200):
            seen += rows.size
            assert mats[0].shape[0] == rows.size
        assert seen == store.num_rows

    def test_iter_chunks_invalid(self, prepared_store):
        with pytest.raises(ValueError):
            list(prepared_store.store.iter_chunks(0))

    def test_file_backed_round_trip(self, small_dataset, tmp_path):
        config = PropagationConfig(num_hops=1)
        result = PreprocessingPipeline(config, root=tmp_path / "store").run(small_dataset)
        store = result.store
        assert store.is_file_backed
        assert sorted(p.name for p in (tmp_path / "store").iterdir()) == [
            "meta.json", "node_ids.npy", "packed.npy"
        ]
        rows = np.array([0, 3, 7])
        assert np.allclose(store.gather(rows)[0], store.gather(rows, memmap=True)[0])
        reloaded = FeatureStore.load(tmp_path / "store")
        assert reloaded.num_rows == store.num_rows

    def test_memmap_requires_file_backing(self, prepared_store):
        with pytest.raises(RuntimeError):
            prepared_store.store.packed_matrix(memmap=True)

    def test_load_missing_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            FeatureStore.load(tmp_path / "nothing")

    # -------------------------- packed layout ------------------------- #
    def test_packed_matches_hop_list(self, prepared_store):
        store = prepared_store.store
        packed = store.packed_matrix()
        assert packed.shape == (store.num_matrices, store.num_rows, store.feature_dim)
        for idx, matrix in enumerate(store.matrices()):
            assert np.array_equal(packed[idx], matrix)

    def test_gather_packed_matches_gather(self, prepared_store):
        store = prepared_store.store
        rows = np.array([3, 0, 11, 3])
        block = store.gather_packed(rows)
        reference = store.gather(rows)
        assert block.shape[0] == len(reference)
        for idx, matrix in enumerate(reference):
            assert np.array_equal(block[idx], matrix)

    def test_gather_packed_into_preallocated_out(self, prepared_store):
        store = prepared_store.store
        rows = np.array([1, 2, 8])
        out = np.empty((store.num_matrices, 3, store.feature_dim), dtype=store.dtype)
        returned = store.gather_packed(rows, out=out)
        assert returned is out
        assert np.array_equal(out[0], store.gather(rows)[0])

    def test_packed_file_layout_round_trip(self, small_dataset, tmp_path):
        config = PropagationConfig(num_hops=2)
        result = PreprocessingPipeline(config, root=tmp_path / "pk").run(small_dataset)
        store = result.store
        assert store.packed_path == tmp_path / "pk" / "packed.npy"
        rows = np.array([0, 4, 9])
        assert np.array_equal(store.gather_packed(rows), store.gather_packed(rows, memmap=True))
        reloaded = FeatureStore.load(tmp_path / "pk")
        assert reloaded.num_matrices == store.num_matrices
        assert np.array_equal(reloaded.packed_matrix(), store.packed_matrix())

    def test_invalid_layout_rejected(self, prepared_store):
        features = prepared_store.store._features
        for layout in ("hops", "columnar"):
            with pytest.raises(ValueError, match="per-hop layout was removed"):
                FeatureStore(features, layout=layout)
        assert FeatureStore(features, layout="packed").num_rows == features.num_rows

    # --------------------- multi-kernel load regression ---------------- #
    @pytest.mark.parametrize("layout", ["packed"])
    def test_multi_kernel_load_round_trip(self, tmp_path, layout):
        """Regression: load() used to collapse multi-kernel stores into one kernel."""
        rng = np.random.default_rng(0)
        matrices = [
            [rng.standard_normal((12, 5)).astype(np.float32) for _ in range(3)] for _ in range(2)
        ]
        features = HopFeatures(node_ids=np.arange(12) * 3, matrices=matrices)
        FeatureStore(features, root=tmp_path / "mk", layout=layout)
        reloaded = FeatureStore.load(tmp_path / "mk")
        assert reloaded.num_kernels == 2
        assert reloaded.num_hops == 2
        assert reloaded.num_matrices == 6
        for kernel_got, kernel_want in zip(reloaded._features.matrices, matrices):
            for got, want in zip(kernel_got, kernel_want):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("layout", ["packed"])
    def test_multi_kernel_gather_round_trip(self, tmp_path, layout):
        """Kernel/hop ordering must survive save -> load -> gather verbatim.

        Each matrix carries a unique (kernel, hop) watermark so a flat-index
        permutation anywhere in the round trip cannot cancel out; the gathers
        (both per-matrix and fused packed) must hand back the kernel-major,
        hop-minor order that ``meta.json`` records.
        """
        num_kernels, hops_plus_one = 3, 4
        matrices = [
            [
                np.full((10, 4), 100.0 * k + r, dtype=np.float32)
                + np.arange(10, dtype=np.float32)[:, None]
                for r in range(hops_plus_one)
            ]
            for k in range(num_kernels)
        ]
        original = HopFeatures(node_ids=np.arange(10) * 7, matrices=matrices)
        FeatureStore(original, root=tmp_path / "mkg", layout=layout)

        meta = json.loads((tmp_path / "mkg" / "meta.json").read_text())
        assert meta["num_kernels"] == num_kernels
        assert meta["num_hops"] == hops_plus_one - 1
        assert meta["layout"] == layout

        reloaded = FeatureStore.load(tmp_path / "mkg")
        rows = np.array([9, 0, 4])
        gathered = reloaded.gather(rows)
        assert len(gathered) == num_kernels * hops_plus_one
        for k in range(num_kernels):
            for r in range(hops_plus_one):
                flat = k * hops_plus_one + r
                assert np.array_equal(gathered[flat], matrices[k][r][rows]), (
                    f"kernel {k} hop {r} came back out of order"
                )
        block = reloaded.gather_packed(rows)
        assert np.array_equal(block, np.stack(original.gather(rows)))

    def test_legacy_store_is_rejected(self, tmp_path, legacy_store):
        """Per-hop stores from older releases (with or without meta.json) are
        refused with a message naming the root, by every reader."""
        from repro.prepropagation.blocked import open_store_arrays

        for layout in ("hops", None):
            root = legacy_store(tmp_path / f"legacy-{layout}", layout)
            for read in (FeatureStore.load, open_store_arrays):
                with pytest.raises(ValueError, match="re-run preprocessing") as caught:
                    read(root)
                assert str(root) in str(caught.value)


class TestPipeline:
    def test_result_accounting(self, prepared_store, small_dataset):
        result = prepared_store
        labeled = small_dataset.split.num_labeled
        assert result.labeled_rows == labeled
        # 2 hops -> 3 matrices -> expansion factor 3
        assert result.expansion_factor == pytest.approx(3.0)
        assert result.expanded_feature_bytes == 3 * result.raw_feature_bytes
        assert result.wall_seconds > 0

    def test_store_rows_match_labeled_nodes(self, prepared_store, small_dataset):
        store = prepared_store.store
        labeled = np.unique(
            np.concatenate([small_dataset.split.train, small_dataset.split.valid, small_dataset.split.test])
        )
        assert np.array_equal(store.node_ids, labeled)

    def test_summary_keys(self, prepared_store):
        assert {"hops", "kernels", "wall_seconds", "expansion_factor"} <= set(prepared_store.summary())

    def test_summary_is_self_describing(self, prepared_store):
        """Tab-7 runs need the accumulation dtype and engine in the record."""
        summary = prepared_store.summary()
        assert summary["accumulate_dtype"] == prepared_store.config.accumulate_dtype
        assert summary["mode"] == "in_core"
        assert {"operator_seconds", "propagate_seconds", "store_write_seconds"} <= set(summary)

    def test_estimated_flops_positive(self, small_dataset):
        pipeline = PreprocessingPipeline(PropagationConfig(num_hops=2))
        assert pipeline.estimated_flops(small_dataset) > 0


@settings(max_examples=10, deadline=None)
@given(hops=st.integers(min_value=0, max_value=4), dim=st.integers(min_value=1, max_value=6))
def test_property_expansion_factor_is_hops_plus_one(hops, dim):
    """Stored bytes grow exactly as K(R+1) — the input-expansion law (Section 3.4)."""
    config = PropagationConfig(num_hops=hops)
    assert expanded_bytes(10, dim, config) == 10 * dim * 4 * (hops + 1)
