"""Tests for dataset replicas, splits and the paper-statistics catalog."""

import numpy as np
import pytest

from repro.datasets import (
    PAPER_DATASETS,
    NodeClassificationDataset,
    available_datasets,
    load_dataset,
    make_synthetic_dataset,
    paper_dataset_info,
    random_split,
    split_from_fractions,
)
from repro.datasets.catalog import LARGE_DATASETS, MEDIUM_DATASETS
from repro.datasets.registry import clear_dataset_cache, register_dataset
from repro.datasets.synthetic import REPLICA_RECIPES
from repro.datasets.synthetic import edge_homophily


class TestCatalog:
    def test_all_six_benchmarks_present(self):
        assert set(PAPER_DATASETS) == {
            "products", "pokec", "wiki", "papers100m", "igb-medium", "igb-large",
        }

    def test_table2_headline_numbers(self):
        assert PAPER_DATASETS["products"].num_nodes == 2_449_029
        assert PAPER_DATASETS["papers100m"].num_nodes == 111_059_956
        assert PAPER_DATASETS["igb-large"].num_features == 1024

    def test_labeled_nodes_papers100m_sparse(self):
        info = PAPER_DATASETS["papers100m"]
        assert info.labeled_nodes < 0.02 * info.num_nodes

    def test_preprocessed_bytes_input_expansion(self):
        info = PAPER_DATASETS["igb-large"]
        expanded = info.preprocessed_bytes(hops=3, kernels=1)
        # ~1.6 TB claimed in the paper for 1 kernel / 3 hops
        assert 1.2e12 < expanded < 2.2e12

    def test_preprocessed_bytes_scales_with_hops(self):
        info = PAPER_DATASETS["products"]
        assert info.preprocessed_bytes(6) == 7 * info.preprocessed_bytes(0)

    def test_preprocessed_bytes_invalid(self):
        with pytest.raises(ValueError):
            PAPER_DATASETS["products"].preprocessed_bytes(-1)

    def test_lookup_unknown_raises(self):
        with pytest.raises(KeyError):
            paper_dataset_info("reddit")

    def test_medium_and_large_groups_disjoint(self):
        assert not set(MEDIUM_DATASETS) & set(LARGE_DATASETS)


class TestSplits:
    def test_split_fractions_sum_validation(self):
        with pytest.raises(ValueError):
            split_from_fractions(np.arange(10), (0.5, 0.2, 0.2))

    def test_split_disjoint_and_complete(self):
        split = split_from_fractions(np.arange(100), (0.6, 0.2, 0.2), seed=0)
        merged = np.concatenate([split.train, split.valid, split.test])
        assert np.array_equal(np.sort(merged), np.arange(100))

    def test_split_respects_fractions(self):
        split = split_from_fractions(np.arange(1000), (0.5, 0.25, 0.25), seed=0)
        assert split.train.size == 500
        assert split.valid.size == 250

    def test_split_overlap_rejected(self):
        from repro.datasets.splits import Split

        with pytest.raises(ValueError):
            Split(train=np.array([0, 1]), valid=np.array([1]), test=np.array([2]))

    def test_random_split_labeled_fraction(self):
        split = random_split(1000, labeled_fraction=0.1, seed=0)
        assert split.num_labeled == 100

    def test_random_split_invalid_args(self):
        with pytest.raises(ValueError):
            random_split(0)
        with pytest.raises(ValueError):
            random_split(10, labeled_fraction=0.0)

    def test_split_deterministic_given_seed(self):
        a = random_split(200, seed=5)
        b = random_split(200, seed=5)
        assert np.array_equal(a.train, b.train)


class TestSyntheticReplicas:
    def test_recipes_cover_all_benchmarks(self):
        assert set(REPLICA_RECIPES) == set(PAPER_DATASETS)

    def test_products_replica_dimensions(self):
        ds = load_dataset("products", seed=0, num_nodes=1500)
        assert ds.num_features == 100
        assert ds.num_classes == 47
        assert ds.num_nodes == 1500

    def test_papers100m_replica_sparse_labels(self):
        ds = load_dataset("papers100m", seed=0, num_nodes=4000)
        assert ds.split.num_labeled < 0.05 * ds.num_nodes

    def test_products_has_higher_homophily_lift_than_wiki(self):
        """Compare homophily relative to the label-permutation baseline.

        Raw edge homophily depends strongly on the number of classes (47 vs 5),
        so the meaningful comparison is the lift over the random-label
        expectation sum_c p_c^2.
        """

        def lift(ds):
            fractions = np.bincount(ds.labels) / ds.num_nodes
            random_expectation = float(np.sum(fractions**2))
            return edge_homophily(ds.graph, ds.labels) / random_expectation

        products = load_dataset("products", seed=0, num_nodes=2000)
        wiki = load_dataset("wiki", seed=0, num_nodes=2000)
        assert lift(products) > lift(wiki)

    def test_labels_not_correlated_with_node_index(self, small_dataset):
        """Contiguous node-id ranges must mix classes (needed for chunk reshuffling)."""
        labels = small_dataset.labels
        first_half = set(np.unique(labels[: len(labels) // 2]).tolist())
        second_half = set(np.unique(labels[len(labels) // 2 :]).tolist())
        assert len(first_half & second_half) >= min(len(first_half), len(second_half)) // 2

    def test_feature_label_signal_exists(self, small_dataset):
        """Class-mean features must differ between classes (planted signal)."""
        labels = small_dataset.labels
        feats = small_dataset.features
        class_ids = np.unique(labels)[:2]
        mean_a = feats[labels == class_ids[0]].mean(axis=0)
        mean_b = feats[labels == class_ids[1]].mean(axis=0)
        assert np.linalg.norm(mean_a - mean_b) > 0.1

    def test_unknown_dataset_raises(self):
        with pytest.raises(KeyError):
            make_synthetic_dataset("reddit")

    def test_too_few_nodes_raises(self):
        with pytest.raises(ValueError):
            make_synthetic_dataset("products", num_nodes=50)

    def test_dataset_validation_rejects_mismatched_features(self, tiny_graph):
        from repro.datasets.splits import Split

        with pytest.raises(ValueError):
            NodeClassificationDataset(
                name="bad",
                graph=tiny_graph,
                features=np.zeros((4, 3)),
                labels=np.zeros(8, dtype=np.int64),
                split=Split(np.array([0]), np.array([1]), np.array([2])),
                num_classes=2,
            )

    def test_summary_keys(self, small_dataset):
        summary = small_dataset.summary()
        assert {"name", "num_nodes", "num_edges", "num_features", "num_classes"} <= set(summary)


class TestRegistry:
    def test_available_datasets_sorted(self):
        names = available_datasets()
        assert names == sorted(names)
        assert "products" in names

    def test_cache_returns_same_object(self):
        a = load_dataset("pokec", seed=1, num_nodes=800)
        b = load_dataset("pokec", seed=1, num_nodes=800)
        assert a is b

    def test_cache_clear(self):
        a = load_dataset("pokec", seed=2, num_nodes=800)
        clear_dataset_cache()
        b = load_dataset("pokec", seed=2, num_nodes=800)
        assert a is not b

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            load_dataset("cora")

    def test_register_custom_dataset(self):
        def factory(seed=0, num_nodes=None):
            return make_synthetic_dataset("pokec", seed=seed, num_nodes=num_nodes or 600)

        register_dataset("custom-test", factory, overwrite=True)
        ds = load_dataset("custom-test", seed=0)
        assert ds.num_classes == 2

    def test_register_duplicate_without_overwrite_raises(self):
        with pytest.raises(KeyError):
            register_dataset("products", lambda **kw: None)
