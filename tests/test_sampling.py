"""Tests for the graph samplers and the sampled-block structure."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sampling import (
    GraphSaintNodeSampler,
    LaborSampler,
    LadiesSampler,
    MiniBatch,
    NeighborSampler,
    SampledBlock,
    build_sampler,
)
from repro.sampling.base import block_from_edges
from repro.sampling.registry import default_fanouts
from repro.utils.rng import new_rng


def _check_batch_invariants(batch: MiniBatch, seeds: np.ndarray, num_layers: int, num_nodes: int):
    """Structural invariants every sampler's output must satisfy."""
    assert np.array_equal(batch.output_nodes, seeds)
    assert len(batch.blocks) == num_layers
    # blocks are ordered outermost -> innermost; adjacent blocks chain
    for outer, inner in zip(batch.blocks, batch.blocks[1:]):
        assert np.array_equal(outer.dst_nodes, inner.src_nodes)
    assert np.array_equal(batch.blocks[-1].dst_nodes, seeds)
    assert np.array_equal(batch.input_nodes, batch.blocks[0].src_nodes)
    for block in batch.blocks:
        assert block.num_dst <= block.num_src
        assert np.array_equal(block.src_nodes[: block.num_dst], block.dst_nodes)
        # row-normalized adjacency: every dst row sums to ~1
        sums = np.asarray(block.adjacency.sum(axis=1)).ravel()
        assert np.allclose(sums, 1.0, atol=1e-6)
        assert block.src_nodes.max(initial=0) < num_nodes


class TestSampledBlock:
    def test_prefix_requirement_enforced(self):
        import scipy.sparse as sp

        with pytest.raises(ValueError):
            SampledBlock(
                src_nodes=np.array([5, 6, 7]),
                dst_nodes=np.array([6]),
                adjacency=sp.csr_matrix(np.ones((1, 3))),
            )

    def test_shape_mismatch_rejected(self):
        import scipy.sparse as sp

        with pytest.raises(ValueError):
            SampledBlock(
                src_nodes=np.array([0, 1]),
                dst_nodes=np.array([0]),
                adjacency=sp.csr_matrix(np.ones((2, 2))),
            )

    def test_block_from_edges_isolated_seed_gets_self_loop(self):
        block = block_from_edges(np.array([3, 4]), [np.array([4]), np.array([])])
        sums = np.asarray(block.adjacency.sum(axis=1)).ravel()
        assert np.allclose(sums, 1.0)

    def test_edge_list_consistent(self):
        block = block_from_edges(np.array([0, 1]), [np.array([1, 2]), np.array([0])])
        dst, src, w = block.edge_list()
        assert len(dst) == block.num_edges
        assert np.all(w > 0)


class TestNeighborSampler:
    def test_invariants(self, small_dataset):
        sampler = NeighborSampler([5, 5])
        seeds = small_dataset.split.train[:64]
        batch = sampler.sample(small_dataset.graph, seeds, new_rng(0))
        _check_batch_invariants(batch, seeds, 2, small_dataset.num_nodes)

    def test_fanout_respected(self, small_dataset):
        sampler = NeighborSampler([3])
        seeds = small_dataset.split.train[:32]
        batch = sampler.sample(small_dataset.graph, seeds, new_rng(0))
        block = batch.blocks[0]
        row_nnz = np.diff(block.adjacency.indptr)
        assert row_nnz.max() <= 3 + 1  # +1 for a possible self loop on isolated seeds

    def test_deeper_sampling_grows_input_nodes(self, small_dataset):
        seeds = small_dataset.split.train[:32]
        shallow = NeighborSampler([5]).sample(small_dataset.graph, seeds, new_rng(0))
        deep = NeighborSampler([5, 5, 5]).sample(small_dataset.graph, seeds, new_rng(0))
        assert deep.num_input_nodes > shallow.num_input_nodes

    def test_invalid_fanouts(self):
        with pytest.raises(ValueError):
            NeighborSampler([])
        with pytest.raises(ValueError):
            NeighborSampler([0, 5])

    def test_epoch_batches_cover_training_set(self, small_dataset):
        sampler = NeighborSampler([3, 3])
        train = small_dataset.split.train
        batches = sampler.epoch_batches(small_dataset.graph, train, batch_size=50, rng=new_rng(0))
        seen = np.concatenate([b.output_nodes for b in batches])
        assert np.array_equal(np.sort(seen), np.sort(train))

    def test_epoch_batches_drop_last(self, small_dataset):
        sampler = NeighborSampler([3])
        train = small_dataset.split.train
        batches = sampler.epoch_batches(small_dataset.graph, train, batch_size=64, rng=new_rng(0), drop_last=True)
        assert all(b.num_output_nodes == 64 for b in batches)


class TestLaborSampler:
    def test_invariants(self, small_dataset):
        sampler = LaborSampler([5, 5])
        seeds = small_dataset.split.train[:64]
        batch = sampler.sample(small_dataset.graph, seeds, new_rng(0))
        _check_batch_invariants(batch, seeds, 2, small_dataset.num_nodes)

    def test_labor_samples_fewer_unique_nodes_than_neighbor(self, small_dataset):
        """LABOR's correlated sampling shrinks the frontier vs node-wise sampling."""
        seeds = small_dataset.split.train[:128]
        counts = {"labor": [], "neighbor": []}
        for trial in range(3):
            rng = new_rng(trial)
            counts["labor"].append(
                LaborSampler([10, 10]).sample(small_dataset.graph, seeds, rng).num_input_nodes
            )
            rng = new_rng(trial)
            counts["neighbor"].append(
                NeighborSampler([10, 10]).sample(small_dataset.graph, seeds, rng).num_input_nodes
            )
        assert np.mean(counts["labor"]) <= np.mean(counts["neighbor"])

    def test_every_seed_keeps_at_least_one_neighbor(self, small_dataset):
        sampler = LaborSampler([2])
        seeds = small_dataset.split.train[:64]
        batch = sampler.sample(small_dataset.graph, seeds, new_rng(0))
        row_nnz = np.diff(batch.blocks[0].adjacency.indptr)
        assert row_nnz.min() >= 1


class TestLadiesSampler:
    def test_invariants(self, small_dataset):
        sampler = LadiesSampler(num_layers=2, nodes_per_layer=128)
        seeds = small_dataset.split.train[:64]
        batch = sampler.sample(small_dataset.graph, seeds, new_rng(0))
        _check_batch_invariants(batch, seeds, 2, small_dataset.num_nodes)

    def test_layer_budget_bounds_growth(self, small_dataset):
        budget = 100
        sampler = LadiesSampler(num_layers=3, nodes_per_layer=budget)
        seeds = small_dataset.split.train[:64]
        batch = sampler.sample(small_dataset.graph, seeds, new_rng(0))
        for prev, block in zip(batch.blocks[::-1], batch.blocks[::-1][1:]):
            assert block.num_src <= prev.num_src + budget

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            LadiesSampler(num_layers=0)
        with pytest.raises(ValueError):
            LadiesSampler(num_layers=2, nodes_per_layer=0)


class TestGraphSaintSampler:
    def test_invariants(self, small_dataset):
        """SAINT trains on a full induced subgraph, so every block shares the
        same node set with the seeds as a prefix (unlike the MFG samplers)."""
        sampler = GraphSaintNodeSampler(budget=300, num_layers=2)
        seeds = small_dataset.split.train[:64]
        batch = sampler.sample(small_dataset.graph, seeds, new_rng(0))
        assert np.array_equal(batch.output_nodes, seeds)
        assert len(batch.blocks) == 2
        for block in batch.blocks:
            assert np.array_equal(block.src_nodes, block.dst_nodes)
            assert np.array_equal(block.src_nodes[: seeds.size], seeds)
            sums = np.asarray(block.adjacency.sum(axis=1)).ravel()
            assert np.allclose(sums, 1.0, atol=1e-6)
        assert batch.subgraph is not None

    def test_subgraph_size_independent_of_depth(self, small_dataset):
        seeds = small_dataset.split.train[:64]
        shallow = GraphSaintNodeSampler(budget=300, num_layers=1).sample(small_dataset.graph, seeds, new_rng(0))
        deep = GraphSaintNodeSampler(budget=300, num_layers=4).sample(small_dataset.graph, seeds, new_rng(0))
        assert abs(deep.num_input_nodes - shallow.num_input_nodes) < 100

    def test_node_weights_positive(self, small_dataset):
        sampler = GraphSaintNodeSampler(budget=200, num_layers=1)
        batch = sampler.sample(small_dataset.graph, small_dataset.split.train[:32], new_rng(0))
        assert batch.node_weight is not None
        assert np.all(batch.node_weight > 0)

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            GraphSaintNodeSampler(budget=0)


class TestRegistryAndStats:
    def test_default_fanouts_match_paper(self):
        assert default_fanouts(3, "sage") == [15, 10, 5]
        assert default_fanouts(3, "gat") == [10, 10, 10]
        assert len(default_fanouts(6, "sage")) == 6

    def test_default_fanouts_unknown_depth(self):
        with pytest.raises(ValueError):
            default_fanouts(9)

    def test_build_sampler_names(self):
        for name in ("neighbor", "labor", "ladies", "saint"):
            sampler = build_sampler(name, num_layers=2)
            assert sampler.num_layers == 2
        with pytest.raises(KeyError):
            build_sampler("cluster-gcn", num_layers=2)


@settings(max_examples=10, deadline=None)
@given(
    batch_size=st.integers(min_value=1, max_value=48),
    fanout=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=100),
)
def test_property_sampler_invariants_hold(small_dataset_factory, batch_size, fanout, seed):
    """Structural invariants hold for arbitrary batch sizes/fanouts/seeds."""
    dataset = small_dataset_factory
    sampler = NeighborSampler([fanout, fanout])
    seeds = dataset.split.train[:batch_size]
    batch = sampler.sample(dataset.graph, seeds, new_rng(seed))
    _check_batch_invariants(batch, seeds, 2, dataset.num_nodes)


@pytest.fixture(scope="module")
def small_dataset_factory():
    from repro.datasets.registry import load_dataset

    return load_dataset("pokec", seed=9, num_nodes=900)
