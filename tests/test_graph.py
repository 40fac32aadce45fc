"""Tests for the graph substrate: CSR structure, builders, operators, generators."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.datasets.synthetic import edge_homophily
from repro.graph import (
    CSRGraph,
    add_self_loops,
    build_operator,
    operator_row_block,
    from_edge_index,
    heat_kernel_operator,
    normalized_adjacency,
    personalized_pagerank_operator,
    powerlaw_cluster_graph,
    random_walk_operator,
    stochastic_block_model,
    symmetrize,
)


class TestCSRGraph:
    def test_from_edge_index_basic(self):
        g = from_edge_index(np.array([[0, 1, 2], [1, 2, 0]]), num_nodes=3)
        assert g.num_nodes == 3
        assert g.num_edges == 3
        assert list(g.neighbors(0)) == [1]

    def test_edge_index_transposed_accepted(self):
        g = from_edge_index(np.array([[0, 1], [1, 2]]), num_nodes=3)
        assert g.num_edges == 2

    def test_duplicate_edges_coalesced(self):
        g = from_edge_index(np.array([[0, 0], [1, 1]]), num_nodes=2)
        assert g.num_edges == 1

    def test_out_of_range_node_raises(self):
        with pytest.raises(ValueError):
            from_edge_index(np.array([[0], [5]]), num_nodes=3)

    def test_empty_graph(self):
        g = from_edge_index(np.zeros((2, 0)), num_nodes=4)
        assert g.num_edges == 0
        assert np.all(g.out_degree() == 0)

    def test_invalid_indptr_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph(indptr=np.array([0, 2]), indices=np.array([0]), num_nodes=1)

    def test_degrees(self, tiny_graph):
        assert tiny_graph.out_degree().sum() == tiny_graph.num_edges
        assert np.array_equal(tiny_graph.reverse().out_degree(), tiny_graph.out_degree())  # undirected

    def test_neighbors_out_of_range(self, tiny_graph):
        with pytest.raises(IndexError):
            tiny_graph.neighbors(100)

    def test_to_scipy_round_trip(self, tiny_graph):
        again = CSRGraph.from_scipy(tiny_graph.to_scipy())
        assert again.num_edges == tiny_graph.num_edges
        assert np.array_equal(again.indptr, tiny_graph.indptr)

    def test_from_scipy_nonsquare_raises(self):
        with pytest.raises(ValueError):
            CSRGraph.from_scipy(sp.random(3, 4, format="csr"))

    def test_reverse_preserves_edge_count(self):
        g = from_edge_index(np.array([[0, 1], [1, 2]]), num_nodes=3)
        assert g.reverse().num_edges == g.num_edges
        assert 0 in g.reverse().neighbors(1)

    def test_reverse_matches_scipy_transpose(self, tiny_graph):
        reversed_graph = tiny_graph.reverse()
        reference = tiny_graph.to_scipy().T.tocsr()
        reference.sort_indices()
        assert np.array_equal(reversed_graph.indptr, reference.indptr.astype(np.int64))
        assert np.array_equal(reversed_graph.indices, reference.indices.astype(np.int64))
        assert np.array_equal(reversed_graph.reverse().indptr, tiny_graph.indptr)
        assert np.array_equal(reversed_graph.reverse().indices, tiny_graph.indices)

    def test_reverse_keeps_edge_weights_aligned(self):
        g = from_edge_index(np.array([[0, 0, 1, 2], [1, 2, 2, 0]]), num_nodes=3)
        # weight of each edge encodes its (src, dst) pair so misalignment is visible
        weights = np.array([1.0, 2.0, 12.0, 20.0])
        weighted = CSRGraph(g.indptr, g.indices, g.num_nodes, edge_weight=weights)
        reversed_graph = weighted.reverse()
        expected = {(1, 0): 1.0, (2, 0): 2.0, (2, 1): 12.0, (0, 2): 20.0}
        for src in range(reversed_graph.num_nodes):
            start, stop = reversed_graph.indptr[src], reversed_graph.indptr[src + 1]
            for dst, weight in zip(
                reversed_graph.indices[start:stop], reversed_graph.edge_weight[start:stop]
            ):
                assert expected[(src, int(dst))] == weight

    def test_reverse_is_linear_time_construction(self):
        rng = np.random.default_rng(0)
        edges = rng.integers(0, 200, size=(2, 2000))
        g = from_edge_index(edges, num_nodes=200)
        reversed_graph = g.reverse()
        assert reversed_graph.num_edges == g.num_edges
        assert np.array_equal(np.bincount(reversed_graph.indices, minlength=200), g.out_degree())
        assert np.array_equal(reversed_graph.out_degree(), np.bincount(g.indices, minlength=200))
        # rows come out sorted, matching the scipy-based behaviour
        for node in range(0, 200, 17):
            neighbors = reversed_graph.neighbors(node)
            assert np.all(np.diff(neighbors) >= 0)

    def test_subgraph_relabels(self, tiny_graph):
        sub, nodes = tiny_graph.subgraph(np.array([0, 1, 2, 3]))
        assert sub.num_nodes == 4
        assert sub.num_edges > 0
        assert np.array_equal(nodes, [0, 1, 2, 3])


class TestRowBlocks:
    def test_operator_row_block_matches_rows(self, tiny_graph):
        op = normalized_adjacency(tiny_graph)
        block = operator_row_block(op, 3, 7)
        assert block.shape == (4, tiny_graph.num_nodes)
        assert np.array_equal(block.toarray(), op[3:7].toarray())

    def test_block_spmm_bit_identical_to_full(self, tiny_graph):
        """The tiling contract of the blocked propagation engine."""
        op = normalized_adjacency(tiny_graph)
        x = np.random.default_rng(3).standard_normal((tiny_graph.num_nodes, 5))
        full = op @ x
        for start in range(0, tiny_graph.num_nodes, 3):
            stop = min(start + 3, tiny_graph.num_nodes)
            assert np.array_equal(operator_row_block(op, start, stop) @ x, full[start:stop])


class TestBuilders:
    def test_symmetrize_makes_undirected(self):
        g = from_edge_index(np.array([[0], [1]]), num_nodes=2)
        sym = symmetrize(g)
        assert 1 in sym.neighbors(0) and 0 in sym.neighbors(1)

    def test_symmetrize_idempotent(self, tiny_graph):
        assert symmetrize(tiny_graph).num_edges == tiny_graph.num_edges

    def test_add_remove_self_loops(self, tiny_graph):
        with_loops = add_self_loops(tiny_graph)
        assert with_loops.num_edges == tiny_graph.num_edges + tiny_graph.num_nodes
        removed = with_loops.to_scipy()
        removed.setdiag(0.0)
        removed.eliminate_zeros()
        assert removed.nnz == tiny_graph.num_edges


class TestOperators:
    def test_normalized_adjacency_symmetric(self, tiny_graph):
        op = normalized_adjacency(tiny_graph)
        assert np.allclose((op - op.T).toarray(), 0.0, atol=1e-12)

    def test_normalized_adjacency_spectral_radius_le_one(self, tiny_graph):
        op = normalized_adjacency(tiny_graph).toarray()
        eigenvalues = np.linalg.eigvalsh(op)
        assert eigenvalues.max() <= 1.0 + 1e-9

    def test_random_walk_rows_sum_to_one(self, tiny_graph):
        op = random_walk_operator(tiny_graph)
        assert np.allclose(np.asarray(op.sum(axis=1)).ravel(), 1.0)

    def test_ppr_rows_approximately_stochastic(self, tiny_graph):
        # With the *symmetric* normalization the PPR rows are only approximately
        # stochastic (exactly stochastic would require the random-walk operator).
        op = personalized_pagerank_operator(tiny_graph, alpha=0.2, num_iterations=20, sparsify_threshold=0.0)
        sums = np.asarray(op.sum(axis=1)).ravel()
        assert np.all(sums <= 1.2)
        assert np.all(sums > 0.8)

    def test_ppr_invalid_alpha(self, tiny_graph):
        with pytest.raises(ValueError):
            personalized_pagerank_operator(tiny_graph, alpha=1.5)

    def test_heat_kernel_positive(self, tiny_graph):
        op = heat_kernel_operator(tiny_graph, t=2.0, sparsify_threshold=0.0)
        assert (op.toarray() >= -1e-12).all()

    def test_heat_kernel_invalid_t(self, tiny_graph):
        with pytest.raises(ValueError):
            heat_kernel_operator(tiny_graph, t=0.0)

    def test_build_operator_registry(self, tiny_graph):
        op = build_operator("sym_norm_adj", tiny_graph)
        assert op.shape == (tiny_graph.num_nodes, tiny_graph.num_nodes)
        with pytest.raises(KeyError):
            build_operator("bogus", tiny_graph)

    def test_propagation_smooths_signal(self, tiny_graph):
        """One application of the normalized adjacency reduces signal variance."""
        op = normalized_adjacency(tiny_graph)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((tiny_graph.num_nodes, 1))
        assert np.var(op @ x) < np.var(x)


class TestGenerators:
    def test_sbm_basic_properties(self):
        graph, labels = stochastic_block_model([50, 50], p_in=0.2, p_out=0.01, seed=0)
        assert graph.num_nodes == 100
        assert labels.shape == (100,)
        assert edge_homophily(graph, labels) > 0.7

    def test_sbm_invalid_probs(self):
        with pytest.raises(ValueError):
            stochastic_block_model([10, 10], p_in=0.1, p_out=0.5)

    def test_sbm_is_undirected(self):
        graph, _ = stochastic_block_model([30, 30], p_in=0.2, p_out=0.02, seed=1)
        adj = graph.to_scipy()
        assert (adj != adj.T).nnz == 0

    def test_powerlaw_graph_heavy_tail(self):
        g = powerlaw_cluster_graph(300, num_attach=3, seed=0)
        degrees = g.out_degree()
        assert degrees.max() > 3 * np.median(degrees)

    def test_powerlaw_invalid_args(self):
        with pytest.raises(ValueError):
            powerlaw_cluster_graph(5, num_attach=10)


class TestMetrics:
    def test_edge_homophily_bounds(self, small_dataset):
        h = edge_homophily(small_dataset.graph, small_dataset.labels)
        assert 0.0 <= h <= 1.0

    def test_edge_homophily_wrong_length(self, tiny_graph):
        with pytest.raises(ValueError):
            edge_homophily(tiny_graph, np.zeros(3))


@settings(max_examples=20, deadline=None)
@given(
    num_nodes=st.integers(min_value=2, max_value=40),
    num_edges=st.integers(min_value=1, max_value=120),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_property_edge_index_round_trip(num_nodes, num_edges, seed):
    """CSRGraph <-> scipy round trip preserves the (coalesced) edge set."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, num_nodes, size=num_edges)
    dst = rng.integers(0, num_nodes, size=num_edges)
    g = from_edge_index(np.stack([src, dst]), num_nodes=num_nodes)
    back = CSRGraph.from_scipy(g.to_scipy())
    assert back.num_edges == g.num_edges
    assert np.array_equal(back.indices, g.indices)


@settings(max_examples=15, deadline=None)
@given(
    num_nodes=st.integers(min_value=3, max_value=30),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_property_normalized_adjacency_row_sums_bounded(num_nodes, seed):
    """Symmetric normalization is symmetric with spectral radius at most 1."""
    rng = np.random.default_rng(seed)
    src, dst = rng.integers(0, num_nodes, size=(2, num_nodes * 3 // 2))
    g = symmetrize(from_edge_index(np.stack([src[src != dst], dst[src != dst]]), num_nodes=num_nodes))
    op = normalized_adjacency(g)
    dense = op.toarray()
    assert np.allclose(dense, dense.T, atol=1e-12)
    eigenvalues = np.linalg.eigvalsh(dense)
    assert eigenvalues.max() <= 1.0 + 1e-9
    assert np.all(np.asarray(op.sum(axis=1)).ravel() > 0)
