"""Tests for the sparse/scatter autograd primitives used by the MP-GNN models."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.tensor import Tensor
from repro.tensor.sparse import (
    row_normalize,
    scatter_sum,
    segment_max,
    segment_softmax,
    sparse_matmul,
)


class TestSparseMatmul:
    def test_matches_dense(self):
        rng = np.random.default_rng(0)
        dense = rng.standard_normal((5, 3))
        matrix = sp.random(4, 5, density=0.5, random_state=0, format="csr")
        out = sparse_matmul(matrix, Tensor(dense))
        assert np.allclose(out.data, matrix @ dense)

    def test_backward_is_transpose(self):
        matrix = sp.csr_matrix(np.array([[1.0, 2.0], [0.0, 3.0]]))
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        sparse_matmul(matrix, x).sum().backward()
        assert np.allclose(x.grad, matrix.T @ np.ones((2, 2)))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            sparse_matmul(sp.eye(3).tocsr(), Tensor(np.ones((4, 2))))


class TestScatter:
    def test_scatter_sum_values(self):
        values = Tensor(np.array([[1.0], [2.0], [3.0]]), requires_grad=True)
        out = scatter_sum(values, np.array([0, 0, 1]), 2)
        assert np.allclose(out.data, [[3.0], [3.0]])

    def test_scatter_sum_backward_gathers(self):
        values = Tensor(np.ones((4, 2)), requires_grad=True)
        out = scatter_sum(values, np.array([0, 1, 1, 0]), 2)
        (out * Tensor(np.array([[1.0, 1.0], [2.0, 2.0]]))).sum().backward()
        assert np.allclose(values.grad, [[1, 1], [2, 2], [2, 2], [1, 1]])

    def test_scatter_sum_index_out_of_range(self):
        with pytest.raises(ValueError):
            scatter_sum(Tensor(np.ones((2, 1))), np.array([0, 5]), 2)


class TestSegmentOps:
    def test_segment_max(self):
        out = segment_max(np.array([1.0, 5.0, -2.0]), np.array([0, 0, 1]), 2)
        assert np.allclose(out, [5.0, -2.0])

    def test_segment_softmax_sums_to_one_per_segment(self):
        scores = Tensor(np.array([1.0, 2.0, 3.0, 4.0]), requires_grad=True)
        index = np.array([0, 0, 1, 1])
        out = segment_softmax(scores, index, 2)
        assert np.allclose(np.bincount(index, weights=out.data), [1.0, 1.0])

    def test_segment_softmax_single_edge_segment(self):
        out = segment_softmax(Tensor(np.array([7.0])), np.array([0]), 1)
        assert np.allclose(out.data, [1.0])

    def test_segment_softmax_rejects_2d(self):
        with pytest.raises(ValueError):
            segment_softmax(Tensor(np.ones((2, 2))), np.array([0, 1]), 2)

    def test_segment_softmax_gradient_flows(self):
        scores = Tensor(np.array([0.5, -0.5, 1.0]), requires_grad=True)
        out = segment_softmax(scores, np.array([0, 0, 0]), 1)
        (out * Tensor(np.array([1.0, 2.0, 3.0]))).sum().backward()
        assert scores.grad is not None
        assert np.isfinite(scores.grad).all()


class TestRowNormalize:
    def test_rows_sum_to_one(self):
        m = sp.random(6, 4, density=0.6, random_state=0, format="csr")
        normalized = row_normalize(m)
        sums = np.asarray(normalized.sum(axis=1)).ravel()
        nonzero = np.asarray(m.sum(axis=1)).ravel() > 0
        assert np.allclose(sums[nonzero], 1.0)

    def test_empty_rows_stay_zero(self):
        m = sp.csr_matrix((3, 3))
        assert row_normalize(m).nnz == 0


@settings(max_examples=20, deadline=None)
@given(
    num_edges=st.integers(min_value=1, max_value=30),
    num_segments=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_property_segment_softmax_is_distribution(num_edges, num_segments, seed):
    """Per-segment softmax weights are non-negative and sum to 1 for occupied segments."""
    rng = np.random.default_rng(seed)
    index = rng.integers(0, num_segments, size=num_edges)
    scores = Tensor(rng.standard_normal(num_edges) * 3)
    out = segment_softmax(scores, index, num_segments).data
    assert np.all(out >= 0)
    sums = np.bincount(index, weights=out, minlength=num_segments)
    occupied = np.bincount(index, minlength=num_segments) > 0
    assert np.allclose(sums[occupied], 1.0)


@settings(max_examples=20, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=8),
    cols=st.integers(min_value=1, max_value=8),
    feat=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_property_sparse_matmul_equals_dense(rows, cols, feat, seed):
    """sparse_matmul agrees with the dense product for random sparse operators."""
    rng = np.random.default_rng(seed)
    matrix = sp.random(rows, cols, density=0.4, random_state=seed, format="csr")
    dense = rng.standard_normal((cols, feat))
    out = sparse_matmul(matrix, Tensor(dense))
    assert np.allclose(out.data, matrix.toarray() @ dense, atol=1e-10)
