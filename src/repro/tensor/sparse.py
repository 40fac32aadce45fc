"""Autograd ops coupling :class:`Tensor` with sparse structures.

The MP-GNN baselines need three primitives that do not fit the dense-op set:

* ``sparse_matmul`` — multiply a *constant* scipy sparse matrix (an
  aggregation operator of a sampled block) with a dense differentiable matrix;
* ``scatter_sum`` — sum per-edge messages into destination nodes;
* ``segment_softmax`` — softmax of per-edge scores grouped by destination
  node (the GAT attention normalization).

The sparse matrices / index arrays are treated as constants; gradients flow
only through the dense operands.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.tensor.tensor import Tensor


def sparse_matmul(matrix: sp.spmatrix, dense: Tensor) -> Tensor:
    """Compute ``matrix @ dense`` where ``matrix`` is a constant sparse matrix.

    Backward: ``grad_dense = matrix.T @ grad_out``.  The product runs in
    ``dense``'s floating dtype: the operator's values are cast to it.
    """
    if matrix.shape[1] != dense.shape[0]:
        raise ValueError(f"dimension mismatch: {matrix.shape} @ {dense.shape}")
    csr = matrix.tocsr()
    if dense.dtype.kind == "f" and csr.dtype != dense.dtype:
        csr = csr.astype(dense.dtype)
    out_data = csr @ dense.data

    def backward(grad: np.ndarray) -> None:
        if dense.requires_grad:
            dense._accumulate(csr.T @ grad, owned=True)

    return Tensor._make(np.asarray(out_data), (dense,), backward)


def scatter_sum(values: Tensor, index: np.ndarray, num_segments: int) -> Tensor:
    """Sum rows of ``values`` into ``num_segments`` buckets given by ``index``.

    ``values`` has shape ``(E, ...)`` and ``index`` shape ``(E,)``; the output
    has shape ``(num_segments, ...)``.  Backward gathers the output gradient
    back to each row.
    """
    index = np.asarray(index, dtype=np.int64)
    if index.ndim != 1 or index.shape[0] != values.shape[0]:
        raise ValueError("index must be 1-D and align with values' first axis")
    if index.size and (index.min() < 0 or index.max() >= num_segments):
        raise ValueError("index out of range")
    out_shape = (num_segments,) + values.shape[1:]
    out_data = np.zeros(out_shape, dtype=values.dtype)
    np.add.at(out_data, index, values.data)

    def backward(grad: np.ndarray) -> None:
        if values.requires_grad:
            values._accumulate(grad[index], owned=True)

    return Tensor._make(out_data, (values,), backward)


def segment_max(values: np.ndarray, index: np.ndarray, num_segments: int) -> np.ndarray:
    """Per-segment maximum of a plain array (non-differentiable helper)."""
    index = np.asarray(index, dtype=np.int64)
    out = np.full((num_segments,) + values.shape[1:], -np.inf, dtype=values.dtype)
    np.maximum.at(out, index, values)
    out[~np.isfinite(out)] = 0.0
    return out


def segment_softmax(scores: Tensor, index: np.ndarray, num_segments: int) -> Tensor:
    """Softmax of per-edge ``scores`` normalized within each destination segment.

    Numerical stability comes from subtracting the per-segment max (treated as
    a constant, which leaves gradients exact because softmax is shift
    invariant).
    """
    index = np.asarray(index, dtype=np.int64)
    if scores.ndim != 1:
        raise ValueError("segment_softmax expects 1-D scores (one per edge)")
    maxima = segment_max(scores.data, index, num_segments)
    shifted = scores - Tensor(maxima[index])
    exp = shifted.exp()
    denom = scatter_sum(exp, index, num_segments)
    denom_per_edge = denom.take_rows(index)
    return exp / (denom_per_edge + 1e-16)


def row_normalize(matrix: sp.spmatrix) -> sp.csr_matrix:
    """Row-normalize a sparse matrix so each non-empty row sums to one."""
    csr = matrix.tocsr()
    if csr.dtype.kind != "f":
        csr = csr.astype(float)
    row_sums = np.asarray(csr.sum(axis=1)).ravel()
    with np.errstate(divide="ignore"):
        inv = 1.0 / row_sums
    inv[~np.isfinite(inv)] = 0.0
    return (sp.diags(inv) @ csr).tocsr()
