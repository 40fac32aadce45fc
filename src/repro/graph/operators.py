"""Graph propagation operators (the ``B_k`` in Eq. 2 of the paper).

PP-GNNs propagate node features in preprocessing by repeatedly multiplying a
graph operator with the feature matrix.  The paper uses the symmetrically
normalized adjacency matrix for all main results, and mentions PPR and heat
kernels (from Gasteiger et al., 2019) as alternative SIGN operators; all of
them are implemented here as sparse matrices.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np
import scipy.sparse as sp

from repro.graph.builders import add_self_loops, symmetrize
from repro.graph.csr import CSRGraph


def _degree_inv_sqrt(adj: sp.csr_matrix) -> np.ndarray:
    degree = np.asarray(adj.sum(axis=1)).ravel()
    with np.errstate(divide="ignore"):
        inv_sqrt = 1.0 / np.sqrt(degree)
    inv_sqrt[~np.isfinite(inv_sqrt)] = 0.0
    return inv_sqrt


def normalized_adjacency(
    graph: CSRGraph,
    add_self_loop: bool = True,
    make_undirected: bool = True,
) -> sp.csr_matrix:
    """Symmetrically normalized adjacency ``D^{-1/2} (A + I) D^{-1/2}``.

    This is the SGC/SIGN/HOGA default operator.  ``make_undirected`` controls
    whether the graph is symmetrized first — the paper tunes directed vs
    undirected per dataset (Appendix A).
    """
    if make_undirected:
        graph = symmetrize(graph)
    if add_self_loop:
        graph = add_self_loops(graph)
    adj = graph.to_scipy()
    inv_sqrt = _degree_inv_sqrt(adj)
    d_inv = sp.diags(inv_sqrt)
    return (d_inv @ adj @ d_inv).tocsr()


def random_walk_operator(graph: CSRGraph, add_self_loop: bool = True) -> sp.csr_matrix:
    """Row-stochastic random-walk operator ``D^{-1} (A + I)``."""
    if add_self_loop:
        graph = add_self_loops(graph)
    adj = graph.to_scipy()
    degree = np.asarray(adj.sum(axis=1)).ravel()
    with np.errstate(divide="ignore"):
        inv = 1.0 / degree
    inv[~np.isfinite(inv)] = 0.0
    return (sp.diags(inv) @ adj).tocsr()


def personalized_pagerank_operator(
    graph: CSRGraph,
    alpha: float = 0.15,
    num_iterations: int = 10,
    sparsify_threshold: float = 1e-4,
) -> sp.csr_matrix:
    """Truncated Personalized-PageRank diffusion operator.

    ``PPR = alpha * sum_k (1 - alpha)^k T^k`` with ``T`` the symmetrically
    normalized adjacency, truncated at ``num_iterations`` terms and sparsified
    by dropping entries below ``sparsify_threshold`` (as in GDC / Gasteiger et
    al. 2019, which the paper cites for SIGN's alternative operators).
    """
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if num_iterations < 1:
        raise ValueError("num_iterations must be >= 1")
    transition = normalized_adjacency(graph)
    result = sp.identity(graph.num_nodes, format="csr") * alpha
    power = sp.identity(graph.num_nodes, format="csr")
    for k in range(1, num_iterations + 1):
        power = (power @ transition).tocsr()
        result = result + alpha * (1 - alpha) ** k * power
        if sparsify_threshold > 0:
            result.data[np.abs(result.data) < sparsify_threshold] = 0.0
            result.eliminate_zeros()
    return result.tocsr()


def heat_kernel_operator(
    graph: CSRGraph,
    t: float = 3.0,
    num_iterations: int = 10,
    sparsify_threshold: float = 1e-4,
) -> sp.csr_matrix:
    """Heat-kernel diffusion ``exp(-t L) ≈ sum_k e^{-t} t^k / k! T^k``."""
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    if num_iterations < 1:
        raise ValueError("num_iterations must be >= 1")
    transition = normalized_adjacency(graph)
    coeff = np.exp(-t)
    result = sp.identity(graph.num_nodes, format="csr") * coeff
    power = sp.identity(graph.num_nodes, format="csr")
    for k in range(1, num_iterations + 1):
        power = (power @ transition).tocsr()
        coeff = coeff * t / k
        result = result + coeff * power
        if sparsify_threshold > 0:
            result.data[np.abs(result.data) < sparsify_threshold] = 0.0
            result.eliminate_zeros()
    return result.tocsr()


def operator_row_block(operator: sp.csr_matrix, start: int, stop: int) -> sp.csr_matrix:
    """Rows ``[start, stop)`` of a CSR operator as a rectangular block.

    The block is ``(stop - start, num_cols)`` and shares the operator's data
    and index arrays (only the short rebased ``indptr`` slice is copied), so
    building a block costs O(stop - start) regardless of graph size.  A
    block-SpMM ``operator_row_block(B, s, e) @ X`` runs the exact same
    per-row multiply-accumulate sequence as rows ``s:e`` of ``B @ X``, so
    tiled propagation is bit-identical to the in-core product.
    """
    num_rows, num_cols = operator.shape
    if not 0 <= start <= stop <= num_rows:
        raise ValueError(f"row block [{start}, {stop}) out of range for {num_rows} rows")
    lo, hi = int(operator.indptr[start]), int(operator.indptr[stop])
    indptr = operator.indptr[start : stop + 1] - operator.indptr[start]
    block = sp.csr_matrix(
        (operator.data[lo:hi], operator.indices[lo:hi], indptr),
        shape=(stop - start, num_cols),
        copy=False,
    )
    return block


def csr_rows(matrix: sp.csr_matrix, rows: np.ndarray) -> sp.csr_matrix:
    """Scattered rows of a CSR matrix as a ``(len(rows), num_cols)`` block.

    The generalization of :func:`operator_row_block` to non-contiguous row
    sets: data and indices are gathered per source row in storage order, so a
    SpMM against the result runs the exact per-row multiply-accumulate
    sequence of those rows of the full product (bit-identical).
    """
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size and (rows.min() < 0 or rows.max() >= matrix.shape[0]):
        raise ValueError(f"row indices out of range [0, {matrix.shape[0]})")
    starts = matrix.indptr[rows]
    counts = matrix.indptr[rows + 1] - starts
    indptr = np.zeros(rows.size + 1, dtype=matrix.indptr.dtype)
    np.cumsum(counts, out=indptr[1:])
    total = int(indptr[-1])
    if total:
        # flat source positions: for row j, starts[j] + [0, counts[j])
        offsets = np.repeat(starts - indptr[:-1], counts)
        flat = np.arange(total, dtype=np.int64) + offsets
        data, indices = matrix.data[flat], matrix.indices[flat]
    else:
        data = matrix.data[:0]
        indices = matrix.indices[:0]
    return sp.csr_matrix(
        (data, indices, indptr), shape=(rows.size, matrix.shape[1]), copy=False
    )


def operator_radius(name: str, **kwargs) -> int:
    """Hops of graph reachability one application of an operator spans.

    The structural half of :func:`operator_support` without building the
    support graph: 1 for the paper's 1-hop kernels, ``num_iterations`` for
    the truncated diffusion operators.
    """
    key = name.lower()
    if key not in OPERATOR_REGISTRY:
        raise KeyError(f"unknown operator {name!r}; available: {sorted(OPERATOR_REGISTRY)}")
    if key in ("normalized_adjacency", "sym_norm_adj", "random_walk"):
        return 1
    return int(kwargs.get("num_iterations", 10))


def operator_support(name: str, graph: CSRGraph, **kwargs) -> tuple[CSRGraph, int]:
    """The 1-application support of a registered operator.

    Returns ``(support_graph, radius)``: ``B[v, u] != 0`` implies ``u`` is
    reachable from ``v`` within ``radius`` hops of ``support_graph`` — the
    structural fact incremental updates use to bound how far a change
    propagates per operator application.
    """
    key = name.lower()
    if key not in OPERATOR_REGISTRY:
        raise KeyError(f"unknown operator {name!r}; available: {sorted(OPERATOR_REGISTRY)}")
    if key in ("normalized_adjacency", "sym_norm_adj"):
        support = symmetrize(graph) if kwargs.get("make_undirected", True) else graph
        if kwargs.get("add_self_loop", True):
            support = add_self_loops(support)
        return support, 1
    if key == "random_walk":
        support = add_self_loops(graph) if kwargs.get("add_self_loop", True) else graph
        return support, 1
    # diffusion operators: num_iterations applications of the normalized
    # adjacency (which symmetrizes and adds self-loops internally)
    radius = int(kwargs.get("num_iterations", 10))
    return add_self_loops(symmetrize(graph)), radius


class PartialOperator:
    """Bit-identical row slices of a registered operator, built lazily.

    For the paper's 1-hop kernels (normalized adjacency, random walk) the
    requested rows are built by replaying the full construction on a
    row-sliced adjacency — the same scipy diagonal-product kernels over the
    same per-row inputs, so values *and* the (scipy-version-dependent)
    within-row storage order come out byte-identical to
    ``csr_rows(build_operator(...), rows)``.  Setup is O(E) for the support
    graph and degrees; an extraction is O(nnz(rows)), never the full
    ``(N, N)`` operator.  Diffusion operators (PPR/heat) have no closed row
    form and fall back to building the full operator once.
    """

    def __init__(self, name: str, graph: CSRGraph, **kwargs) -> None:
        self.name = name.lower()
        if self.name not in OPERATOR_REGISTRY:
            raise KeyError(f"unknown operator {name!r}; available: {sorted(OPERATOR_REGISTRY)}")
        self._full: Optional[sp.csr_matrix] = None
        self._adj: Optional[sp.csr_matrix] = None
        self._left: Optional[np.ndarray] = None
        self._right: Optional[np.ndarray] = None
        if self.name in ("normalized_adjacency", "sym_norm_adj"):
            support, _ = operator_support(self.name, graph, **kwargs)
            self._adj = support.to_scipy()
            inv_sqrt = _degree_inv_sqrt(self._adj)
            self._left = inv_sqrt
            self._right = sp.diags(inv_sqrt)
        elif self.name == "random_walk":
            support, _ = operator_support(self.name, graph, **kwargs)
            self._adj = support.to_scipy()
            degree = np.asarray(self._adj.sum(axis=1)).ravel()
            with np.errstate(divide="ignore"):
                inv = 1.0 / degree
            inv[~np.isfinite(inv)] = 0.0
            self._left = inv
            self._right = None
        else:
            self._full = build_operator(self.name, graph, **kwargs)

    @property
    def support_matrix(self) -> sp.csr_matrix:
        """CSR whose sparsity pattern is the operator's (row -> touched columns)."""
        return self._adj if self._adj is not None else self._full

    def rows(self, rows: np.ndarray) -> sp.csr_matrix:
        """The requested operator rows as a ``(len(rows), N)`` CSR block."""
        rows = np.asarray(rows, dtype=np.int64)
        if self._full is not None:
            return csr_rows(self._full, rows)
        # replay the full build on the row slice: same left-associated
        # diagonal products, same kernels, hence the same bytes per row
        block = sp.diags(self._left[rows]) @ csr_rows(self._adj, rows)
        if self._right is not None:
            block = block @ self._right
        return block.tocsr()


OperatorFn = Callable[..., sp.csr_matrix]

OPERATOR_REGISTRY: Dict[str, OperatorFn] = {
    "normalized_adjacency": normalized_adjacency,
    "sym_norm_adj": normalized_adjacency,
    "random_walk": random_walk_operator,
    "ppr": personalized_pagerank_operator,
    "heat": heat_kernel_operator,
}


def build_operator(name: str, graph: CSRGraph, **kwargs) -> sp.csr_matrix:
    """Build a registered operator by name (case-insensitive)."""
    key = name.lower()
    if key not in OPERATOR_REGISTRY:
        raise KeyError(f"unknown operator {name!r}; available: {sorted(OPERATOR_REGISTRY)}")
    return OPERATOR_REGISTRY[key](graph, **kwargs)
