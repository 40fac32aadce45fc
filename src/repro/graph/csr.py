"""Compressed-sparse-row graph structure.

The samplers, propagation operators and dataset generators all operate on
:class:`CSRGraph`, a thin immutable wrapper around the standard CSR triplet
(``indptr``, ``indices``, optional ``edge_weight``).  The layout mirrors what
DGL/PyG use internally, which keeps the sampler implementations close to the
algorithms in their papers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp


@dataclass(frozen=True)
class CSRGraph:
    """An immutable directed graph in CSR form.

    ``indptr`` has length ``num_nodes + 1``; the out-neighbors of node ``v``
    are ``indices[indptr[v]:indptr[v+1]]``.  For undirected graphs both edge
    directions are stored explicitly (see :func:`repro.graph.builders.symmetrize`).
    """

    indptr: np.ndarray
    indices: np.ndarray
    num_nodes: int
    edge_weight: Optional[np.ndarray] = None
    name: str = field(default="graph")

    def __post_init__(self) -> None:
        indptr = np.asarray(self.indptr, dtype=np.int64)
        indices = np.asarray(self.indices, dtype=np.int64)
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)
        if indptr.ndim != 1 or indices.ndim != 1:
            raise ValueError("indptr and indices must be 1-D arrays")
        if self.num_nodes < 0:
            raise ValueError("num_nodes must be non-negative")
        if indptr.shape[0] != self.num_nodes + 1:
            raise ValueError(
                f"indptr length {indptr.shape[0]} does not match num_nodes + 1 = {self.num_nodes + 1}"
            )
        if indptr[0] != 0 or indptr[-1] != indices.shape[0]:
            raise ValueError("indptr must start at 0 and end at len(indices)")
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if indices.size and (indices.min() < 0 or indices.max() >= self.num_nodes):
            raise ValueError("indices contain out-of-range node ids")
        if self.edge_weight is not None:
            weight = np.asarray(self.edge_weight, dtype=np.float64)
            if weight.shape != indices.shape:
                raise ValueError("edge_weight must align with indices")
            object.__setattr__(self, "edge_weight", weight)

    # ------------------------------------------------------------------ #
    @property
    def num_edges(self) -> int:
        """Number of stored directed edges."""
        return int(self.indices.shape[0])

    def out_degree(self, nodes: Optional[np.ndarray] = None) -> np.ndarray:
        """Out-degrees for ``nodes`` (or all nodes)."""
        degrees = np.diff(self.indptr)
        if nodes is None:
            return degrees
        return degrees[np.asarray(nodes, dtype=np.int64)]

    def neighbors(self, node: int) -> np.ndarray:
        """Out-neighborhood of ``node`` as a view into ``indices``."""
        if not 0 <= node < self.num_nodes:
            raise IndexError(f"node {node} out of range [0, {self.num_nodes})")
        return self.indices[self.indptr[node] : self.indptr[node + 1]]

    def neighbor_slices(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return (starts, stops) of the CSR slices for a batch of nodes."""
        nodes = np.asarray(nodes, dtype=np.int64)
        return self.indptr[nodes], self.indptr[nodes + 1]

    # ------------------------------------------------------------------ #
    def to_scipy(self) -> sp.csr_matrix:
        """Return the adjacency matrix as a ``scipy.sparse.csr_matrix``."""
        data = self.edge_weight if self.edge_weight is not None else np.ones(self.num_edges)
        return sp.csr_matrix(
            (data, self.indices, self.indptr), shape=(self.num_nodes, self.num_nodes)
        )

    @staticmethod
    def from_scipy(matrix: sp.spmatrix, name: str = "graph") -> "CSRGraph":
        """Build a graph from any scipy sparse matrix (weights preserved)."""
        csr = matrix.tocsr()
        if csr.shape[0] != csr.shape[1]:
            raise ValueError(f"adjacency matrix must be square, got {csr.shape}")
        csr.sort_indices()
        weights = np.asarray(csr.data, dtype=np.float64)
        uniform = np.allclose(weights, 1.0)
        return CSRGraph(
            indptr=csr.indptr.astype(np.int64),
            indices=csr.indices.astype(np.int64),
            num_nodes=csr.shape[0],
            edge_weight=None if uniform else weights,
            name=name,
        )

    def reverse(self) -> "CSRGraph":
        """Return the graph with all edges reversed (CSC view of the adjacency).

        Direct O(E) CSR transpose: in-degrees via ``bincount`` give the new
        ``indptr``; a stable argsort of the destination column groups edges by
        destination while preserving the ascending source order inside each
        group, so the reversed rows come out sorted and any edge weights stay
        aligned with their edge.  (No scipy round-trip, which also means
        uniform all-ones weights are preserved rather than dropped.)
        """
        counts = np.bincount(self.indices, minlength=self.num_nodes)
        new_indptr = np.zeros(self.num_nodes + 1, dtype=np.int64)
        np.cumsum(counts, out=new_indptr[1:])
        order = np.argsort(self.indices, kind="stable")
        sources = np.repeat(np.arange(self.num_nodes, dtype=np.int64), np.diff(self.indptr))
        return CSRGraph(
            indptr=new_indptr,
            indices=sources[order],
            num_nodes=self.num_nodes,
            edge_weight=self.edge_weight[order] if self.edge_weight is not None else None,
            name=f"{self.name}.rev",
        )

    def subgraph(self, nodes: np.ndarray) -> tuple["CSRGraph", np.ndarray]:
        """Induced subgraph on ``nodes``.

        Returns the subgraph (with nodes relabelled ``0..len(nodes)-1``) and
        the original node ids in new-id order.
        """
        nodes = np.unique(np.asarray(nodes, dtype=np.int64))
        adj = self.to_scipy()
        sub = adj[nodes][:, nodes]
        return CSRGraph.from_scipy(sub.tocsr(), name=f"{self.name}.sub"), nodes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRGraph(name={self.name!r}, num_nodes={self.num_nodes}, "
            f"num_edges={self.num_edges})"
        )
