"""Sampler interface and the sampled-block (message-flow-graph) structure."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from repro.graph.csr import CSRGraph


@dataclass
class SampledBlock:
    """One bipartite layer of a sampled computation graph.

    Mirrors DGL's message-flow-graph (MFG) blocks: messages flow from
    ``src_nodes`` (the wider, earlier-hop frontier) to ``dst_nodes`` (the
    narrower frontier that the next layer consumes).  ``dst_nodes`` is always
    a prefix of ``src_nodes`` so a model can reuse the first
    ``len(dst_nodes)`` rows of the source representation for self-connections.

    ``adjacency`` is a ``(num_dst, num_src)`` sparse matrix; entry (i, j) is
    the (importance-corrected) weight of the edge from ``src_nodes[j]`` to
    ``dst_nodes[i]``.
    """

    src_nodes: np.ndarray
    dst_nodes: np.ndarray
    adjacency: sp.csr_matrix

    def __post_init__(self) -> None:
        self.src_nodes = np.asarray(self.src_nodes, dtype=np.int64)
        self.dst_nodes = np.asarray(self.dst_nodes, dtype=np.int64)
        if self.adjacency.shape != (self.dst_nodes.size, self.src_nodes.size):
            raise ValueError(
                f"adjacency shape {self.adjacency.shape} does not match "
                f"(num_dst={self.dst_nodes.size}, num_src={self.src_nodes.size})"
            )
        if self.dst_nodes.size > self.src_nodes.size or not np.array_equal(
            self.src_nodes[: self.dst_nodes.size], self.dst_nodes
        ):
            raise ValueError("dst_nodes must be a prefix of src_nodes")

    @property
    def num_src(self) -> int:
        return int(self.src_nodes.size)

    @property
    def num_dst(self) -> int:
        return int(self.dst_nodes.size)

    @property
    def num_edges(self) -> int:
        return int(self.adjacency.nnz)

    def edge_list(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return (dst_local, src_local, weight) of all sampled edges."""
        coo = self.adjacency.tocoo()
        return coo.row, coo.col, coo.data


@dataclass
class MiniBatch:
    """A sampled mini-batch handed to an MP-GNN model.

    ``blocks`` is ordered from the outermost hop (consumed first by layer 0)
    to the innermost; ``input_nodes`` are the nodes whose raw features must be
    fetched (the neighbor-explosion cost), and ``output_nodes`` are the seed
    nodes whose predictions/labels are used for the loss.
    """

    input_nodes: np.ndarray
    output_nodes: np.ndarray
    blocks: List[SampledBlock] = field(default_factory=list)
    subgraph: Optional[CSRGraph] = None
    node_weight: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.input_nodes = np.asarray(self.input_nodes, dtype=np.int64)
        self.output_nodes = np.asarray(self.output_nodes, dtype=np.int64)

    @property
    def num_input_nodes(self) -> int:
        return int(self.input_nodes.size)

    @property
    def num_output_nodes(self) -> int:
        return int(self.output_nodes.size)


class Sampler:
    """Base class: turns (graph, seed nodes) into a :class:`MiniBatch`."""

    #: number of message-passing layers this sampler prepares blocks for
    num_layers: int = 1

    def sample(self, graph: CSRGraph, seeds: np.ndarray, rng: np.random.Generator) -> MiniBatch:
        raise NotImplementedError

    def epoch_batches(
        self,
        graph: CSRGraph,
        train_nodes: np.ndarray,
        batch_size: int,
        rng: np.random.Generator,
        drop_last: bool = False,
    ) -> list[MiniBatch]:
        """Sample one epoch worth of mini-batches under random reshuffling."""
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        train_nodes = np.asarray(train_nodes, dtype=np.int64)
        perm = rng.permutation(train_nodes)
        batches = []
        for start in range(0, perm.size, batch_size):
            seeds = perm[start : start + batch_size]
            if drop_last and seeds.size < batch_size:
                break
            batches.append(self.sample(graph, seeds, rng))
        return batches


def block_from_edges(
    seeds: np.ndarray,
    src_per_seed: Sequence[np.ndarray],
    weights_per_seed: Optional[Sequence[np.ndarray]] = None,
    normalize: bool = True,
) -> SampledBlock:
    """Assemble a :class:`SampledBlock` from per-seed sampled neighbor lists.

    ``src_per_seed[i]`` are the global ids of sampled in-neighbors of
    ``seeds[i]``.  Source nodes are the seeds followed by the unique sampled
    neighbors (so self-features stay addressable); the adjacency row for each
    seed is (optionally) row-normalized, which yields the mean aggregator.
    """
    seeds = np.asarray(seeds, dtype=np.int64)
    all_neighbors = (
        np.concatenate([np.asarray(x, dtype=np.int64) for x in src_per_seed])
        if len(src_per_seed)
        else np.array([], dtype=np.int64)
    )
    unique_extra = np.setdiff1d(np.unique(all_neighbors), seeds, assume_unique=False)
    src_nodes = np.concatenate([seeds, unique_extra])
    position = {int(node): i for i, node in enumerate(src_nodes)}

    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    for i, neighbors in enumerate(src_per_seed):
        neighbors = np.asarray(neighbors, dtype=np.int64)
        if neighbors.size == 0:
            # isolated seed: self-loop keeps the row non-empty
            rows.append(i)
            cols.append(i)
            vals.append(1.0)
            continue
        w = (
            np.asarray(weights_per_seed[i], dtype=np.float64)
            if weights_per_seed is not None
            else np.ones(neighbors.size)
        )
        for neighbor, weight in zip(neighbors, w):
            rows.append(i)
            cols.append(position[int(neighbor)])
            vals.append(float(weight))

    adjacency = sp.csr_matrix(
        (vals, (rows, cols)), shape=(seeds.size, src_nodes.size)
    )
    if normalize:
        from repro.tensor.sparse import row_normalize

        adjacency = row_normalize(adjacency)
    return SampledBlock(src_nodes=src_nodes, dst_nodes=seeds, adjacency=adjacency)
