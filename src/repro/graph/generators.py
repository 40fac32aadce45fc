"""Synthetic graph generators.

These replace the OGB / IGB / non-homophilous benchmark downloads, which are
not available offline.  The generators control the two properties that drive
the paper's accuracy trends:

* **homophily** — how strongly edges connect same-label nodes, which
  determines how useful neighbor aggregation (and thus deeper receptive
  fields) is;
* **degree distribution** — power-law-ish degrees as in web/social graphs,
  which determines sampled-subgraph growth for the MP-GNN samplers.
"""

from __future__ import annotations


import numpy as np

from repro.graph.builders import from_edge_index, symmetrize
from repro.graph.csr import CSRGraph
from repro.utils.rng import SeedLike, new_rng


def stochastic_block_model(
    block_sizes: list[int],
    p_in: float,
    p_out: float,
    seed: SeedLike = None,
    name: str = "sbm",
) -> tuple[CSRGraph, np.ndarray]:
    """Sample an undirected stochastic block model.

    Returns the graph and the per-node block (community) assignment.  The
    expected edge count is kept manageable by sampling each block pair's
    Bernoulli edges via a binomial draw + uniform placement, so the generator
    scales to ~10^5 nodes without materializing dense matrices.
    """
    if any(size <= 0 for size in block_sizes):
        raise ValueError("block sizes must be positive")
    if not (0 <= p_out <= p_in <= 1):
        raise ValueError("expected 0 <= p_out <= p_in <= 1")
    rng = new_rng(seed)
    offsets = np.cumsum([0] + list(block_sizes))
    n = int(offsets[-1])
    labels = np.zeros(n, dtype=np.int64)
    for block, (start, stop) in enumerate(zip(offsets[:-1], offsets[1:])):
        labels[start:stop] = block

    src_chunks: list[np.ndarray] = []
    dst_chunks: list[np.ndarray] = []
    num_blocks = len(block_sizes)
    for bi in range(num_blocks):
        for bj in range(bi, num_blocks):
            prob = p_in if bi == bj else p_out
            if prob <= 0:
                continue
            size_i = block_sizes[bi]
            size_j = block_sizes[bj]
            if bi == bj:
                possible = size_i * (size_i - 1) // 2
            else:
                possible = size_i * size_j
            if possible == 0:
                continue
            count = rng.binomial(possible, prob)
            if count == 0:
                continue
            if bi == bj:
                # Sample unordered intra-block pairs without replacement bias
                # (duplicates are coalesced later, negligible at these densities).
                u = rng.integers(0, size_i, size=count)
                v = rng.integers(0, size_i, size=count)
                keep = u != v
                u, v = u[keep], v[keep]
            else:
                u = rng.integers(0, size_i, size=count)
                v = rng.integers(0, size_j, size=count)
            src_chunks.append(u + offsets[bi])
            dst_chunks.append(v + offsets[bj])

    if src_chunks:
        src = np.concatenate(src_chunks)
        dst = np.concatenate(dst_chunks)
        edge_index = np.stack([src, dst])
    else:
        edge_index = np.zeros((2, 0), dtype=np.int64)
    graph = from_edge_index(edge_index, num_nodes=n, name=name)
    return symmetrize(graph), labels


def powerlaw_cluster_graph(
    num_nodes: int,
    num_attach: int,
    triangle_prob: float = 0.1,
    seed: SeedLike = None,
    name: str = "powerlaw",
) -> CSRGraph:
    """Holme–Kim powerlaw cluster graph (preferential attachment + triads).

    A vectorized-ish reimplementation (networkx's generator is too slow above
    ~10^4 nodes for the dataset replicas).  Produces heavy-tailed degrees like
    the citation/social graphs in the paper's benchmark suite.
    """
    if num_attach < 1:
        raise ValueError("num_attach must be >= 1")
    if num_nodes <= num_attach:
        raise ValueError("num_nodes must exceed num_attach")
    if not 0 <= triangle_prob <= 1:
        raise ValueError("triangle_prob must be in [0, 1]")
    rng = new_rng(seed)

    # repeated-nodes list implements preferential attachment in O(E)
    repeated: list[int] = list(range(num_attach))
    src_list: list[int] = []
    dst_list: list[int] = []
    for new_node in range(num_attach, num_nodes):
        targets: set[int] = set()
        while len(targets) < num_attach:
            candidate = repeated[rng.integers(0, len(repeated))]
            if candidate == new_node:
                continue
            if targets and rng.random() < triangle_prob:
                # close a triangle: connect to a neighbor of an existing target
                anchor = next(iter(targets))
                anchor_neighbors = [d for s, d in zip(src_list, dst_list) if s == anchor]
                if anchor_neighbors:
                    candidate = anchor_neighbors[rng.integers(0, len(anchor_neighbors))]
            if candidate != new_node:
                targets.add(int(candidate))
        for t in targets:
            src_list.append(new_node)
            dst_list.append(t)
            repeated.extend([new_node, t])

    edge_index = np.stack([np.array(src_list, dtype=np.int64), np.array(dst_list, dtype=np.int64)])
    graph = from_edge_index(edge_index, num_nodes=num_nodes, name=name)
    return symmetrize(graph)
