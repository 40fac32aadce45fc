"""Affected-frontier computation for incremental re-propagation.

A delta touches a set of *seed* nodes (edge endpoints, feature-overwritten
nodes).  After ``R`` applications of a 1-hop operator, the only store rows
whose values can differ from the old snapshot are the nodes within ``R``
reverse hops of a seed over the operator's support — the rows whose
dependency ball intersects the change.

:func:`affected_frontier` bounds that set without ever materializing an
operator: every registered operator's support is contained in the graph's
adjacency pattern plus its transpose plus self-loops (symmetrization and
self-loops never *extend* reachability beyond that closure), so the ball over
the **bidirectional union** of the old and new adjacency patterns is a sound
superset for every kernel — a deleted edge still propagated influence in the
old snapshot, an inserted one does in the new, hence both graphs.  The
expansion walks the old and new edges as one concatenated ``(src, dst)`` edge
list, forwards and backwards: each hop is one boolean-mask pass per direction
over every edge, so an update costs O(E) per hop whatever the size of the
delta — no transpose, sort or set algebra.

Over-approximation is free for correctness: re-propagating a row whose
dependency chain did not actually change rewrites byte-identical values.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.operators import operator_radius
from repro.prepropagation.propagator import PropagationConfig
from repro.updates.delta import GraphDelta

__all__ = ["affected_frontier"]


def _edge_list(graphs: Sequence[CSRGraph]) -> tuple[np.ndarray, np.ndarray]:
    """Every edge of ``graphs`` as one concatenated ``(src, dst)`` pair of arrays."""
    sources = [np.repeat(np.arange(g.num_nodes), np.diff(g.indptr)) for g in graphs]
    return np.concatenate(sources), np.concatenate([g.indices for g in graphs])


def _ball(
    edges: Sequence[tuple[np.ndarray, np.ndarray]], num_nodes: int, seeds: np.ndarray, hops: int
) -> np.ndarray:
    """Sorted nodes within ``hops`` steps of ``seeds`` (seeds included) along
    ``edges``, a sequence of ``(tail, head)`` array pairs walked tail -> head."""
    reached = np.zeros(num_nodes, dtype=bool)
    reached[seeds] = True
    frontier = reached.copy()
    for _ in range(int(hops)):
        hit = np.zeros(num_nodes, dtype=bool)
        for tail, head in edges:
            hit[head[frontier[tail]]] = True
        frontier = hit & ~reached
        if not frontier.any():
            break
        reached |= frontier
    return np.flatnonzero(reached)


def affected_frontier(
    old_graph: CSRGraph,
    new_graph: CSRGraph,
    delta: GraphDelta,
    config: PropagationConfig,
) -> np.ndarray:
    """Sorted unique node set whose stored rows a delta can change.

    The ``num_hops * max-radius`` ball of the delta's seed nodes over the
    bidirectional union of the old and new adjacency patterns.  Every node
    outside this set has a byte-identical dependency chain in the old and new
    snapshots, so its store rows need no recompute (the bit-identity argument
    incremental updates rest on); nodes inside are re-propagated, which is
    harmless for any the over-approximation included spuriously.
    """
    seeds = delta.seed_nodes()
    if seeds.size == 0:
        return seeds
    radius = max(
        operator_radius(name, **config.kwargs_for(k))
        for k, name in enumerate(config.operators)
    )
    # the reversed edges are the same two arrays walked head -> tail
    src, dst = _edge_list([old_graph, new_graph])
    return _ball([(src, dst), (dst, src)], old_graph.num_nodes, seeds, config.num_hops * radius)
