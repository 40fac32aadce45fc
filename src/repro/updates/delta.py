"""Timestamped graph/feature deltas and their application.

A :class:`GraphDelta` is one batch of changes against a snapshot: edge
insertions, edge deletions and/or node-feature overwrites, each optionally
timestamped (the event-stream framing of temporal GNN workloads — batches
arrive ordered by time, and one delta is one window of events).  Application
semantics are deterministic and order-free *within* a batch:

* deletions apply first, then insertions — an edge both deleted and inserted
  in the same batch ends up present (with the inserted weight);
* inserting an edge that already exists overwrites its weight;
* duplicate insertions of the same edge: the last one in the batch wins;
* ``symmetric=True`` (the default, matching the symmetrized graphs the
  propagation operators use) mirrors every insertion and deletion;
* duplicate feature overwrites of the same node: the last one wins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp

from repro.graph.csr import CSRGraph
from repro.resilience.checkpoint import digest_array, digest_parts

__all__ = ["GraphDelta", "apply_delta", "apply_features"]


def _as_edge_array(edges, name: str) -> np.ndarray:
    array = np.asarray(edges if edges is not None else [], dtype=np.int64)
    if array.size == 0:
        return array.reshape(0, 2)
    if array.ndim != 2 or array.shape[1] != 2:
        raise ValueError(f"{name} must have shape (E, 2), got {array.shape}")
    return array


def _as_times(times, count: int, name: str) -> Optional[np.ndarray]:
    if times is None:
        return None
    array = np.asarray(times, dtype=np.float64).ravel()
    if array.shape[0] != count:
        raise ValueError(f"{name} must align with its edges/nodes ({count}), got {array.shape[0]}")
    return array


@dataclass
class GraphDelta:
    """One batch of timestamped edge and feature changes.

    ``insertions`` / ``deletions`` are ``(E, 2)`` arrays of ``(src, dst)``
    pairs; ``feature_nodes`` / ``feature_values`` give full-row feature
    overwrites.  The ``*_times`` arrays are optional per-event timestamps —
    they do not change application semantics (a delta is one atomic batch)
    but ride along for provenance and are part of the delta fingerprint.
    """

    insertions: np.ndarray = field(default_factory=lambda: np.empty((0, 2), dtype=np.int64))
    deletions: np.ndarray = field(default_factory=lambda: np.empty((0, 2), dtype=np.int64))
    insertion_weights: Optional[np.ndarray] = None
    insertion_times: Optional[np.ndarray] = None
    deletion_times: Optional[np.ndarray] = None
    feature_nodes: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    feature_values: Optional[np.ndarray] = None
    feature_times: Optional[np.ndarray] = None
    symmetric: bool = True

    def __post_init__(self) -> None:
        self.insertions = _as_edge_array(self.insertions, "insertions")
        self.deletions = _as_edge_array(self.deletions, "deletions")
        if self.insertion_weights is not None:
            weights = np.asarray(self.insertion_weights, dtype=np.float64).ravel()
            if weights.shape[0] != self.insertions.shape[0]:
                raise ValueError("insertion_weights must align with insertions")
            self.insertion_weights = weights
        self.insertion_times = _as_times(
            self.insertion_times, self.insertions.shape[0], "insertion_times"
        )
        self.deletion_times = _as_times(
            self.deletion_times, self.deletions.shape[0], "deletion_times"
        )
        self.feature_nodes = np.asarray(self.feature_nodes, dtype=np.int64).ravel()
        if self.feature_nodes.size:
            if self.feature_values is None:
                raise ValueError("feature_nodes given without feature_values")
            values = np.asarray(self.feature_values)
            if values.ndim != 2 or values.shape[0] != self.feature_nodes.shape[0]:
                raise ValueError(
                    f"feature_values must be (len(feature_nodes), F), got {values.shape}"
                )
            self.feature_values = values
        self.feature_times = _as_times(
            self.feature_times, self.feature_nodes.shape[0], "feature_times"
        )

    # ------------------------------------------------------------------ #
    def seed_nodes(self) -> np.ndarray:
        """Sorted unique nodes directly touched by this delta.

        Endpoints of every inserted or deleted edge (both of them — a degree
        change rescales the touched operator rows *and* columns) plus every
        feature-overwritten node.  These seed the affected-frontier expansion.
        """
        return np.unique(
            np.concatenate(
                [self.insertions.ravel(), self.deletions.ravel(), self.feature_nodes]
            )
        )

    def validate_for(self, graph: CSRGraph) -> None:
        """Raise if any referenced node is out of range for ``graph``."""
        seeds = self.seed_nodes()
        if seeds.size and (seeds[0] < 0 or seeds[-1] >= graph.num_nodes):
            raise ValueError(
                f"delta references node(s) outside [0, {graph.num_nodes})"
            )

    def fingerprint(self) -> str:
        """Content digest of the delta — part of the update run's identity."""
        parts = {
            "insertions": digest_array(self.insertions),
            "deletions": digest_array(self.deletions),
            "insertion_weights": (
                "none" if self.insertion_weights is None else digest_array(self.insertion_weights)
            ),
            "insertion_times": (
                "none" if self.insertion_times is None else digest_array(self.insertion_times)
            ),
            "deletion_times": (
                "none" if self.deletion_times is None else digest_array(self.deletion_times)
            ),
            "feature_nodes": digest_array(self.feature_nodes),
            "feature_values": (
                "none" if self.feature_values is None else digest_array(self.feature_values)
            ),
            "feature_times": (
                "none" if self.feature_times is None else digest_array(self.feature_times)
            ),
            "symmetric": self.symmetric,
        }
        return digest_parts(parts)


# --------------------------------------------------------------------------- #
def _directed_edges(delta: GraphDelta) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deletions, insertions and insertion weights with mirrors applied."""
    deletions = delta.deletions
    insertions = delta.insertions
    weights = (
        delta.insertion_weights
        if delta.insertion_weights is not None
        else np.ones(insertions.shape[0])
    )
    if delta.symmetric:
        deletions = np.concatenate([deletions, deletions[:, ::-1]])
        insertions = np.concatenate([insertions, insertions[:, ::-1]])
        weights = np.concatenate([weights, weights])
    return deletions, insertions, weights


def apply_delta(graph: CSRGraph, delta: GraphDelta) -> CSRGraph:
    """Return the graph with ``delta`` applied (deletions, then insertions)."""
    delta.validate_for(graph)
    if delta.insertions.shape[0] == 0 and delta.deletions.shape[0] == 0:
        return graph
    n = graph.num_nodes
    deletions, insertions, ins_weights = _directed_edges(delta)

    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.indptr))
    dst = graph.indices
    weight = graph.edge_weight if graph.edge_weight is not None else np.ones(dst.shape[0])
    keys = src * n + dst

    # within-batch last-wins dedupe of insertions: keep the final occurrence
    # of each (src, dst)
    ins_keys = insertions[:, 0] * n + insertions[:, 1]
    if ins_keys.size:
        _, last_rev = np.unique(ins_keys[::-1], return_index=True)
        keep_ins = ins_keys.shape[0] - 1 - last_rev
        insertions = insertions[keep_ins]
        ins_weights = ins_weights[keep_ins]
        ins_keys = ins_keys[keep_ins]

    # drop every existing edge that is deleted or re-inserted (insert =
    # overwrite).  Deltas are tiny relative to E, so binary-search the sorted
    # drop set instead of np.isin (which sorts all E keys).
    drop_keys = np.unique(
        np.concatenate([deletions[:, 0] * n + deletions[:, 1], ins_keys])
    )
    positions = np.searchsorted(drop_keys, keys)
    positions[positions == drop_keys.size] = 0
    keep = drop_keys[positions] != keys if drop_keys.size else np.ones(keys.size, bool)
    merged = sp.coo_matrix(
        (
            np.concatenate([weight[keep], ins_weights]),
            (
                np.concatenate([src[keep], insertions[:, 0]]),
                np.concatenate([dst[keep], insertions[:, 1]]),
            ),
        ),
        shape=(n, n),
    )
    return CSRGraph.from_scipy(merged.tocsr(), name=graph.name)


def apply_features(features: np.ndarray, delta: GraphDelta) -> np.ndarray:
    """Return the feature matrix with ``delta``'s row overwrites applied.

    Returns the input array unchanged (no copy) when the delta carries no
    feature events.
    """
    if delta.feature_nodes.size == 0:
        return features
    if delta.feature_nodes.max() >= features.shape[0] or delta.feature_nodes.min() < 0:
        raise ValueError(f"feature_nodes out of range [0, {features.shape[0]})")
    values = np.asarray(delta.feature_values)
    if values.shape[1] != features.shape[1]:
        raise ValueError(
            f"feature_values dim {values.shape[1]} != feature dim {features.shape[1]}"
        )
    out = features.copy()
    # last overwrite of a node wins
    nodes = delta.feature_nodes
    _, last_rev = np.unique(nodes[::-1], return_index=True)
    keep = nodes.shape[0] - 1 - last_rev
    out[nodes[keep]] = values[keep].astype(features.dtype, copy=False)
    return out
