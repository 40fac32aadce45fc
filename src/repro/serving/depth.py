"""Node-adaptive propagation depth for serving-time gathers.

Following *Accelerating Scalable GNN Inference with Node-Adaptive
Propagation* (arXiv:2310.10998), not every node needs the full R-hop
receptive field at inference time: well-connected hub nodes aggregate a
near-stationary neighborhood signal after very few hops, while sparse
peripheral nodes need the deeper hops to accumulate enough mass.  We score
each store row by its out-degree — degree is proportional to the random-walk
stationary (PPR) mass on undirected graphs and is free to compute from the
CSR index — and assign *fewer* hops to higher-scoring nodes via quantile
bands.

Truncation is value-level, not shape-level: a node served at depth ``d``
still yields the full ``(M, F)`` block, but every hop index ``r > d`` within
each kernel repeats the hop-``d`` values.  That keeps the serving output
shape-compatible with the packed store and — because the depth assignment is
a pure function of the store rows, computed once — makes the coalesced and
direct paths bit-identical by construction.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

__all__ = ["NodeAdaptiveDepth"]


class NodeAdaptiveDepth:
    """Per-row propagation depth derived from degree quantile bands."""

    def __init__(self, depths: np.ndarray, num_hops: int, num_kernels: int) -> None:
        depths = np.asarray(depths, dtype=np.int64)
        if depths.ndim != 1:
            raise ValueError("depths must be a 1-D per-row array")
        if num_hops < 0 or num_kernels < 1:
            raise ValueError("num_hops must be >= 0 and num_kernels >= 1")
        if depths.size and (depths.min() < 0 or depths.max() > num_hops):
            raise ValueError("per-row depths must lie in [0, num_hops]")
        self.depths = depths
        self.num_hops = int(num_hops)
        self.num_kernels = int(num_kernels)

    @classmethod
    def from_scores(
        cls,
        scores: np.ndarray,
        num_hops: int,
        num_kernels: int = 1,
        min_depth: int = 1,
        quantiles: Sequence[float] = (0.5, 0.9),
    ) -> "NodeAdaptiveDepth":
        """Band rows by score quantiles; higher scores get shallower depth.

        ``quantiles`` split the score distribution into ``len(quantiles)+1``
        bands; band 0 (lowest scores) keeps the full ``num_hops`` and the top
        band is truncated down to ``min_depth``.  ``searchsorted`` with
        ``side="left"`` places ties at a threshold into the *lower* band, so a
        degenerate all-equal score distribution keeps every row at full depth.
        """
        scores = np.asarray(scores, dtype=np.float64).ravel()
        if not 0 <= min_depth <= num_hops:
            raise ValueError("min_depth must lie in [0, num_hops]")
        qs = tuple(sorted(quantiles))
        if any(not 0.0 < q < 1.0 for q in qs):
            raise ValueError("quantiles must lie strictly inside (0, 1)")
        levels = np.round(np.linspace(num_hops, min_depth, len(qs) + 1)).astype(np.int64)
        if scores.size == 0:
            return cls(np.empty(0, dtype=np.int64), num_hops, num_kernels)
        thresholds = np.quantile(scores, qs)
        bands = np.searchsorted(thresholds, scores, side="left")
        return cls(levels[bands], num_hops, num_kernels)

    @classmethod
    def from_graph(
        cls,
        graph,
        node_ids: Optional[np.ndarray],
        num_hops: int,
        num_kernels: int = 1,
        min_depth: int = 1,
        quantiles: Sequence[float] = (0.5, 0.9),
    ) -> "NodeAdaptiveDepth":
        """Score store rows by out-degree of the node each row holds."""
        if node_ids is None:
            node_ids = np.arange(graph.num_nodes, dtype=np.int64)
        degrees = graph.out_degree(np.asarray(node_ids, dtype=np.int64))
        return cls.from_scores(
            degrees, num_hops, num_kernels=num_kernels, min_depth=min_depth, quantiles=quantiles
        )

    # ------------------------------------------------------------------ #
    @property
    def per_kernel(self) -> int:
        """Matrices per kernel in the packed layout (hops 0..R)."""
        return self.num_hops + 1

    def is_trivial(self) -> bool:
        """True when no row is actually truncated (all at full depth)."""
        return bool(self.depths.size == 0 or self.depths.min() == self.num_hops)

    def truncate(self, block: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Overwrite hops beyond each row's depth with its hop-``depth`` values.

        ``block`` is ``(M, B, F)`` in the packed kernel-major layout (matrix
        ``m = k * (R + 1) + r``); ``rows`` are the ``B`` store-row indices the
        columns of ``block`` hold.  Operates in place and returns ``block``.
        """
        rows = np.asarray(rows, dtype=np.int64).ravel()
        depths = self.depths[rows]
        per = self.per_kernel
        for depth in np.unique(depths):
            if depth >= self.num_hops:
                continue
            cols = np.flatnonzero(depths == depth)
            for kernel in range(self.num_kernels):
                base = kernel * per
                source = block[base + depth, cols]
                for hop in range(depth + 1, per):
                    block[base + hop, cols] = source
        return block
