"""Hop-wise feature propagation — Eq. (2) of the paper.

``S_k = {X, B_k X, B_k^2 X, ..., B_k^R X}`` for each operator ``B_k``.  The
multiplication is a sparse-dense product per hop, computed once in
preprocessing and reused for every training run (the amortization argument of
Section 3.5 / Table 7).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.operators import build_operator
from repro.utils.logging import get_logger
from repro.utils.timer import Timer

logger = get_logger("prepropagation.propagator")


@dataclass(frozen=True)
class PropagationConfig:
    """Configuration of the preprocessing step.

    Attributes
    ----------
    num_hops:
        ``R`` in Eq. (2); hop 0 is the raw features.
    operators:
        Operator names from :data:`repro.graph.operators.OPERATOR_REGISTRY`
        (``K`` kernels).  The paper's main results use a single kernel, the
        symmetrically normalized adjacency.
    operator_kwargs:
        Extra keyword arguments forwarded to each operator builder.
    dtype:
        Storage dtype of the propagated features (float32 matches the paper's
        byte accounting).  It is also the *training* precision: the trainers
        cast the model to the dtype of the features they read and the autograd
        engine computes in it, so ``dtype="float64"`` is how to train in
        double precision.
    accumulate_dtype:
        Dtype the SpMM chain runs in (operator data and the hop-``r`` input to
        hop ``r + 1``).  The float64 default maximizes numerical headroom but
        holds ``8 N F``-byte working matrices — on top of the stored float32
        hops, a silent 2x of the resident working set.  ``"float32"`` halves
        the accumulator at a bounded precision cost (normalized operators
        keep hop magnitudes O(1), so error stays ~1e-6 relative).
    """

    num_hops: int = 3
    operators: tuple[str, ...] = ("normalized_adjacency",)
    operator_kwargs: tuple[dict, ...] = field(default=())
    dtype: str = "float32"
    accumulate_dtype: str = "float64"

    def __post_init__(self) -> None:
        if self.num_hops < 0:
            raise ValueError("num_hops must be non-negative")
        if not self.operators:
            raise ValueError("at least one operator is required")
        if self.operator_kwargs and len(self.operator_kwargs) != len(self.operators):
            raise ValueError("operator_kwargs must match operators length (or be empty)")
        if np.dtype(self.accumulate_dtype).name not in ("float32", "float64"):
            raise ValueError(
                f"accumulate_dtype must be float32 or float64, got {self.accumulate_dtype!r}"
            )

    @property
    def num_kernels(self) -> int:
        return len(self.operators)

    @property
    def num_matrices(self) -> int:
        """Total number of stored matrices — the input-expansion factor K(R+1)."""
        return self.num_kernels * (self.num_hops + 1)

    def kwargs_for(self, kernel_index: int) -> dict:
        if not self.operator_kwargs:
            return {}
        return dict(self.operator_kwargs[kernel_index])


def propagate_features(
    graph: CSRGraph,
    features: np.ndarray,
    config: PropagationConfig,
) -> tuple[list[list[np.ndarray]], dict]:
    """Compute hop-wise propagated features for every configured operator.

    The paper's full-graph recipe, kept as the reference: preprocessing runs
    :func:`~repro.prepropagation.blocked.propagate_blocked`, which must write
    exactly these values for the stored rows.

    Returns
    -------
    hop_features:
        ``hop_features[k][r]`` is the ``(N, F)`` matrix ``B_k^r X`` (r=0 is X).
    timing:
        Wall-clock seconds split into operator construction and propagation —
        the basis of Table 2 / Table 7's preprocessing-overhead accounting.
    """
    features = np.ascontiguousarray(features)
    if features.ndim != 2 or features.shape[0] != graph.num_nodes:
        raise ValueError(
            f"features must be (num_nodes, F); got {features.shape} for {graph.num_nodes} nodes"
        )
    dtype = np.dtype(config.dtype)
    accumulate_dtype = np.dtype(config.accumulate_dtype)

    operator_time = Timer()
    propagate_time = Timer()
    hop_features: list[list[np.ndarray]] = []
    for k, name in enumerate(config.operators):
        with operator_time:
            operator = build_operator(name, graph, **config.kwargs_for(k))
            if operator.dtype != accumulate_dtype:
                # cast the operator once so the SpMM truly accumulates in the
                # configured dtype (a float64 operator would silently upcast a
                # float32 hop matrix back to a full float64 copy)
                operator = operator.astype(accumulate_dtype)
        per_hop = [features.astype(dtype, copy=True)]
        current = features.astype(accumulate_dtype, copy=False)
        with propagate_time:
            for _ in range(config.num_hops):
                current = operator @ current
                per_hop.append(current.astype(dtype, copy=True))
        hop_features.append(per_hop)
        logger.info(
            "propagated kernel %s: %d hops over %d nodes", name, config.num_hops, graph.num_nodes
        )
    timing = {
        "operator_seconds": operator_time.elapsed,
        "propagate_seconds": propagate_time.elapsed,
        "total_seconds": operator_time.elapsed + propagate_time.elapsed,
    }
    return hop_features, timing


def flops_estimate(graph: CSRGraph, feature_dim: int, config: PropagationConfig) -> int:
    """Estimated multiply-accumulate count of the preprocessing step.

    Each hop is one SpMM: ``2 * nnz(B) * F`` flops; used by the amortization
    analysis to extrapolate paper-scale preprocessing cost from replica runs.
    The count is independent of ``config.accumulate_dtype`` — float32
    accumulation changes bandwidth and memory, not the MAC count.
    """
    nnz = graph.num_edges + graph.num_nodes  # self loops added by normalization
    return int(2 * nnz * feature_dim * config.num_hops * config.num_kernels)


def expanded_bytes(
    num_rows: int, feature_dim: int, config: PropagationConfig, dtype_bytes: int = 4
) -> int:
    """Size of the stored pre-propagated input — the input-expansion problem.

    ``K (R + 1)`` matrices of ``num_rows x feature_dim`` values (Section 3.4).
    This counts the *stored* bytes only (``dtype_bytes`` per value, the
    storage dtype).  The in-core propagation additionally holds ~2 working
    matrices of ``N x feature_dim`` in ``config.accumulate_dtype`` while it
    runs — with the float64 default that transient is ``16 N F`` bytes on top
    of the stored hops; the blocked engine replaces it with O(block_size x F)
    scratch.
    """
    return int(num_rows * feature_dim * dtype_bytes * config.num_matrices)
