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
        byte accounting) and the dtype the SpMM chain accumulates in: the
        operator values and every hop's input are cast to it, so no hop
        moves more bytes than it keeps.  It is also the *training* precision:
        the trainers cast the model to the dtype of the features they read
        and the autograd engine computes in it, so ``dtype="float64"`` is how
        to train (and propagate) in double precision.

        Error bound of a float32 build against the float64 build of the same
        float32 features: at hop ``r`` every stored value satisfies
        ``|x32 - x64| <= r * c * eps32 * (|B|^r |X|)`` elementwise (to first
        order), with ``eps32 = 2**-24`` the unit roundoff and ``c`` the
        rounding steps one hop adds per value: the operator's longest row
        (its products and sums) plus one for the cast of the float64-built
        operator values.  Per normalisation:

        * ``normalized_adjacency`` / ``random_walk``: ``c = d_max + 2``
          (``d_max + 1`` without the self-loop);
        * ``ppr`` / ``heat``: ``c`` = the densest operator row + 1, at most
          the ``num_iterations``-hop neighbourhood (the series itself is
          summed in float64 and rounded once).

        The error is measured against ``|B|^r |X|``, and the normalisation is
        what keeps that scale at the scale of ``X``, so the error grows
        linearly in ``r``: ``random_walk`` has row sums ``<= 1``;
        ``normalized_adjacency`` (symmetrized, the default), ``ppr`` and
        ``heat`` are nonnegative and symmetric with spectral radius ``<= 1``.
        A directed ``normalized_adjacency(make_undirected=False)`` has no such
        bound (a row can sum to ``sqrt(d)``).  Zero-degree rows of
        ``normalized_adjacency`` / ``random_walk`` are exact.  Measured
        ``max |x32 - x64| / max |x64|`` per stored matrix: <= 1.6e-7
        (igb-medium, 12 000 nodes, 3 hops) and <= 4.8e-7 (wiki, 4 000 nodes,
        6 hops), at most 13 % of the bound.
    """

    num_hops: int = 3
    operators: tuple[str, ...] = ("normalized_adjacency",)
    operator_kwargs: tuple[dict, ...] = field(default=())
    dtype: str = "float32"

    def __post_init__(self) -> None:
        if self.num_hops < 0:
            raise ValueError("num_hops must be non-negative")
        if not self.operators:
            raise ValueError("at least one operator is required")
        if self.operator_kwargs and len(self.operator_kwargs) != len(self.operators):
            raise ValueError("operator_kwargs must match operators length (or be empty)")
        if np.dtype(self.dtype).name not in ("float32", "float64"):
            raise ValueError(f"dtype must be float32 or float64, got {self.dtype!r}")

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

    Every hop runs in ``config.dtype``, operator values included: one hop is
    ``2 nnz(B) F`` flops over an ``(N, F)`` input and
    output of ``config.dtype`` itemsize, so a float32 build moves half the
    bytes of a float64 one for the same flops, at the error bound stated on
    :class:`PropagationConfig`.

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

    operator_time = Timer()
    propagate_time = Timer()
    hop_features: list[list[np.ndarray]] = []
    for k, name in enumerate(config.operators):
        with operator_time:
            # cast the operator once so the SpMM accumulates in the store
            # dtype (a float64 operator would upcast a float32 hop matrix
            # back to a full float64 copy)
            operator = build_operator(name, graph, **config.kwargs_for(k)).astype(
                dtype, copy=False
            )
        current = features.astype(dtype, copy=True)
        per_hop = [current]
        with propagate_time:
            for _ in range(config.num_hops):
                current = operator @ current
                per_hop.append(current)
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


def expanded_bytes(
    num_rows: int, feature_dim: int, config: PropagationConfig, dtype_bytes: int = 4
) -> int:
    """Size of the stored pre-propagated input — the input-expansion problem.

    ``K (R + 1)`` matrices of ``num_rows x feature_dim`` values (Section 3.4).
    This counts the *stored* bytes only (``dtype_bytes`` per value, the
    storage dtype).  The in-core propagation additionally holds 2 working
    matrices of ``N x feature_dim`` in the store dtype while it runs (the
    SpMM's input and output: ``8 N F`` bytes in float32); the blocked engine
    replaces them with O(block_size x F) scratch.
    """
    return int(num_rows * feature_dim * dtype_bytes * config.num_matrices)
