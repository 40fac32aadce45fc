"""SGC — Simplifying Graph Convolutional Networks (Wu et al., ICML 2019).

The simplest PP-GNN: a single linear classifier applied to the features of the
*last* hop only (``B^R X``).  In the paper's generalization (Eq. 3) this
corresponds to ``l(.)`` selecting hop ``R`` and ``o(.)`` being a linear layer.
SGC is the fastest model in every efficiency figure but loses accuracy because
it ignores the intermediate hops.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.models.base import PPGNNModel
from repro.tensor.module import Dropout, Linear
from repro.tensor.tensor import Tensor
from repro.utils.rng import SeedLike


class SGC(PPGNNModel):
    """Linear classifier over the ``R``-hop propagated features."""

    def __init__(
        self,
        in_features: int,
        num_classes: int,
        num_hops: int,
        dropout: float = 0.0,
        seed: SeedLike = None,
    ) -> None:
        super().__init__()
        if num_hops < 0:
            raise ValueError("num_hops must be non-negative")
        self.num_hops = num_hops
        self.num_kernels = 1
        self.in_features = in_features
        self.num_classes = num_classes
        self.dropout = Dropout(dropout, seed=seed) if dropout > 0 else None
        self.linear = Linear(in_features, num_classes, seed=seed)

    @property
    def inputs(self) -> range:
        """Only the deepest hop ``B^R X``."""
        return range(self.num_inputs - 1, self.num_inputs)

    def forward(self, hop_feats: Sequence[np.ndarray | Tensor]) -> Tensor:
        (x,) = self.check_inputs(hop_feats)
        if self.dropout is not None:
            x = self.dropout(x)
        return self.linear(x)

    def flops_per_node(self) -> int:
        return 2 * self.in_features * self.num_classes
