"""Model base classes and shared interfaces.

Two model families with different batch formats:

* **PP-GNNs** consume a list of dense hop-feature matrices (the output of
  preprocessing, already gathered for the mini-batch rows) — no graph access
  during training.
* **MP-GNNs** consume a :class:`~repro.sampling.base.MiniBatch` plus the raw
  features of its ``input_nodes`` and run message passing over the sampled
  blocks.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.sampling.base import MiniBatch
from repro.tensor.module import Module
from repro.tensor.tensor import Tensor


class PPGNNModel(Module):
    """Base class for pre-propagation models.

    Subclasses must set ``num_hops`` and ``num_kernels`` (which determine the
    expected number of input matrices, ``num_kernels * (num_hops + 1)``) and
    implement :meth:`forward`.
    """

    num_hops: int = 0
    num_kernels: int = 1

    @property
    def num_inputs(self) -> int:
        """Number of hop matrices this model expects per batch."""
        return self.num_kernels * (self.num_hops + 1)

    def check_inputs(
        self, hop_feats: Sequence[np.ndarray | Tensor], use: Optional[Sequence[int]] = None
    ) -> List[Tensor]:
        """Validate the per-hop inputs and wrap them as tensors without copying.

        Count and batch size are checked on the raw arrays; ``use`` names the
        positions ``forward`` reads (default: all), and only those are wrapped.
        A wrapped loader buffer is read in place, in its own dtype: it must
        stay untouched until this batch's backward pass has run, which the
        loaders' buffer rings guarantee (the batch the consumer holds is never
        reassembled; ``depth + 2`` buffers under prefetching).
        """
        if len(hop_feats) != self.num_inputs:
            raise ValueError(
                f"{type(self).__name__} expects {self.num_inputs} hop matrices, got {len(hop_feats)}"
            )
        batch_sizes = {np.shape(x)[0] for x in hop_feats}
        if len(batch_sizes) != 1:
            raise ValueError(f"hop matrices disagree on batch size: {sorted(batch_sizes)}")
        used = hop_feats if use is None else [hop_feats[i] for i in use]
        return [x if isinstance(x, Tensor) else Tensor(x) for x in used]

    def forward(self, hop_feats: Sequence[np.ndarray | Tensor]) -> Tensor:  # pragma: no cover
        raise NotImplementedError

    def flops_per_node(self) -> int:
        """Approximate multiply-accumulate count per training node (forward)."""
        raise NotImplementedError


class MPGNNModel(Module):
    """Base class for message-passing models trained on sampled blocks."""

    num_layers: int = 1

    def forward(self, batch: MiniBatch, input_features: np.ndarray | Tensor) -> Tensor:  # pragma: no cover
        raise NotImplementedError

    @staticmethod
    def _as_tensor(input_features: np.ndarray | Tensor) -> Tensor:
        if isinstance(input_features, Tensor):
            return input_features
        return Tensor(np.asarray(input_features))

    @staticmethod
    def _slice_outputs(hidden: Tensor, batch: MiniBatch) -> Tensor:
        """Keep only the rows corresponding to the batch's output (seed) nodes."""
        num_out = batch.num_output_nodes
        if hidden.shape[0] == num_out:
            return hidden
        return hidden[np.arange(num_out)]
