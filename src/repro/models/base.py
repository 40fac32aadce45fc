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

from typing import List, Sequence

import numpy as np

from repro.sampling.base import MiniBatch
from repro.tensor.module import Module
from repro.tensor.tensor import Tensor


class PPGNNModel(Module):
    """Base class for pre-propagation models.

    Subclasses must set ``num_hops`` and ``num_kernels`` (which determine the
    number of stored matrices, ``num_kernels * (num_hops + 1)``) and implement
    :meth:`forward`; one that reads fewer matrices than the store holds
    narrows :attr:`inputs`.
    """

    num_hops: int = 0
    num_kernels: int = 1

    @property
    def num_inputs(self) -> int:
        """Number of hop matrices the store holds for this model."""
        return self.num_kernels * (self.num_hops + 1)

    @property
    def inputs(self) -> range:
        """Positions of the store matrices :meth:`forward` reads (default: all).

        One contiguous range into the ``num_inputs`` matrices; the trainer's
        loading pipeline assembles only these.
        """
        return range(self.num_inputs)

    def check_store(self, store) -> None:
        """Reject a feature store shaped for another model.

        :attr:`inputs` are positions into the store's matrices, so a store
        with a different count would silently feed the wrong hops.
        """
        if store.num_matrices != self.num_inputs:
            raise ValueError(
                f"{type(self).__name__} expects {self.num_inputs} hop matrices, "
                f"the store holds {store.num_matrices}"
            )

    def check_inputs(self, hop_feats: Sequence[np.ndarray | Tensor]) -> List[Tensor]:
        """Validate the hop inputs; wrap the ones :attr:`inputs` names as tensors, without copying.

        ``hop_feats`` is either all ``num_inputs`` matrices (``Session.loader()``,
        a gathered block), from which the ``inputs`` positions are taken, or
        exactly the ``inputs`` selection (what the trainer's loaders
        assemble).  Count and batch size are checked on the raw arrays.  A
        wrapped loader buffer is read in place, in its own dtype: it must
        stay untouched until this batch's backward pass has run, which the
        loaders' buffer rings guarantee (the batch the consumer holds is never
        reassembled; ``depth + 2`` buffers under prefetching).
        """
        inputs = self.inputs
        if len(hop_feats) == self.num_inputs:
            used = hop_feats[inputs.start : inputs.stop]
        elif len(hop_feats) == len(inputs):
            used = hop_feats
        else:
            raise ValueError(
                f"{type(self).__name__} expects {self.num_inputs} hop matrices "
                f"(or the {len(inputs)} it reads), got {len(hop_feats)}"
            )
        batch_sizes = {np.shape(x)[0] for x in hop_feats}
        if len(batch_sizes) != 1:
            raise ValueError(f"hop matrices disagree on batch size: {sorted(batch_sizes)}")
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
