"""HOGA — Hop-Wise Graph Attention (Deng et al., DAC 2024).

HOGA treats the ``R + 1`` hop-wise feature vectors of each node as a token
sequence and applies (one or more) multi-head self-attention blocks across the
hops, followed by an MLP output head on an attention-pooled summary token.
It is the most expressive PP-GNN in the paper (highest accuracy, Table 3-5)
and the most compute-heavy one, which is why its data-loading share is smaller
in Figure 5.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.models.base import PPGNNModel
from repro.tensor.attention import HopAttentionBlock
from repro.tensor.module import Dropout, Linear, MLP
from repro.tensor.tensor import Tensor
from repro.utils.rng import SeedLike, new_rng


class HOGA(PPGNNModel):
    """Hop-wise attention PP-GNN."""

    def __init__(
        self,
        in_features: int,
        hidden_dim: int,
        num_classes: int,
        num_hops: int,
        num_heads: int = 1,
        num_blocks: int = 1,
        num_kernels: int = 1,
        dropout: float = 0.2,
        seed: SeedLike = None,
    ) -> None:
        super().__init__()
        if num_hops < 0:
            raise ValueError("num_hops must be non-negative")
        if num_blocks < 1:
            raise ValueError("num_blocks must be >= 1")
        rng = new_rng(seed)
        self.num_hops = num_hops
        self.num_kernels = num_kernels
        self.in_features = in_features
        self.hidden_dim = hidden_dim
        self.num_heads = num_heads
        self.num_classes = num_classes

        # Shared input projection maps each hop token into the attention space.
        self.input_proj = Linear(in_features, hidden_dim, seed=rng)
        self.input_dropout = Dropout(dropout, seed=rng) if dropout > 0 else None
        self.blocks: List[HopAttentionBlock] = []
        for idx in range(num_blocks):
            block = HopAttentionBlock(hidden_dim, num_heads, dropout=dropout, seed=rng)
            setattr(self, f"block_{idx}", block)
            self.blocks.append(block)
        # Learnable gate that pools the hop tokens into a single embedding.
        self.gate = Linear(hidden_dim, 1, seed=rng)
        self.head = MLP(
            in_features=hidden_dim,
            hidden_dims=[hidden_dim],
            out_features=num_classes,
            dropout=dropout,
            seed=rng,
        )

    def forward(self, hop_feats: Sequence[np.ndarray | Tensor]) -> Tensor:
        tensors = self.check_inputs(hop_feats)
        # (B, T, F) token stack: one token per hop (and per kernel).
        tokens = Tensor.stack(tensors, axis=1)
        tokens = self.input_proj(tokens)
        if self.input_dropout is not None:
            tokens = self.input_dropout(tokens)
        for block in self.blocks:
            tokens = block(tokens)
        # Gated attention pooling across hop tokens.
        scores = self.gate(tokens)  # (B, T, 1)
        weights = scores.softmax(axis=1)
        pooled = (tokens * weights).sum(axis=1)  # (B, H)
        return self.head(pooled)

    def hop_attention_weights(self, hop_feats: Sequence[np.ndarray | Tensor]) -> np.ndarray:
        """Return the per-hop pooling weights (for interpretability examples)."""
        tensors = self.check_inputs(hop_feats)
        tokens = Tensor.stack(tensors, axis=1)
        tokens = self.input_proj(tokens)
        for block in self.blocks:
            tokens = block(tokens)
        weights = self.gate(tokens).softmax(axis=1)
        return np.squeeze(weights.data, axis=-1)

    def flops_per_node(self) -> int:
        tokens = self.num_inputs
        proj = 2 * self.in_features * self.hidden_dim * tokens
        attn = 4 * 2 * self.hidden_dim * self.hidden_dim * tokens  # q/k/v/out projections
        scores = 2 * tokens * tokens * self.hidden_dim * 2  # QK^T and AV
        ffn = 2 * 2 * self.hidden_dim * 2 * self.hidden_dim * tokens
        head = 2 * self.hidden_dim * self.hidden_dim + 2 * self.hidden_dim * self.num_classes
        return int(proj + len(self.blocks) * (attn + scores + ffn) + head)
