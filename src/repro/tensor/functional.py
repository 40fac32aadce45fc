"""Stateless functional ops over :class:`~repro.tensor.tensor.Tensor`."""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.tensor.tensor import Tensor


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit."""
    return x.relu()


def leaky_relu(x: Tensor, negative_slope: float = 0.2) -> Tensor:
    """Leaky ReLU (used by the GAT attention scores)."""
    return x.leaky_relu(negative_slope)


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit (tanh approximation)."""
    return x.gelu()


def tanh(x: Tensor) -> Tensor:
    return x.tanh()


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    return x.softmax(axis=axis)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    return x.log_softmax(axis=axis)


def dropout(
    x: Tensor,
    p: float,
    training: bool = True,
    rng: Optional[np.random.Generator] = None,
) -> Tensor:
    """Inverted dropout: scales kept activations by ``1/(1-p)`` at train time.

    One graph node: the scale and the keep mask are applied in place to one
    fresh output array and the backward closure reuses the boolean mask.  The
    mask is ``rng.random(shape) >= p`` whatever the dtype of ``x``, so a seed
    draws the same masks in float32 and float64.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    rng = rng or np.random.default_rng()
    keep = rng.random(x.shape) >= p
    scale = 1.0 / (1.0 - p)
    out_data = x.data * scale
    out_data *= keep

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            g = grad * keep
            g *= scale
            x._accumulate(g, owned=True)

    return Tensor._make(out_data, (x,), backward)


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` (same convention as torch.nn.Linear).

    One graph node; ``x`` may carry leading batch axes, which the parameter
    gradients sum over.
    """
    out_data = x.data @ weight.data.T
    if bias is not None:
        out_data += bias.data

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad @ weight.data, owned=True)
        rows = grad.reshape(-1, grad.shape[-1])
        if weight.requires_grad:
            weight._accumulate(rows.T @ x.data.reshape(-1, x.shape[-1]), owned=True)
        if bias is not None and bias.requires_grad:
            bias._accumulate(rows.sum(axis=0), owned=True)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._make(out_data, parents, backward)


def prelu(x: Tensor, slope: Tensor) -> Tensor:
    """Parametric ReLU ``max(x, 0) + slope * min(x, 0)`` as one graph node."""
    negative = np.minimum(x.data, 0)
    out_data = np.maximum(x.data, 0)
    out_data += slope.data * negative

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            # grad where x > 0, slope * grad elsewhere (np.where is ~5x slower)
            g = grad * (x.data > 0)
            rest = grad - g
            rest *= slope.data
            g += rest
            x._accumulate(g, owned=True)
        if slope.requires_grad:
            slope._accumulate(grad * negative, owned=True)

    return Tensor._make(out_data, (x, slope), backward)


def layer_norm(
    x: Tensor,
    weight: Optional[Tensor] = None,
    bias: Optional[Tensor] = None,
    eps: float = 1e-5,
) -> Tensor:
    """Layer normalization over the last dimension."""
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    normalized = (x - mu) * ((var + eps) ** -0.5)
    if weight is not None:
        normalized = normalized * weight
    if bias is not None:
        normalized = normalized + bias
    return normalized


def concatenate(tensors: Iterable[Tensor], axis: int = -1) -> Tensor:
    return Tensor.concatenate(list(tensors), axis=axis)


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    return Tensor.stack(list(tensors), axis=axis)
