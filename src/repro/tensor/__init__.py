"""A small reverse-mode automatic differentiation engine on NumPy.

This package substitutes for PyTorch in the reproduction: PP-GNN and MP-GNN
models are dense networks (linear layers, layer norm, dropout, attention), so
an exact NumPy autodiff engine preserves their training dynamics while keeping
the whole stack dependency-free.

Public surface:

* :class:`~repro.tensor.tensor.Tensor` — the differentiable array type.
* :mod:`~repro.tensor.functional` — stateless ops (relu, softmax, dropout, ...).
* :class:`~repro.tensor.module.Module` and the layers built on it
  (``Linear``, ``LayerNorm``, ``Dropout``, ``MLP``, ``MultiHeadAttention``).
* :mod:`~repro.tensor.losses` — ``cross_entropy`` and ``accuracy``.
* :mod:`~repro.tensor.optim` — ``SGD`` and ``Adam``.
"""

from repro.tensor.tensor import Tensor, no_grad
from repro.tensor import functional
from repro.tensor.parameter import Parameter
from repro.tensor.module import (
    Dropout,
    GELU,
    LayerNorm,
    Linear,
    MLP,
    Module,
    PReLU,
    ReLU,
    Sequential,
)
from repro.tensor.attention import MultiHeadAttention
from repro.tensor.losses import cross_entropy
from repro.tensor.optim import SGD, Adam
from repro.tensor import init

__all__ = [
    "Tensor",
    "no_grad",
    "functional",
    "Parameter",
    "Module",
    "Linear",
    "LayerNorm",
    "Dropout",
    "ReLU",
    "GELU",
    "PReLU",
    "Sequential",
    "MLP",
    "MultiHeadAttention",
    "cross_entropy",
    "SGD",
    "Adam",
    "init",
]
