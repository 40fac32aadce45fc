"""Trainable parameter type."""

from __future__ import annotations

import numpy as np

from repro.tensor.tensor import ArrayLike, Tensor


class Parameter(Tensor):
    """A :class:`Tensor` that is registered by :class:`~repro.tensor.module.Module`.

    Parameters always require gradients; modules collect them via
    :meth:`Module.parameters` for the optimizers.  A floating ``data`` array
    keeps its dtype (the initializers produce float64); anything else becomes
    float64.
    """

    def __init__(self, data: ArrayLike, name: str | None = None) -> None:
        super().__init__(data, requires_grad=True, name=name)
        # Parameters must stay differentiable even when constructed inside a
        # ``no_grad`` block (e.g. lazily-built modules during evaluation).
        self.requires_grad = True

    def to(self, dtype) -> "Parameter":
        """Cast the value to the floating ``dtype`` in place (drops a stale grad)."""
        dtype = np.dtype(dtype)
        if dtype.kind != "f":
            raise TypeError(f"parameters must be floating point, got {dtype}")
        if self.data.dtype != dtype:
            self.data = self.data.astype(dtype)
            self.grad = None
        return self

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Parameter(shape={self.shape}, name={self.name!r})"
