"""Reverse-mode autodiff :class:`Tensor` built on NumPy arrays.

Design notes
------------
* Each differentiable op records a backward closure on its output node; a
  topological sweep in :meth:`Tensor.backward` accumulates gradients.
* Broadcasting is supported by un-broadcasting gradients back to the operand
  shape (summing over broadcast axes).
* Gradient tracking can be disabled globally with :func:`no_grad`, used by the
  evaluation loops so inference allocates no graph.
* Only float arrays participate in differentiation; integer tensors (labels,
  index arrays) are carried as plain NumPy arrays by callers.
* The engine computes in the dtype of the data it is given: a floating array
  keeps its dtype (float32 graphs stay float32, float64 stay float64), Python
  scalars adopt the other operand's dtype, and a gradient always has the dtype
  of the tensor it belongs to.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, Sequence]

_GRAD_ENABLED = True


@contextmanager
def no_grad() -> Iterator[None]:
    """Context manager disabling graph construction (for evaluation)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over axes that were broadcast to reach its shape."""
    if grad.shape == shape:
        return grad
    # Remove leading broadcast dimensions.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over dimensions that were 1 in the original shape.
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A NumPy array with reverse-mode gradient support."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")
    __array_priority__ = 100.0  # NumPy defers binary ops to Tensor

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        name: str | None = None,
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if requires_grad and arr.dtype.kind != "f":
            arr = arr.astype(np.float64)
        self.data: np.ndarray = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad: bool = bool(requires_grad) and _GRAD_ENABLED
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple["Tensor", ...] = ()
        self.name = name

    # ------------------------------------------------------------------ #
    # basic protocol
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{grad_flag})"

    def item(self) -> float:
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but detached from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------ #
    # graph construction helper
    # ------------------------------------------------------------------ #
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = tuple(p for p in parents if isinstance(p, Tensor))
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray, owned: bool = False) -> None:
        """Add ``grad`` into ``self.grad`` (in this tensor's dtype).

        ``owned=True`` says the caller computed ``grad`` for this call and
        keeps no other reference, so the first accumulation adopts the array
        instead of copying it; an array that is shared (the incoming gradient
        passed on as is, or a view of it) must leave it ``False``.
        """
        grad = _unbroadcast(np.asarray(grad, dtype=self.data.dtype), self.data.shape)
        if self.grad is None:
            self.grad = grad if owned else grad.copy()
        else:
            self.grad += grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor.

        ``grad`` defaults to 1.0 for scalar outputs (the common loss case).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar outputs")
            grad = np.ones_like(self.data)

        # Topological order over the graph reachable from ``self``.
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is None or node.grad is None:
                continue
            node._backward(node.grad)

    # ------------------------------------------------------------------ #
    # arithmetic
    # ------------------------------------------------------------------ #
    def _coerce(self, other: ArrayLike) -> "Tensor":
        """Wrap a non-tensor operand; a Python scalar adopts this tensor's float dtype.

        That keeps ``x * 0.5`` in ``x``'s precision under NumPy-2 promotion,
        where a float64 0-d array (or ``np.float64`` scalar) is not weak.
        """
        if isinstance(other, Tensor):
            return other
        if isinstance(other, (int, float)) and self.data.dtype.kind == "f":
            return Tensor(np.asarray(other, dtype=self.data.dtype))
        return Tensor(other)

    def __add__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad)
            if other.requires_grad:
                other._accumulate(grad)

        return Tensor._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad, owned=True)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-self._coerce(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * other.data, owned=True)
            if other.requires_grad:
                other._accumulate(grad * self.data, owned=True)

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / other.data, owned=True)
            if other.requires_grad:
                other._accumulate(-grad * self.data / (other.data**2), owned=True)

        return Tensor._make(out_data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        if isinstance(exponent, np.generic):
            exponent = exponent.item()  # a NumPy scalar would promote float32 data
        out_data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1), owned=True)

        return Tensor._make(out_data, (self,), backward)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        return self.matmul(other)

    def matmul(self, other: ArrayLike) -> "Tensor":
        """Matrix multiplication with gradient support (2D or batched 3D)."""
        other = self._coerce(other)
        out_data = self.data @ other.data
        a, b = self, other

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                if b.data.ndim >= 2:
                    ga = grad @ np.swapaxes(b.data, -1, -2)
                else:
                    ga = np.outer(grad, b.data)
                a._accumulate(ga, owned=True)
            if b.requires_grad:
                if a.data.ndim >= 2:
                    gb = np.swapaxes(a.data, -1, -2) @ grad
                else:
                    gb = np.outer(a.data, grad)
                b._accumulate(gb, owned=True)

        return Tensor._make(out_data, (a, b), backward)

    # ------------------------------------------------------------------ #
    # elementwise functions
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data, owned=True)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / self.data, owned=True)

        return Tensor._make(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self**0.5

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (1.0 - out_data**2), owned=True)

        return Tensor._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data * (1.0 - out_data), owned=True)

        return Tensor._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        out_data = np.maximum(self.data, 0)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (out_data > 0), owned=True)

        return Tensor._make(out_data, (self,), backward)

    def leaky_relu(self, negative_slope: float = 0.2) -> "Tensor":
        mask = self.data > 0
        out_data = np.where(mask, self.data, negative_slope * self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(np.where(mask, grad, negative_slope * grad), owned=True)

        return Tensor._make(out_data, (self,), backward)

    def gelu(self) -> "Tensor":
        """GELU with the tanh approximation (matches common DL frameworks)."""
        x = self.data
        c = math.sqrt(2.0 / math.pi)
        inner = c * (x + 0.044715 * x**3)
        t = np.tanh(inner)
        out_data = 0.5 * x * (1.0 + t)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                dinner = c * (1.0 + 3 * 0.044715 * x**2)
                dt = (1.0 - t**2) * dinner
                local = 0.5 * (1.0 + t) + 0.5 * x * dt
                self._accumulate(grad * local, owned=True)

        return Tensor._make(out_data, (self,), backward)

    def abs(self) -> "Tensor":
        out_data = np.abs(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * np.sign(self.data), owned=True)

        return Tensor._make(out_data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        out_data = np.clip(self.data, low, high)
        mask = (self.data >= low) & (self.data <= high)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask, owned=True)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis: int | tuple | None = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = np.asarray(grad)
            if axis is None:
                g = np.broadcast_to(g, self.data.shape)
            else:
                if not keepdims:
                    g = np.expand_dims(g, axis=axis)
                g = np.broadcast_to(g, self.data.shape)
            self._accumulate(g)

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis: int | tuple | None = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.data.shape[a] for a in axis]))
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        mu = self.mean(axis=axis, keepdims=True)
        centered = self - mu
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    def max(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            if axis is None:
                mask = self.data == out_data
                g = grad * mask / float(mask.sum())
            else:
                expanded = out_data if keepdims else np.expand_dims(out_data, axis)
                mask = self.data == expanded
                gexp = grad if keepdims else np.expand_dims(grad, axis)
                # distribute ties evenly so gradients stay well-defined
                ties = mask.sum(axis=axis, keepdims=True, dtype=self.data.dtype)
                g = gexp * mask / np.maximum(ties, 1)
            self._accumulate(g, owned=True)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.data.shape
        out_data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(original))

        return Tensor._make(out_data, (self,), backward)

    def transpose(self, axes: Sequence[int] | None = None) -> "Tensor":
        out_data = np.transpose(self.data, axes)
        if axes is None:
            inverse = None
        else:
            inverse = np.argsort(axes)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(np.transpose(grad, inverse))

        return Tensor._make(out_data, (self,), backward)

    def swapaxes(self, a: int, b: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(axes)

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, index, grad)
                self._accumulate(full, owned=True)

        return Tensor._make(out_data, (self,), backward)

    def take_rows(self, indices: np.ndarray) -> "Tensor":
        """Row gather (``self[indices]``) — the batch-assembly primitive."""
        indices = np.asarray(indices)
        out_data = self.data[indices]

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, indices, grad)
                self._accumulate(full, owned=True)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # factories and combination ops
    # ------------------------------------------------------------------ #
    @staticmethod
    def zeros(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape), requires_grad=requires_grad)

    @staticmethod
    def ones(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.ones(shape), requires_grad=requires_grad)

    @staticmethod
    def concatenate(tensors: Iterable["Tensor"], axis: int = -1) -> "Tensor":
        tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
        out_data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.data.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def backward(grad: np.ndarray) -> None:
            for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                if tensor.requires_grad:
                    slicer = [slice(None)] * grad.ndim
                    slicer[axis] = slice(start, stop)
                    tensor._accumulate(grad[tuple(slicer)])

        return Tensor._make(out_data, tuple(tensors), backward)

    @staticmethod
    def stack(tensors: Iterable["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
        out_data = np.stack([t.data for t in tensors], axis=axis)

        def backward(grad: np.ndarray) -> None:
            slabs = np.split(grad, len(tensors), axis=axis)
            for tensor, slab in zip(tensors, slabs):
                if tensor.requires_grad:
                    tensor._accumulate(np.squeeze(slab, axis=axis))

        return Tensor._make(out_data, tuple(tensors), backward)

    # ------------------------------------------------------------------ #
    # softmax-family (implemented here so they stay numerically stable)
    # ------------------------------------------------------------------ #
    def softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        exp = np.exp(shifted)
        out_data = exp / exp.sum(axis=axis, keepdims=True)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                dot = (grad * out_data).sum(axis=axis, keepdims=True)
                self._accumulate(out_data * (grad - dot), owned=True)

        return Tensor._make(out_data, (self,), backward)

    def log_softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        logsumexp = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        out_data = shifted - logsumexp
        softmax = np.exp(out_data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad - softmax * grad.sum(axis=axis, keepdims=True), owned=True)

        return Tensor._make(out_data, (self,), backward)
