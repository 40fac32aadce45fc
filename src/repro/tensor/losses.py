"""Loss functions for node classification."""

from __future__ import annotations

import numpy as np

from repro.tensor.tensor import Tensor


def cross_entropy(logits: Tensor, labels: np.ndarray, reduction: str = "mean") -> Tensor:
    """Softmax cross-entropy with integer labels.

    Parameters
    ----------
    logits:
        ``(batch, num_classes)`` unnormalized scores.
    labels:
        ``(batch,)`` integer class indices.
    reduction:
        ``"mean"`` (default), ``"sum"`` or ``"none"``.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2:
        raise ValueError(f"logits must be 2-D, got shape {logits.shape}")
    if labels.ndim != 1 or labels.shape[0] != logits.shape[0]:
        raise ValueError(f"labels shape {labels.shape} incompatible with logits {logits.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= logits.shape[1]):
        raise ValueError("labels out of range")
    log_probs = logits.log_softmax(axis=-1)
    picked = log_probs[np.arange(labels.shape[0]), labels]
    nll = -picked
    if reduction == "mean":
        return nll.mean()
    if reduction == "sum":
        return nll.sum()
    if reduction == "none":
        return nll
    raise ValueError(f"unknown reduction {reduction!r}")


def accuracy(logits: np.ndarray | Tensor, labels: np.ndarray) -> float:
    """Top-1 accuracy of ``logits`` against integer ``labels``."""
    if isinstance(logits, Tensor):
        logits = logits.data
    labels = np.asarray(labels)
    if labels.size == 0:
        return float("nan")
    pred = np.argmax(logits, axis=-1)
    return float((pred == labels).mean())
