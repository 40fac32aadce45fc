"""Weight initialization schemes (Xavier/Glorot and Kaiming/He)."""

from __future__ import annotations

import numpy as np


def _fan_in_fan_out(shape: tuple[int, ...]) -> tuple[int, int]:
    if len(shape) < 2:
        raise ValueError(f"fan in/out undefined for shape {shape}")
    fan_out, fan_in = shape[0], shape[1]
    receptive = int(np.prod(shape[2:])) if len(shape) > 2 else 1
    return fan_in * receptive, fan_out * receptive


def xavier_uniform(shape: tuple[int, ...], rng: np.random.Generator, gain: float = 1.0) -> np.ndarray:
    """Glorot uniform initialization."""
    fan_in, fan_out = _fan_in_fan_out(shape)
    limit = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def kaiming_uniform(shape: tuple[int, ...], rng: np.random.Generator, a: float = np.sqrt(5)) -> np.ndarray:
    """He uniform initialization (matches torch's default Linear init)."""
    fan_in, _ = _fan_in_fan_out(shape)
    gain = np.sqrt(2.0 / (1 + a**2))
    bound = gain * np.sqrt(3.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    return np.zeros(shape, dtype=np.float64)


def uniform_bias(fan_in: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """Bias init used alongside :func:`kaiming_uniform` (torch convention)."""
    bound = 1.0 / np.sqrt(fan_in) if fan_in > 0 else 0.0
    return rng.uniform(-bound, bound, size=size)
