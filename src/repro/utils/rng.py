"""Random number generation helpers.

Every stochastic component in the library accepts either an integer seed or a
:class:`numpy.random.Generator`.  Centralizing the conversion here keeps
experiments reproducible: the same seed always yields the same graphs,
samples, model initializations, and shuffles.
"""

from __future__ import annotations

from typing import Union

import numpy as np

SeedLike = Union[None, int, np.random.Generator]


def new_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Parameters
    ----------
    seed:
        ``None`` (fresh entropy), an integer seed, or an existing generator
        (returned unchanged).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
