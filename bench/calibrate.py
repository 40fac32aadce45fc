"""The host's speed, measured beside the program: the *host index*.

The benchmark runs on a few cores of a shared host whose speed drifts — by
10-30 % over seconds to minutes, for interpreter-bound and memory-bound work
alike (README, "Sandbox hazards") — so a wall time says as much about the
neighbours as about the program.  ``HostIndex.burst()`` times four fixed
kernels that use nothing of the program under test (an interpreter loop, a
sparse x dense product, a row gather, a dense product: what the program's
layers are made of) and returns how many times slower than ``NOMINAL_SECONDS``
they ran, as the geometric mean over the kernels.  The lifecycle takes a burst
at every phase boundary and divides each timed segment by the index around it
(``lifecycle.Stopwatch``): durations are reported in seconds *of the nominal
host*, next to the raw wall seconds.

The kernels, their inputs and the nominal times are constants of the
benchmark: the same on both sides of every comparison, and out of reach of a
change to the program.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import Callable, Dict, List

import numpy as np
import scipy.sparse as sp

#: times each kernel runs in one burst (the kernel's time is the median)
REPEATS = 5
#: seconds per kernel call on the sizing host in a quiet stretch (the lowest decile of
#: 40 s of bursts, one BLAS thread); they only fix the scale, so that an index of 1 means "that host, quiet"
NOMINAL_SECONDS = {"interpreter": 0.00155, "spmm": 0.00275, "take": 0.00125, "matmul": 0.00200}


def _interpreter() -> int:
    total = 0
    for value in range(40_000):
        total += value * value
    return total


class HostIndex:
    """Fixed kernels on fixed inputs; ``burst()`` returns the host index right now."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        rng = np.random.default_rng(0x1DE)
        rows, dim = 8_192, 128
        narrow = 64  # columns of the sparse product's dense side
        degree = 16  # stored entries per row of the sparse operand
        self._operator = sp.csr_matrix(
            (
                rng.random(rows * degree, dtype=np.float32),
                np.sort(rng.integers(0, rows, size=(rows, degree)), axis=1).ravel(),
                np.arange(rows + 1) * degree,
            ),
            shape=(rows, rows),
        )
        self._features = rng.random((rows, narrow), dtype=np.float32)
        # a packed-store-shaped block, well past the 4 MiB L2 of the sizing host
        self._store = rng.random((4, rows, dim), dtype=np.float32)
        self._picked = rng.permutation(rows)[:2_048]
        self._gathered = np.empty((4, self._picked.size, dim), dtype=np.float32)
        self._left = rng.random((512, 512), dtype=np.float32)
        self._right = rng.random((512, 512), dtype=np.float32)
        self.kernels: Dict[str, Callable[[], object]] = {
            "interpreter": _interpreter,
            "spmm": lambda: self._operator @ self._features,
            "take": lambda: np.take(self._store, self._picked, axis=1, out=self._gathered),
            "matmul": lambda: self._left @ self._right,
        }
        #: every burst taken: ``(time, index)``
        self.bursts: List[tuple[float, float]] = []

    def kernel_seconds(self) -> Dict[str, float]:
        """Median seconds of each kernel over ``REPEATS`` interleaved rounds."""
        taken: Dict[str, List[float]] = {name: [] for name in self.kernels}
        for _ in range(REPEATS):
            for name, kernel in self.kernels.items():
                began = self.clock()
                kernel()
                taken[name].append(self.clock() - began)
        return {name: statistics.median(values) for name, values in taken.items()}

    def burst(self) -> float:
        """How many times slower than nominal the host runs the kernels right now."""
        began = self.clock()
        index = index_of(self.kernel_seconds())
        self.bursts.append((began, index))
        return index


def index_of(kernel_seconds: Dict[str, float]) -> float:
    """Geometric mean of each kernel's time over its nominal time."""
    logs = [math.log(seconds / NOMINAL_SECONDS[name]) for name, seconds in kernel_seconds.items()]
    return math.exp(sum(logs) / len(logs))


def between(before: float, after: float) -> float:
    """The index of a segment that ran between two bursts: their geometric mean."""
    return math.sqrt(before * after)
