"""Timing helpers used for real (wall-clock) measurements.

The hardware simulator in :mod:`repro.hardware` models *simulated* time for
the data-movement experiments; these timers measure real compute time (e.g.
preprocessing, forward/backward passes) where wall-clock is meaningful on the
reproduction machine.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator


@dataclass
class Timer:
    """A simple start/stop timer usable as a context manager.

    Examples
    --------
    >>> with Timer() as t:
    ...     _ = sum(range(1000))
    >>> t.elapsed >= 0.0
    True
    """

    elapsed: float = 0.0
    _start: float | None = None

    def start(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def stop(self) -> float:
        if self._start is None:
            raise RuntimeError("Timer.stop() called before start()")
        self.elapsed += time.perf_counter() - self._start
        self._start = None
        return self.elapsed

    def __enter__(self) -> "Timer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


@dataclass
class TimeAccumulator:
    """Accumulates named timing buckets (e.g. forward / backward / loading).

    Mirrors the breakdown reported in Figure 5 of the paper.
    """

    buckets: Dict[str, float] = field(default_factory=lambda: defaultdict(float))

    @contextmanager
    def measure(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.buckets[name] += time.perf_counter() - start

    def add(self, name: str, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"negative duration for bucket {name!r}: {seconds}")
        self.buckets[name] += seconds

    def total(self) -> float:
        return float(sum(self.buckets.values()))

    def fractions(self) -> Dict[str, float]:
        """Return each bucket as a fraction of the total (empty -> {})."""
        total = self.total()
        if total <= 0:
            return {}
        return {k: v / total for k, v in self.buckets.items()}
