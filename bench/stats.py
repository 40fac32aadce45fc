"""Summary statistics shared by the benchmark, its comparison tool and its tests.

Every timing the benchmark reports is a median with its quartiles and sample
count; a tail is reported only at the highest percentile that still has at
least ten samples beyond it (choosing-metrics guide, section 1), so a "p99"
of 200 samples is never printed as if it meant something.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Optional, Sequence

import numpy as np

#: percentiles a tail may be reported at, lowest first
TAIL_PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)
#: samples that must lie beyond a percentile for it to be reported
MIN_SAMPLES_BEYOND = 10


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them.

    One sample has no spread: all three are that sample.
    """
    values = list(values)
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(values: Iterable[float]) -> dict:
    """Median, quartiles, extremes and count of a sample, as plain floats."""
    values = [float(v) for v in values]
    q1, _, q3 = quartiles(values)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (the driver's spread)."""
    q1, _, q3 = quartiles(values)
    median = statistics.median(values)
    if median == 0:
        return math.inf if q3 != q1 else 0.0
    return (q3 - q1) / abs(median)


def supported_tail(count: int) -> Optional[float]:
    """Highest percentile with at least ten of ``count`` samples beyond it."""
    best = None
    for pct in TAIL_PERCENTILES:
        if count * (100.0 - pct) / 100.0 >= MIN_SAMPLES_BEYOND - 1e-9:  # 10000 × 0.1 % is ten
            best = pct
    return best


def tail(values: Sequence[float], wanted: float = 99.0) -> tuple[Optional[float], Optional[float]]:
    """``(percentile used, value)``: ``wanted`` if the sample supports it, else lower.

    Returns ``(None, None)`` when even the median has fewer than ten samples
    beyond it.
    """
    supported = supported_tail(len(values))
    if supported is None:
        return None, None
    used = min(wanted, supported)
    return used, float(np.percentile(values, used))
