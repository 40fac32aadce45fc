"""Benchmark-suite configuration.

Each benchmark regenerates one table or figure of the paper at reduced scale
(small replicas, few epochs) using ``benchmark.pedantic`` with a single round,
and asserts the qualitative *shape* the paper reports (orderings, approximate
ratios, crossovers).  Run with ``pytest benchmarks/ --benchmark-only``.
"""

import sys
from pathlib import Path

SRC = Path(__file__).parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def run_once(benchmark, fn, **kwargs):
    """Execute ``fn(**kwargs)`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, kwargs=kwargs, rounds=1, iterations=1, warmup_rounds=0)
