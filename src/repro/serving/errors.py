"""Typed failure modes of the online serving tier.

Every way a submitted request can fail without data maps to one exception
class, so callers (and the overload benchmark's "no silently dropped
request" invariant) can distinguish *shed* and *expired* work from genuine
bugs by type alone.  All of them subclass :class:`ServingError`, which
itself is a ``RuntimeError`` so pre-existing ``except RuntimeError`` call
sites keep working.
"""

from __future__ import annotations

__all__ = ["ServingError", "OverloadError", "DeadlineExceeded"]


class ServingError(RuntimeError):
    """Base class for typed serving-tier failures."""


class OverloadError(ServingError):
    """Admission control shed this request: the pending queue was full.

    Raised synchronously by :meth:`~repro.serving.engine.ServingEngine.submit`
    — with ``shed_policy="reject"`` immediately, with ``"block"`` after the
    admission timeout elapsed without the queue draining.
    """


class DeadlineExceeded(ServingError):
    """A request (or the close-time drain) outlived its deadline.

    Set on a future when the dispatcher found it expired before gathering,
    or when ``close(drain=True)`` could not flush the queue inside the drain
    budget.
    """

