"""Online inference serving tier.

See :class:`~repro.serving.engine.ServingEngine` for the entry point; the
:mod:`repro.api` facade constructs one via ``Session.serve()``.
"""

from repro.serving.config import SHED_POLICIES, ServingConfig
from repro.serving.engine import ServingEngine, ServingStats
from repro.serving.errors import DeadlineExceeded, OverloadError, ServingError

__all__ = [
    "DeadlineExceeded",
    "OverloadError",
    "SHED_POLICIES",
    "ServingConfig",
    "ServingEngine",
    "ServingError",
    "ServingStats",
]
