"""Shared utilities: seeded RNG management, logging, timing and configs."""

from repro.utils.rng import new_rng
from repro.utils.logging import get_logger
from repro.utils.timer import Timer, TimeAccumulator
from repro.utils.config import save_json_config

__all__ = [
    "new_rng",
    "get_logger",
    "Timer",
    "TimeAccumulator",
    "save_json_config",
]
