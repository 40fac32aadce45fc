"""Lightweight logging configuration shared by the library and experiments."""

from __future__ import annotations

import logging
import sys

_FORMAT = "%(asctime)s | %(levelname)-7s | %(name)s | %(message)s"
_CONFIGURED = False


def _configure_root() -> None:
    global _CONFIGURED
    if _CONFIGURED:
        return
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter(_FORMAT, datefmt="%H:%M:%S"))
    root = logging.getLogger("repro")
    if not root.handlers:
        root.addHandler(handler)
    root.setLevel(logging.INFO)
    root.propagate = False
    _CONFIGURED = True


def get_logger(name: str) -> logging.Logger:
    """Return a logger under the ``repro`` namespace.

    ``get_logger("sampling.labor")`` returns ``repro.sampling.labor``.
    """
    _configure_root()
    if not name.startswith("repro"):
        name = f"repro.{name}"
    return logging.getLogger(name)
