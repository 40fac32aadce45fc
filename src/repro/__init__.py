"""repro — reproduction of "Graph Learning at Scale: Characterizing and
Optimizing Pre-Propagation GNNs" (Yue, Deng & Zhang, MLSys 2025).

The package is organised as a layered system:

* substrates: :mod:`repro.tensor` (autodiff), :mod:`repro.graph`,
  :mod:`repro.datasets`, :mod:`repro.sampling`, :mod:`repro.hardware`;
* the paper's contribution: :mod:`repro.prepropagation`,
  :mod:`repro.dataloading`, :mod:`repro.autoconfig`;
* models and training: :mod:`repro.models`, :mod:`repro.training`;
* evaluation: :mod:`repro.analysis`, :mod:`repro.experiments`.
"""

__version__ = "0.1.0"

from repro.api import (  # noqa: E402
    DeadlineExceeded,
    GraphDelta,
    LoaderConfig,
    OverloadError,
    ServingConfig,
    ServingError,
    Session,
    UpdateInProgress,
    UpdateResult,
    open_dataset,
)

__all__ = [
    "__version__",
    "DeadlineExceeded",
    "GraphDelta",
    "LoaderConfig",
    "OverloadError",
    "ServingConfig",
    "ServingError",
    "Session",
    "UpdateInProgress",
    "UpdateResult",
    "open_dataset",
]
