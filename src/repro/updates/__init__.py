"""Zero-downtime incremental graph updates (delta re-propagation).

Given a batch of timestamped edge insertions/deletions and feature
overwrites, recompute only the affected store rows (bit-identical to a
from-scratch re-propagation of the updated graph), publish the result as a
new immutable store version behind an atomic pointer swap, and keep serving
readers pinned to the version they opened — the streaming-update story the
roadmap's "incremental & temporal pre-propagation" item calls for.
"""

from repro.updates.apply import (
    UpdateResult,
    apply_memory_update,
    apply_update,
    compute_patches,
)
from repro.updates.delta import GraphDelta, apply_delta, apply_features
from repro.updates.errors import (
    UpdateError,
    UpdateInProgress,
    UpdateSwapError,
    UpdateVerificationError,
)
from repro.updates.frontier import affected_frontier
from repro.updates.versions import BASE_VERSION, VersionedStore

__all__ = [
    "BASE_VERSION",
    "GraphDelta",
    "UpdateError",
    "UpdateInProgress",
    "UpdateResult",
    "UpdateSwapError",
    "UpdateVerificationError",
    "VersionedStore",
    "affected_frontier",
    "apply_delta",
    "apply_features",
    "apply_memory_update",
    "apply_update",
    "compute_patches",
]
