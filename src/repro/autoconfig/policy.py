"""Data placement policy (Section 5).

Given the hardware, the pre-propagated input size and the model's peak memory
requirement, the policy picks where the input lives and which training method
to use:

* **GPU memory** if the expanded input plus the training working set fits
  (possibly sharded across multiple GPUs) — SGD-RR, since HBM bandwidth makes
  batch assembly a non-issue;
* **host memory** otherwise, with chunk reshuffling if the user allows pinning
  the whole input, else SGD-RR;
* **storage** (GDS) when the input exceeds host memory — chunk reshuffling
  only, since random row reads from SSD would be prohibitive.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.autoconfig.probe import ProbeResult
from repro.dataloading.cost_model import STRATEGY_PRESETS, LoaderStrategy
from repro.hardware.memory import MemoryPool
from repro.hardware.spec import HardwareSpec


@dataclass(frozen=True)
class PlacementDecision:
    """The chosen placement, training method, and the reasoning behind it."""

    placement: str  # "gpu" | "host" | "storage"
    method: str  # "rr" | "cr"
    num_gpus_for_data: int
    strategy: LoaderStrategy
    reason: str


class DataPlacementPolicy:
    """Implements the placement decision tree of Section 5.

    ``multi_gpu_utilization_cap`` bounds how much of the aggregate multi-GPU
    free memory may be claimed by sharded input data: cross-GPU fetch buffers,
    allocator fragmentation and per-replica working sets make filling GPUs to
    the brim impractical, which is why the paper keeps IGB-medium in host
    memory rather than sharding it across four A6000s.
    """

    def __init__(
        self,
        hardware: HardwareSpec,
        allow_full_host_pinning: bool = True,
        multi_gpu_utilization_cap: float = 0.7,
    ) -> None:
        if not 0 < multi_gpu_utilization_cap <= 1:
            raise ValueError("multi_gpu_utilization_cap must be in (0, 1]")
        self.hw = hardware
        self.allow_full_host_pinning = allow_full_host_pinning
        self.multi_gpu_utilization_cap = multi_gpu_utilization_cap

    def decide(
        self,
        input_bytes: int,
        probe: ProbeResult,
        prefer_chunk_reshuffle: bool = True,
    ) -> PlacementDecision:
        """Choose placement and training method for an input of ``input_bytes``."""
        if input_bytes < 0:
            raise ValueError("input_bytes must be non-negative")
        pool = MemoryPool.from_hardware(self.hw)
        working_set = probe.total_bytes

        # 1) GPU memory (possibly sharded across all GPUs).
        per_gpu_free = pool.gpu.free - working_set
        if per_gpu_free > 0:
            total_gpu_capacity = per_gpu_free * self.hw.num_gpus * self.multi_gpu_utilization_cap
            if input_bytes <= per_gpu_free:
                return PlacementDecision(
                    placement="gpu",
                    method="rr",
                    num_gpus_for_data=1,
                    strategy=STRATEGY_PRESETS["gpu_rr"],
                    reason="input fits in a single GPU's free memory",
                )
            if input_bytes <= total_gpu_capacity and self.hw.num_gpus > 1:
                return PlacementDecision(
                    placement="gpu",
                    method="rr",
                    num_gpus_for_data=self.hw.num_gpus,
                    strategy=STRATEGY_PRESETS["gpu_rr"],
                    reason="input fits when sharded across all GPUs (locality-aware fetching)",
                )

        # 2) Host memory.
        if input_bytes <= pool.host.free:
            use_cr = prefer_chunk_reshuffle and self.allow_full_host_pinning
            return PlacementDecision(
                placement="host",
                method="cr" if use_cr else "rr",
                num_gpus_for_data=self.hw.num_gpus,
                strategy=STRATEGY_PRESETS["host_cr" if use_cr else "host_rr"],
                reason=(
                    "input fits in host memory; chunk reshuffling with full pinning"
                    if use_cr
                    else "input fits in host memory; SGD-RR avoids pinning the full input"
                ),
            )

        # 3) Storage via GDS.
        if input_bytes <= pool.storage.free:
            return PlacementDecision(
                placement="storage",
                method="cr",
                num_gpus_for_data=1,
                strategy=STRATEGY_PRESETS["ssd_cr"],
                reason="input exceeds host memory; GPU direct storage access with chunk reshuffling",
            )
        raise MemoryError(
            f"input of {input_bytes / 1e9:.1f} GB exceeds even storage capacity "
            f"({pool.storage.free / 1e9:.1f} GB free)"
        )
