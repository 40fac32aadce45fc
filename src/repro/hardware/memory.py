"""Capacity-accounted memory devices.

The automated configuration system (Section 5) decides where the
pre-propagated input lives by checking whether it fits in GPU memory, host
memory, or neither.  These classes track allocations against a
:class:`~repro.hardware.spec.DeviceSpec`'s capacity so that decision (and the
out-of-memory failures the paper reports for some MP-GNN baselines) can be
made and tested explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.hardware.spec import DeviceSpec


class OutOfMemoryError(RuntimeError):
    """Raised when an allocation exceeds a device's remaining capacity."""


@dataclass
class MemoryDevice:
    """A single device with named allocations."""

    spec: DeviceSpec
    reserved_bytes: int = 0  # framework / CUDA context overhead
    _allocations: Dict[str, int] = field(default_factory=dict)

    @property
    def capacity(self) -> int:
        return self.spec.capacity_bytes

    @property
    def used(self) -> int:
        return self.reserved_bytes + sum(self._allocations.values())

    @property
    def free(self) -> int:
        return self.capacity - self.used

    def fits(self, num_bytes: int) -> bool:
        """Would an allocation of ``num_bytes`` succeed right now?"""
        return num_bytes <= self.free

    def headroom(self, fraction: float = 1.0) -> int:
        """Bytes available for a new allocation, scaled by a safety fraction.

        Budget planners (e.g. the blocked-propagation block sizer) use this
        instead of ``free`` directly so transient scratch never claims the
        whole device and starves the allocations that follow.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        return max(0, int(self.free * fraction))

    def allocate(self, name: str, num_bytes: int) -> None:
        """Reserve ``num_bytes`` under ``name`` (idempotent per name)."""
        if num_bytes < 0:
            raise ValueError("allocation size must be non-negative")
        if name in self._allocations:
            raise ValueError(f"allocation {name!r} already exists on {self.spec.name}")
        if num_bytes > self.free:
            raise OutOfMemoryError(
                f"{self.spec.name}: cannot allocate {num_bytes / 1e9:.2f} GB "
                f"({self.free / 1e9:.2f} GB free of {self.capacity / 1e9:.2f} GB)"
            )
        self._allocations[name] = int(num_bytes)

    def release(self, name: str) -> int:
        """Free the named allocation, returning its size."""
        if name not in self._allocations:
            raise KeyError(f"no allocation named {name!r} on {self.spec.name}")
        return self._allocations.pop(name)

    def allocations(self) -> Dict[str, int]:
        return dict(self._allocations)


@dataclass
class MemoryPool:
    """The three-level memory hierarchy of one machine."""

    gpu: MemoryDevice
    host: MemoryDevice
    storage: MemoryDevice

    @staticmethod
    def from_hardware(spec, gpu_reserved: int = 2 * 1024**3, host_reserved: int = 8 * 1024**3) -> "MemoryPool":
        """Build a pool from a :class:`HardwareSpec` with typical framework overheads."""
        return MemoryPool(
            gpu=MemoryDevice(spec.gpu_memory, reserved_bytes=gpu_reserved),
            host=MemoryDevice(spec.host_memory, reserved_bytes=host_reserved),
            storage=MemoryDevice(spec.storage, reserved_bytes=0),
        )

    def device(self, placement: str) -> MemoryDevice:
        """Resolve a placement name (``gpu``/``host``/``storage``) to a device."""
        key = placement.lower()
        if key == "gpu":
            return self.gpu
        if key == "host":
            return self.host
        if key == "storage":
            return self.storage
        raise KeyError(f"unknown placement {placement!r}")
