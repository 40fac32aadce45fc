"""Tests for the simulated hardware substrate."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hardware import (
    DeviceSpec,
    DoubleBufferPipeline,
    LinkSpec,
    MemoryDevice,
    MemoryPool,
    OutOfMemoryError,
    TransferEngine,
    laptop,
    paper_server,
    pipelined_time,
    pipelined_time_three_stage,
    serial_time,
    workstation,
)
from repro.hardware.presets import get_preset
from repro.hardware.streams import uniform_batches

GB = 1024**3


class TestSpecs:
    def test_paper_server_matches_appendix_c(self):
        hw = paper_server()
        assert hw.num_gpus == 4
        assert hw.gpu_memory.capacity_bytes == 48 * GB
        assert hw.host_memory.capacity_bytes == 380 * GB

    def test_device_spec_validation(self):
        with pytest.raises(ValueError):
            DeviceSpec("x", capacity_bytes=-1, bandwidth=1e9)
        with pytest.raises(ValueError):
            DeviceSpec("x", capacity_bytes=1, bandwidth=0)
        with pytest.raises(ValueError):
            DeviceSpec("x", capacity_bytes=1, bandwidth=1e9, random_bandwidth=-1)

    def test_link_transfer_time_includes_latency(self):
        link = LinkSpec("pcie", bandwidth=10e9, launch_latency=1e-5)
        one = link.transfer_time(1e9, num_transfers=1)
        many = link.transfer_time(1e9, num_transfers=100)
        assert many > one
        assert one == pytest.approx(0.1 + 1e-5)

    def test_link_zero_bytes(self):
        assert LinkSpec("x", 1e9, 1e-6).transfer_time(0) == 0.0

    def test_hardware_with_gpus(self):
        hw = paper_server(1).with_gpus(4)
        assert hw.num_gpus == 4

    def test_preset_lookup(self):
        assert get_preset("laptop").name == "laptop"
        with pytest.raises(KeyError):
            get_preset("mainframe")

    def test_hierarchy_ordering(self):
        """GPU memory bandwidth > host DRAM > scattered gather > SSD random."""
        for hw in (paper_server(), workstation(), laptop()):
            assert hw.gpu_memory.bandwidth > hw.host_memory.bandwidth
            assert hw.host_memory.bandwidth > hw.host_memory.effective_random_bandwidth
            assert hw.host_memory.effective_random_bandwidth >= hw.storage.effective_random_bandwidth / 2

    def test_describe_keys(self):
        assert {"name", "num_gpus", "gpu_memory_gb"} <= set(paper_server().describe())


class TestMemory:
    def test_allocate_and_release(self):
        dev = MemoryDevice(DeviceSpec("gpu", capacity_bytes=10 * GB, bandwidth=1e9))
        dev.allocate("features", 4 * GB)
        assert dev.used == 4 * GB
        assert dev.fits(6 * GB)
        assert dev.release("features") == 4 * GB
        assert dev.free == 10 * GB

    def test_out_of_memory(self):
        dev = MemoryDevice(DeviceSpec("gpu", capacity_bytes=GB, bandwidth=1e9))
        with pytest.raises(OutOfMemoryError):
            dev.allocate("too-big", 2 * GB)

    def test_duplicate_allocation_name(self):
        dev = MemoryDevice(DeviceSpec("gpu", capacity_bytes=GB, bandwidth=1e9))
        dev.allocate("x", 1)
        with pytest.raises(ValueError):
            dev.allocate("x", 1)

    def test_release_unknown(self):
        dev = MemoryDevice(DeviceSpec("gpu", capacity_bytes=GB, bandwidth=1e9))
        with pytest.raises(KeyError):
            dev.release("nope")

    def test_reserved_bytes_count_as_used(self):
        dev = MemoryDevice(DeviceSpec("gpu", capacity_bytes=GB, bandwidth=1e9), reserved_bytes=GB // 2)
        assert dev.free == GB // 2

    def test_headroom_scales_free_bytes(self):
        dev = MemoryDevice(DeviceSpec("host", capacity_bytes=GB, bandwidth=1e9), reserved_bytes=GB // 2)
        assert dev.headroom() == dev.free
        assert dev.headroom(0.5) == dev.free // 2
        with pytest.raises(ValueError):
            dev.headroom(0.0)
        with pytest.raises(ValueError):
            dev.headroom(1.5)

    def test_pool_from_hardware_and_lookup(self):
        pool = MemoryPool.from_hardware(paper_server())
        assert pool.device("gpu") is pool.gpu
        assert pool.device("host") is pool.host
        assert pool.device("storage") is pool.storage
        with pytest.raises(KeyError):
            pool.device("tape")


class TestTransferEngine:
    def setup_method(self):
        self.hw = paper_server(1)
        self.engine = TransferEngine(self.hw)

    def test_per_row_gather_launch_dominates(self):
        cost = self.engine.per_row_gather(self.hw.host_memory, num_rows=8000, row_bytes=400, ops_per_row=4)
        assert cost.launch_seconds > 0
        assert cost.total > self.engine.fused_gather(self.hw.host_memory, 8000, 400, 4).total

    def test_fused_gather_fewer_launches(self):
        per_row = self.engine.per_row_gather(self.hw.host_memory, 1000, 400, ops_per_row=1)
        fused = self.engine.fused_gather(self.hw.host_memory, 1000, 400, num_matrices=1)
        assert fused.launch_seconds < per_row.launch_seconds
        assert fused.copy_seconds == pytest.approx(per_row.copy_seconds)

    def test_gpu_gather_is_fastest(self):
        host = self.engine.fused_gather(self.hw.host_memory, 8000, 400, 4)
        gpu = self.engine.gpu_gather(8000, 400, 4)
        assert gpu.total < host.total

    def test_host_to_gpu_scales_with_bytes(self):
        assert self.engine.host_to_gpu(1e9) > self.engine.host_to_gpu(1e6)

    def test_multi_gpu_contention_slows_per_gpu_link(self):
        single = self.engine.host_to_gpu(1e9, active_gpus=1)
        shared = self.engine.host_to_gpu(1e9, active_gpus=4)
        assert shared > single

    def test_storage_slower_than_host_path(self):
        host = self.engine.host_to_gpu(100e6, num_transfers=4)
        storage = self.engine.storage_to_gpu(100e6, num_requests=4)
        assert storage > host

    def test_storage_random_slower_than_sequential(self):
        sequential = self.engine.storage_to_host(1e9, num_requests=10, random=False)
        random = self.engine.storage_to_host(1e9, num_requests=10, random=True)
        assert random > sequential

    def test_compute_time_validation(self):
        with pytest.raises(ValueError):
            self.engine.gpu_compute_time(-1)
        assert self.engine.cpu_compute_time(1e9) > 0

    def test_invalid_gather_args(self):
        with pytest.raises(ValueError):
            self.engine.per_row_gather(self.hw.host_memory, -1, 10)


class TestPipelines:
    def test_serial_is_sum(self):
        assert serial_time([1, 1], [2, 2]) == pytest.approx(6.0)

    def test_pipelined_hides_shorter_stage(self):
        loads = [1.0] * 10
        computes = [2.0] * 10
        t = pipelined_time(loads, computes)
        assert t < serial_time(loads, computes)
        # Bound: startup + bottleneck stage dominates.
        assert t == pytest.approx(1.0 + 10 * 2.0, rel=0.05)

    def test_pipelined_bounded_below_by_bottleneck(self):
        loads = [3.0] * 5
        computes = [1.0] * 5
        assert pipelined_time(loads, computes) >= 15.0

    def test_pipeline_empty(self):
        assert pipelined_time([], []) == 0.0
        assert pipelined_time_three_stage([], [], []) == 0.0

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            pipelined_time([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            pipelined_time_three_stage([1.0], [1.0], [1.0, 2.0])

    def test_three_stage_bounded_by_slowest_stage(self):
        n = 20
        t = pipelined_time_three_stage([1.0] * n, [0.5] * n, [2.0] * n)
        assert t == pytest.approx(2.0 * n, rel=0.1)

    def test_three_stage_never_faster_than_two_stage_bottleneck(self):
        n = 10
        three = pipelined_time_three_stage([1.0] * n, [1.0] * n, [1.0] * n)
        assert three >= n * 1.0

    def test_double_buffer_pipeline_toggle(self):
        pipe_on = DoubleBufferPipeline(enabled=True)
        pipe_off = DoubleBufferPipeline(enabled=False)
        loads, computes = [1.0] * 4, [1.0] * 4
        assert pipe_on.epoch_time(loads, computes) < pipe_off.epoch_time(loads, computes)

    def test_uniform_batches_speedup(self):
        result = uniform_batches(1.0, 1.0, 10)
        assert result.overlap_speedup > 1.5


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=20),
    load=st.floats(min_value=0.001, max_value=10),
    compute=st.floats(min_value=0.001, max_value=10),
)
def test_property_pipeline_between_bottleneck_and_serial(n, load, compute):
    """Pipelined time is never below the bottleneck stage nor above serial time."""
    loads, computes = [load] * n, [compute] * n
    t = pipelined_time(loads, computes)
    assert t <= serial_time(loads, computes) + 1e-9
    assert t >= max(sum(loads), sum(computes)) - 1e-9


@settings(max_examples=25, deadline=None)
@given(
    bytes_=st.floats(min_value=1, max_value=1e12),
    transfers=st.integers(min_value=1, max_value=64),
)
def test_property_transfer_time_monotone_in_bytes(bytes_, transfers):
    """More bytes or more DMA launches never reduce the transfer time."""
    link = LinkSpec("pcie", bandwidth=20e9, launch_latency=1e-5)
    assert link.transfer_time(bytes_ * 2, transfers) >= link.transfer_time(bytes_, transfers)
    assert link.transfer_time(bytes_, transfers + 1) >= link.transfer_time(bytes_, transfers)
