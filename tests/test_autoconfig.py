"""Tests for the automated training configuration system (Section 5)."""

import pytest

from repro.autoconfig import (
    AutoConfigurator,
    DataPlacementPolicy,
    MemoryProbe,
    plan_propagation_blocks,
)
from repro.dataloading.cost_model import ModelComputeProfile
from repro.datasets.catalog import PAPER_DATASETS
from repro.hardware import laptop, paper_server, workstation
from repro.models import build_pp_model

GB = 1024**3


@pytest.fixture(scope="module")
def hoga_profile():
    model = build_pp_model("hoga", in_features=128, num_classes=172, num_hops=3, seed=0)
    return ModelComputeProfile.from_model(model, name="hoga")


class TestMemoryProbe:
    def test_probe_components_positive(self, hoga_profile):
        probe = MemoryProbe().probe(PAPER_DATASETS["products"], hoga_profile, hops=3, batch_size=8000)
        assert probe.parameter_bytes > 0
        assert probe.activation_bytes > 0
        assert probe.total_bytes > probe.parameter_bytes

    def test_probe_grows_with_batch_and_hops(self, hoga_profile):
        info = PAPER_DATASETS["products"]
        small = MemoryProbe().probe(info, hoga_profile, hops=2, batch_size=1000)
        large = MemoryProbe().probe(info, hoga_profile, hops=6, batch_size=8000)
        assert large.total_bytes > small.total_bytes

    def test_probe_invalid_args(self, hoga_profile):
        with pytest.raises(ValueError):
            MemoryProbe().probe(PAPER_DATASETS["products"], hoga_profile, hops=-1, batch_size=100)


class TestPlacementPolicy:
    def _probe(self, profile, dataset_key, hops=3):
        return MemoryProbe().probe(PAPER_DATASETS[dataset_key], profile, hops=hops, batch_size=8000)

    def test_small_input_goes_to_gpu(self, hoga_profile):
        """papers100M's labeled rows fit in a single A6000 (Section 6.4)."""
        info = PAPER_DATASETS["papers100m"]
        policy = DataPlacementPolicy(paper_server())
        decision = policy.decide(info.preprocessed_bytes(4), self._probe(hoga_profile, "papers100m", 4))
        assert decision.placement == "gpu"
        assert decision.method == "rr"

    def test_medium_input_goes_to_host_with_cr(self, hoga_profile):
        """IGB-medium's 160 GB expanded input exceeds GPU but fits host memory."""
        info = PAPER_DATASETS["igb-medium"]
        policy = DataPlacementPolicy(paper_server())
        decision = policy.decide(info.preprocessed_bytes(3), self._probe(hoga_profile, "igb-medium"))
        assert decision.placement == "host"
        assert decision.method == "cr"

    def test_host_rr_when_pinning_disallowed(self, hoga_profile):
        info = PAPER_DATASETS["igb-medium"]
        policy = DataPlacementPolicy(paper_server(), allow_full_host_pinning=False)
        decision = policy.decide(info.preprocessed_bytes(3), self._probe(hoga_profile, "igb-medium"))
        assert decision.placement == "host"
        assert decision.method == "rr"

    def test_huge_input_goes_to_storage(self, hoga_profile):
        """IGB-large's ~1.6 TB expanded input exceeds the 380 GB host memory."""
        info = PAPER_DATASETS["igb-large"]
        policy = DataPlacementPolicy(paper_server())
        decision = policy.decide(info.preprocessed_bytes(3), self._probe(hoga_profile, "igb-large"))
        assert decision.placement == "storage"
        assert decision.method == "cr"

    def test_beyond_storage_raises(self, hoga_profile):
        policy = DataPlacementPolicy(laptop())
        with pytest.raises(MemoryError):
            policy.decide(10_000 * GB, self._probe(hoga_profile, "igb-large"))

    def test_laptop_pushes_medium_dataset_to_storage(self, hoga_profile):
        """The same dataset lands in a different tier on constrained hardware."""
        info = PAPER_DATASETS["igb-medium"]
        server = DataPlacementPolicy(paper_server()).decide(
            info.preprocessed_bytes(3), self._probe(hoga_profile, "igb-medium")
        )
        small = DataPlacementPolicy(laptop()).decide(
            info.preprocessed_bytes(3), self._probe(hoga_profile, "igb-medium")
        )
        assert server.placement == "host"
        assert small.placement == "storage"

    def test_multi_gpu_sharding_between_single_gpu_and_host(self, hoga_profile):
        """Inputs larger than one GPU but smaller than 4 GPUs are sharded."""
        policy = DataPlacementPolicy(paper_server(4))
        probe = self._probe(hoga_profile, "products")
        one_gpu_free = 48 * GB - 2 * GB - probe.total_bytes
        decision = policy.decide(int(one_gpu_free * 2), probe)
        assert decision.placement == "gpu"
        assert decision.num_gpus_for_data == 4

    def test_negative_input_rejected(self, hoga_profile):
        with pytest.raises(ValueError):
            DataPlacementPolicy(paper_server()).decide(-1, self._probe(hoga_profile, "products"))


class TestAutoConfigurator:
    @pytest.mark.parametrize(
        "dataset_key,hops,expected_placement",
        [
            ("products", 6, "gpu"),
            ("papers100m", 4, "gpu"),
            ("igb-medium", 3, "host"),
            ("igb-large", 3, "storage"),
        ],
    )
    def test_plans_match_paper_regimes(self, hoga_profile, dataset_key, hops, expected_placement):
        """The auto-configurator reproduces the paper's per-dataset placement."""
        configurator = AutoConfigurator(paper_server())
        plan = configurator.plan(PAPER_DATASETS[dataset_key], hoga_profile, hops=hops)
        assert plan.placement == expected_placement
        assert plan.estimated_throughput
        assert all(v > 0 for v in plan.estimated_throughput.values())

    def test_plan_summary_keys(self, hoga_profile):
        plan = AutoConfigurator(paper_server()).plan(PAPER_DATASETS["products"], hoga_profile, hops=3)
        assert {"dataset", "placement", "method", "input_gb", "reason"} <= set(plan.summary())

    def test_workstation_changes_decision(self, hoga_profile):
        """Hardware awareness: the same workload maps differently on a workstation."""
        info = PAPER_DATASETS["igb-medium"]
        server_plan = AutoConfigurator(paper_server()).plan(info, hoga_profile, hops=3)
        ws_plan = AutoConfigurator(workstation()).plan(info, hoga_profile, hops=3)
        assert server_plan.placement == "host"
        assert ws_plan.placement == "storage"


class TestPropagationBlockPlan:
    def test_budget_bounds_resident_scratch(self):
        plan = plan_propagation_blocks(
            num_nodes=1_000_000, feature_dim=128, budget_bytes=64 * 1024**2
        )
        assert plan.scratch_bytes <= plan.budget_bytes
        assert plan.block_size * plan.num_blocks >= 1_000_000
        assert plan.num_blocks == -(-1_000_000 // plan.block_size)

    def test_workers_split_the_budget(self):
        solo = plan_propagation_blocks(10**6, 128, budget_bytes=64 * 1024**2)
        pooled = plan_propagation_blocks(10**6, 128, budget_bytes=64 * 1024**2, num_workers=4)
        assert pooled.block_size * 4 <= solo.block_size + 4  # per-lane split (rounding slack)

    def test_block_never_exceeds_graph(self):
        plan = plan_propagation_blocks(500, 8, budget_bytes=1 << 40)
        assert plan.block_size == 500
        assert plan.num_blocks == 1

    def test_min_block_floor(self):
        plan = plan_propagation_blocks(10**6, 4096, budget_bytes=1, min_block_size=256)
        assert plan.block_size == 256
        # the floor overrode the budget; the plan must not claim it fits
        assert plan.scratch_bytes > plan.budget_bytes
        assert "floor binds" in plan.reason

    def test_host_device_supplies_budget(self):
        from repro.hardware.memory import MemoryDevice
        from repro.hardware.spec import DeviceSpec

        host = MemoryDevice(DeviceSpec("host", capacity_bytes=8 * GB, bandwidth=1e9))
        plan = plan_propagation_blocks(10**6, 128, host=host)
        assert plan.budget_bytes == host.headroom(0.25)
        assert "host" in plan.reason

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            plan_propagation_blocks(0, 128)
        with pytest.raises(ValueError):
            plan_propagation_blocks(100, 0)
        with pytest.raises(ValueError):
            plan_propagation_blocks(100, 8, min_block_size=0)
