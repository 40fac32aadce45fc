"""Automated training configuration across graph scales and machines (Section 5).

For each benchmark in the paper's Table 2 this example asks the automated
configuration system where the pre-propagated input should live (GPU / host /
storage), which training method to use (SGD-RR vs chunk reshuffling), and what
training throughput to expect at 1-4 GPUs — first on the paper's server, then
on a memory-constrained laptop to show the decisions are hardware-aware.  A
dataset whose input fits in no tier of a machine is reported as infeasible.

Run with:  python examples/autoconfig_large_graphs.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.autoconfig import AutoConfigurator
from repro.dataloading.cost_model import ModelComputeProfile
from repro.datasets.catalog import PAPER_DATASETS
from repro.hardware import laptop, paper_server
from repro.models import build_pp_model


def profile_for(info, hops: int) -> ModelComputeProfile:
    """HOGA profile at the paper's feature/class dimensions for this dataset."""
    model = build_pp_model(
        "hoga", in_features=info.num_features, num_classes=info.num_classes,
        num_hops=hops, hidden_dim=256, seed=0,
    )
    return ModelComputeProfile.from_model(model, name="hoga")


def show_plans(hardware, title: str) -> None:
    print(f"\n=== {title} ===")
    configurator = AutoConfigurator(hardware)
    header = f"{'dataset':18s} {'hops':>4s} {'input':>9s} {'placement':>9s} {'method':>6s}  throughput (epochs/s by GPU count)"
    print(header)
    print("-" * len(header))
    for key, info in PAPER_DATASETS.items():
        hops = info.paper_hops
        try:
            plan = configurator.plan(info, profile_for(info, hops), hops=hops)
        except MemoryError as error:
            # the input fits in no tier of this machine: say so and go on
            input_gb = info.preprocessed_bytes(hops) / 1e9
            print(f"{info.name:18s} {hops:4d} {input_gb:7.1f}GB {'infeasible':>9s}")
            print(f"{'':18s}      reason: {error}")
            continue
        throughput = ", ".join(f"{g}:{t:.3f}" for g, t in sorted(plan.estimated_throughput.items()))
        print(
            f"{info.name:18s} {hops:4d} {plan.input_bytes / 1e9:7.1f}GB "
            f"{plan.placement:>9s} {plan.method:>6s}  {throughput}"
        )
        print(f"{'':18s}      reason: {plan.decision.reason}")


def main() -> None:
    show_plans(paper_server(), "Paper server (4x A6000, 380 GB RAM, NVMe SSDs)")
    show_plans(laptop(), "Laptop (1 GPU / 8 GB, 16 GB RAM)")


if __name__ == "__main__":
    main()
