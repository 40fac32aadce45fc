"""Shared helpers for the experiment drivers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.dataloading.cost_model import ModelComputeProfile
from repro.dataloading.loaders import build_loader
from repro.datasets.registry import load_dataset
from repro.datasets.synthetic import NodeClassificationDataset
from repro.models.registry import build_mp_model, build_pp_model
from repro.prepropagation.pipeline import PreprocessingPipeline
from repro.prepropagation.propagator import PropagationConfig
from repro.prepropagation.store import FeatureStore
from repro.sampling.registry import build_sampler
from repro.training.loop import MPGNNTrainer, PPGNNTrainer, TrainerConfig
from repro.training.metrics import TrainingHistory

#: Node counts used by the quick (benchmark) versions of the experiments.
QUICK_NODE_COUNTS: Dict[str, int] = {
    "products": 4000,
    "pokec": 4000,
    "wiki": 4000,
    "papers100m": 6000,
    "igb-medium": 4000,
    "igb-large": 6000,
}


@dataclass
class PreparedPPData:
    """A dataset together with its pre-propagated feature store."""

    dataset: NodeClassificationDataset
    store: FeatureStore
    preprocess_seconds: float
    hops: int
    #: per-phase preprocessing seconds (operator / propagate / store_write)
    timing: Optional[Dict[str, float]] = None

    def loader(
        self,
        strategy: str,
        batch_size: int,
        chunk_size: Optional[int] = None,
        seed: int = 0,
        **loader_kwargs,
    ):
        labels = self.dataset.labels[self.store.node_ids]
        return build_loader(
            strategy, self.store, labels, batch_size, chunk_size=chunk_size, seed=seed, **loader_kwargs
        )


def prepare_pp_data(
    name: str,
    hops: int,
    num_nodes: Optional[int] = None,
    seed: int = 0,
    operators: Sequence[str] = ("normalized_adjacency",),
    mode: str = "in_core",
    num_workers: int = 0,
    block_size: Optional[int] = None,
) -> PreparedPPData:
    """Load a dataset replica and run the pre-propagation pipeline.

    ``mode="blocked"`` runs the out-of-core engine (optionally sharded over
    ``num_workers`` processes); output is bit-identical to the in-core path,
    so downstream accuracy results never depend on the choice.
    """
    dataset = load_dataset(name, seed=seed, num_nodes=num_nodes)
    config = PropagationConfig(num_hops=hops, operators=tuple(operators))
    pipeline = PreprocessingPipeline(
        config, mode=mode, num_workers=num_workers, block_size=block_size
    )
    result = pipeline.run(dataset)
    return PreparedPPData(
        dataset=dataset,
        store=result.store,
        preprocess_seconds=result.wall_seconds,
        hops=hops,
        timing=dict(result.timing),
    )


def train_pp(
    model_name: str,
    prepared: PreparedPPData,
    num_epochs: int,
    batch_size: int = 512,
    hidden_dim: Optional[int] = None,
    loader_strategy: str = "fused",
    chunk_size: Optional[int] = None,
    lr: float = 0.01,
    dropout: float = 0.2,
    seed: int = 0,
    prefetch: bool = False,
    num_workers: int = 0,
    **loader_kwargs,
) -> tuple[TrainingHistory, PPGNNTrainer]:
    """Train one PP-GNN on prepared data and return its history.

    ``prefetch=True`` runs batch assembly on the background prefetch pipeline
    (overlapped with compute); ``num_workers > 0`` shards assembly across
    worker processes over shared memory.  Batches are bit-identical in every
    mode, so the accuracy results are unaffected.  The trainer's loading
    pipeline is closed before returning (worker processes and shm segments
    are released); the history and timing stay inspectable.
    """
    dataset = prepared.dataset
    model = build_pp_model(
        model_name,
        in_features=dataset.num_features,
        num_classes=dataset.num_classes,
        num_hops=prepared.hops,
        hidden_dim=hidden_dim,
        dropout=dropout,
        seed=seed,
    )
    loader = prepared.loader(loader_strategy, batch_size, chunk_size=chunk_size, seed=seed, **loader_kwargs)
    config = TrainerConfig(
        num_epochs=num_epochs,
        batch_size=batch_size,
        learning_rate=lr,
        seed=seed,
        prefetch=prefetch,
        num_workers=num_workers,
    )
    trainer = PPGNNTrainer(model, loader, dataset, config)
    try:
        history = trainer.fit()
    finally:
        trainer.close()
    return history, trainer


def train_mp(
    backbone: str,
    sampler_name: str,
    dataset: NodeClassificationDataset,
    num_layers: int,
    num_epochs: int,
    batch_size: int = 512,
    hidden_dim: Optional[int] = None,
    lr: float = 0.01,
    dropout: float = 0.3,
    seed: int = 0,
    saint_budget: int = 1024,
) -> tuple[TrainingHistory, MPGNNTrainer]:
    """Train one sampled MP-GNN and return its history."""
    sampler_kwargs = {}
    if sampler_name == "saint":
        sampler_kwargs["budget"] = saint_budget
    sampler = build_sampler(sampler_name, num_layers=num_layers, backbone=backbone, **sampler_kwargs)
    model = build_mp_model(
        backbone,
        in_features=dataset.num_features,
        num_classes=dataset.num_classes,
        num_layers=num_layers,
        hidden_dim=hidden_dim,
        dropout=dropout,
        seed=seed,
    )
    config = TrainerConfig(num_epochs=num_epochs, batch_size=batch_size, learning_rate=lr, seed=seed)
    trainer = MPGNNTrainer(model, sampler, dataset, config)
    history = trainer.fit()
    return history, trainer


def pp_profile(model_name: str, info, hops: int, hidden_dim: Optional[int] = None, seed: int = 0) -> ModelComputeProfile:
    """Build a paper-scale compute profile for a PP-GNN by instantiating it.

    The model is instantiated with the *paper's* feature/class/hidden
    dimensions (Section 6: SIGN hidden 512, HOGA hidden 256) so its FLOP count
    reflects the real workload even though training runs on the scaled
    replica.
    """
    from repro.models.registry import PAPER_PP_HIDDEN

    if hidden_dim is None:
        hidden_dim = PAPER_PP_HIDDEN.get(model_name.lower()) or None
    model = build_pp_model(
        model_name,
        in_features=info.num_features,
        num_classes=info.num_classes,
        num_hops=hops,
        hidden_dim=hidden_dim,
        seed=seed,
    )
    return ModelComputeProfile.from_model(model, name=model_name)


def format_table(rows: Sequence[dict], columns: Sequence[str], title: str = "") -> str:
    """Render a list of dicts as a fixed-width text table."""
    lines = []
    if title:
        lines.append(title)
    widths = {c: max(len(c), *(len(_fmt(r.get(c))) for r in rows)) if rows else len(c) for c in columns}
    header = "  ".join(c.ljust(widths[c]) for c in columns)
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        lines.append("  ".join(_fmt(row.get(c)).ljust(widths[c]) for c in columns))
    return "\n".join(lines)


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean of positive values (the paper's averaging convention)."""
    values = [v for v in values if v > 0]
    if not values:
        return float("nan")
    return float(np.exp(np.mean(np.log(values))))
