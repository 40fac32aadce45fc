"""End-to-end preprocessing pipeline for PP-GNN training.

Wraps the propagation engines with the bookkeeping the experiments need:
restriction to labeled nodes, byte/expansion accounting (Section 3.4),
per-phase timing (Table 2 / Table 7), and optional persistence through
:class:`~repro.prepropagation.store.FeatureStore` as one packed ``(M, N, F)``
file.

Two execution modes share one result contract:

* ``"in_core"`` — the reference path: full-graph hop matrices in RAM
  (:func:`~repro.prepropagation.propagator.propagate_features`), restricted to
  labeled rows afterwards.  Peak memory ``O(K (R + 1) N F)``.
* ``"blocked"`` — the out-of-core engine
  (:func:`~repro.prepropagation.blocked.propagate_blocked`): row-tiled SpMM,
  disk-backed hop scratch, labeled rows streamed straight into the packed
  store file, optional worker processes.  Peak memory ``O(block_size x F)``
  scratch.  Bit-identical output for a fixed accumulation dtype.

``"auto"`` picks blocked when the in-core transient would exceed the memory
budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from repro.datasets.synthetic import NodeClassificationDataset
from repro.prepropagation.blocked import propagate_blocked
from repro.prepropagation.propagator import (
    PropagationConfig,
    expanded_bytes,
    flops_estimate,
    propagate_features,
)
from repro.prepropagation.store import FeatureStore, HopFeatures, check_layout
from repro.utils.logging import get_logger
from repro.utils.timer import Timer

logger = get_logger("prepropagation.pipeline")

#: supported execution modes of the pipeline
PREPROCESSING_MODES = ("in_core", "blocked", "auto")


@dataclass
class PreprocessingResult:
    """Output of one preprocessing run."""

    store: FeatureStore
    config: PropagationConfig
    wall_seconds: float
    raw_feature_bytes: int
    expanded_feature_bytes: int
    labeled_rows: int
    mode: str = "in_core"
    timing: dict = field(default_factory=dict)

    @property
    def expansion_factor(self) -> float:
        """How much larger the stored input is than the raw labeled features."""
        raw_labeled = self.raw_feature_bytes
        if raw_labeled == 0:
            return float("nan")
        return self.expanded_feature_bytes / raw_labeled

    def summary(self) -> dict:
        summary = {
            "hops": self.config.num_hops,
            "kernels": self.config.num_kernels,
            "wall_seconds": self.wall_seconds,
            "expanded_bytes": self.expanded_feature_bytes,
            "expansion_factor": self.expansion_factor,
            "labeled_rows": self.labeled_rows,
            # self-describing Table 7 runs: how the SpMM accumulated and which
            # engine ran are part of the measurement, not incidentals
            "accumulate_dtype": self.config.accumulate_dtype,
            "mode": self.mode,
        }
        for key in ("operator_seconds", "propagate_seconds", "store_write_seconds"):
            if key in self.timing:
                summary[key] = self.timing[key]
        return summary


class PreprocessingPipeline:
    """Compute and (optionally) persist pre-propagated features for a dataset.

    Parameters
    ----------
    config / root:
        Propagation recipe and optional persistence root (the store is then
        written as one packed file there).
    store_layout:
        Accepts only ``"packed"``; removed with ``bench/``'s follow-up (see
        :func:`~repro.prepropagation.store.check_layout`).
    mode:
        ``"in_core"`` (reference), ``"blocked"`` (out-of-core engine) or
        ``"auto"`` (blocked iff the in-core transient exceeds the budget).
    block_size:
        Rows per SpMM tile for the blocked engine; ``None`` plans it from the
        memory budget via
        :func:`repro.autoconfig.planner.plan_propagation_blocks`.
    num_workers:
        Worker processes for the blocked engine (``0`` = inline).
    memory_budget_bytes:
        Resident-scratch budget for block planning and the ``"auto"``
        decision; ``None`` uses the planner default.
    scratch_dir:
        Where the blocked engine puts its hop scratch memmaps (default: the
        system temp directory).  Ignored when ``resume=True`` — a resumable
        run keeps its scratch inside the persistent staging directory.
    resume:
        Make blocked runs crash-safe and resumable: completed ``(kernel,
        hop)`` phases are journaled next to ``root``
        (:mod:`repro.resilience.checkpoint`), and a rerun after an
        interruption recomputes only the unfinished phases, producing a
        byte-identical store.  Requires ``root`` and the blocked mode.
    """

    def __init__(
        self,
        config: PropagationConfig,
        root: Optional[Path] = None,
        store_layout: str = "packed",
        mode: str = "in_core",
        block_size: Optional[int] = None,
        num_workers: int = 0,
        memory_budget_bytes: Optional[int] = None,
        scratch_dir: Optional[Path] = None,
        resume: bool = False,
    ) -> None:
        check_layout(store_layout)
        if mode not in PREPROCESSING_MODES:
            raise ValueError(f"unknown mode {mode!r}; expected one of {PREPROCESSING_MODES}")
        if num_workers < 0:
            raise ValueError("num_workers must be non-negative")
        if resume and root is None:
            raise ValueError("resume=True requires a persistent root")
        if resume and mode == "in_core":
            raise ValueError("resume is only supported by the blocked mode")
        self.config = config
        self.root = Path(root) if root is not None else None
        self.mode = mode
        self.block_size = block_size
        self.num_workers = num_workers
        self.memory_budget_bytes = memory_budget_bytes
        self.scratch_dir = Path(scratch_dir) if scratch_dir is not None else None
        self.resume = resume

    # ------------------------------------------------------------------ #
    def _in_core_transient_bytes(self, dataset: NodeClassificationDataset) -> int:
        """Peak full-graph working set of the in-core path (the blocked engine's target)."""
        num_values = dataset.num_nodes * dataset.num_features
        accumulate_itemsize = np.dtype(self.config.accumulate_dtype).itemsize
        stored_itemsize = np.dtype(self.config.dtype).itemsize
        return int(
            num_values
            * (2 * accumulate_itemsize + stored_itemsize * self.config.num_matrices)
        )

    def _resolve_mode(self, dataset: NodeClassificationDataset) -> str:
        if self.mode != "auto":
            return self.mode
        if self.resume:
            # only the blocked engine journals phases; an auto-resolved
            # in-core run could not honor the resume contract
            return "blocked"
        from repro.autoconfig.planner import DEFAULT_PROPAGATION_BUDGET_BYTES

        budget = self.memory_budget_bytes or DEFAULT_PROPAGATION_BUDGET_BYTES
        return "blocked" if self._in_core_transient_bytes(dataset) > budget else "in_core"

    def _planned_block_size(self, dataset: NodeClassificationDataset) -> int:
        if self.block_size is not None:
            return self.block_size
        # imported lazily: autoconfig sits above prepropagation in the layer
        # stack and pulls in the cost models
        from repro.autoconfig.planner import plan_propagation_blocks

        plan = plan_propagation_blocks(
            num_nodes=dataset.num_nodes,
            feature_dim=dataset.num_features,
            accumulate_itemsize=np.dtype(self.config.accumulate_dtype).itemsize,
            budget_bytes=self.memory_budget_bytes,
            num_workers=self.num_workers,
        )
        return plan.block_size

    # ------------------------------------------------------------------ #
    def run(self, dataset: NodeClassificationDataset) -> PreprocessingResult:
        """Propagate features over the full graph, keeping only labeled rows.

        The full-graph propagation is what makes preprocessing relatively
        expensive on sparsely-labeled graphs (ogbn-papers100M in Table 7):
        information from unlabeled nodes is folded in during the SpMM even
        though only labeled rows are stored.  The blocked mode keeps exactly
        that property while never materializing a full hop matrix in RAM.
        """
        labeled = np.unique(
            np.concatenate([dataset.split.train, dataset.split.valid, dataset.split.test])
        )
        mode = self._resolve_mode(dataset)
        if mode == "blocked":
            store, timing = propagate_blocked(
                dataset.graph,
                dataset.features,
                self.config,
                labeled,
                root=self.root,
                block_size=self._planned_block_size(dataset),
                num_workers=self.num_workers,
                scratch_dir=self.scratch_dir,
                resume=self.resume,
            )
        else:
            full_matrices, timing = propagate_features(
                dataset.graph, dataset.features, self.config
            )
            with Timer() as write_timer:
                hop_features = HopFeatures.from_full_matrices(full_matrices, labeled)
                store = FeatureStore(hop_features, root=self.root)
            timing = dict(timing)
            timing["store_write_seconds"] = write_timer.elapsed
            timing["total_seconds"] += write_timer.elapsed

        dtype_bytes = np.dtype(self.config.dtype).itemsize
        raw_bytes = int(labeled.size * dataset.num_features * dtype_bytes)
        exp_bytes = expanded_bytes(
            labeled.size, dataset.num_features, self.config, dtype_bytes=dtype_bytes
        )
        result = PreprocessingResult(
            store=store,
            config=self.config,
            wall_seconds=timing["total_seconds"],
            raw_feature_bytes=raw_bytes,
            expanded_feature_bytes=exp_bytes,
            labeled_rows=int(labeled.size),
            mode=mode,
            timing=timing,
        )
        logger.info(
            "preprocessing %s [%s]: %.2fs, expansion x%.1f (%d labeled rows)",
            dataset.name,
            mode,
            result.wall_seconds,
            result.expansion_factor,
            result.labeled_rows,
        )
        return result

    def estimated_flops(self, dataset: NodeClassificationDataset) -> int:
        """Estimated preprocessing FLOPs for ``dataset`` under this config."""
        return flops_estimate(dataset.graph, dataset.num_features, self.config)
