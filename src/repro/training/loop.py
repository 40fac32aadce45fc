"""Trainers for PP-GNN and MP-GNN models.

Both trainers share the evaluation protocol from the paper: accuracy is
reported on the test split at the epoch with the best validation accuracy, and
the convergence point is the first epoch reaching 99 % of the peak validation
accuracy.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.dataloading.loaders import PPGNNLoader
from repro.dataloading.prefetch import PrefetchLoader
from repro.dataloading.workers import MultiProcessLoader
from repro.hardware.streams import PipelineResult, overlap_from_recorded
from repro.datasets.synthetic import NodeClassificationDataset
from repro.models.base import MPGNNModel, PPGNNModel
from repro.resilience.supervisor import SupervisorPolicy
from repro.sampling.base import Sampler
from repro.tensor.losses import cross_entropy
from repro.tensor.optim import Adam, Optimizer, SGD
from repro.tensor.tensor import Tensor, no_grad
from repro.training.metrics import EpochRecord, TrainingHistory
from repro.utils.logging import get_logger
from repro.utils.rng import new_rng
from repro.utils.timer import TimeAccumulator, Timer

logger = get_logger("training.loop")


@dataclass
class TrainerConfig:
    """Hyperparameters shared by both trainer families.

    There is no precision knob: a trainer casts its model once to the dtype of
    the features it trains on (the store's ``PropagationConfig.dtype`` for
    PP-GNNs, the dataset's raw features for MP-GNNs) and the autograd engine
    computes in that dtype.
    """

    num_epochs: int = 50
    batch_size: int = 512
    learning_rate: float = 0.01
    weight_decay: float = 0.0
    optimizer: str = "adam"
    eval_every: int = 1
    eval_batch_size: int = 4096
    log_every: int = 0  # 0 disables progress logging
    seed: int = 0
    #: overlap batch assembly with compute via a background prefetch thread
    prefetch: bool = False
    #: bounded-queue capacity of the prefetch pipeline (1 = double buffering)
    prefetch_depth: int = 1
    #: shard batch assembly across this many worker processes (0 = in-process);
    #: composes with ``prefetch`` — workers assemble into shared-memory slots
    #: while the prefetch thread keeps the hand-off off the critical path
    num_workers: int = 0
    #: self-healing posture for the worker pool (``None`` = fail fast on a
    #: dead worker); see :class:`repro.resilience.supervisor.SupervisorPolicy`.
    #: What the supervisor did each epoch lands in the ``loader_*`` fields of
    #: :class:`~repro.training.metrics.EpochRecord`
    loader_policy: Optional["SupervisorPolicy"] = None

    def __post_init__(self) -> None:
        if self.num_epochs <= 0:
            raise ValueError("num_epochs must be positive")
        if self.batch_size <= 0 or self.eval_batch_size <= 0:
            raise ValueError("batch sizes must be positive")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError("optimizer must be 'adam' or 'sgd'")
        if self.prefetch_depth <= 0:
            raise ValueError("prefetch_depth must be positive")
        if self.num_workers < 0:
            raise ValueError("num_workers must be non-negative")

    def build_optimizer(self, params) -> Optimizer:
        if self.optimizer == "adam":
            return Adam(params, lr=self.learning_rate, weight_decay=self.weight_decay)
        return SGD(params, lr=self.learning_rate, momentum=0.9, weight_decay=self.weight_decay)


class PPGNNTrainer:
    """Trains a PP-GNN from a pre-propagated :class:`FeatureStore`.

    The loader determines the batch-assembly strategy and the training method
    (SGD-RR or chunk reshuffling); the trainer only sees identical
    ``(hop features, labels)`` batches either way.  Before building its
    loading pipeline the trainer hands the model's
    :attr:`~repro.models.base.PPGNNModel.inputs` to the loader, so every tier
    (buffer ring, worker slots, prefetch queue) assembles only the matrices
    the model reads, and evaluation gathers only those too.  A loader passed
    in already wrapped (workers or prefetch) keeps yielding all matrices.
    """

    def __init__(
        self,
        model: PPGNNModel,
        loader: PPGNNLoader,
        dataset: NodeClassificationDataset,
        config: TrainerConfig,
    ) -> None:
        model.check_store(loader.store)
        # train in the precision the store was written in (before the
        # optimizer allocates its moments)
        self.model = model.to(loader.store.dtype)
        if isinstance(loader, PPGNNLoader):
            loader.select_inputs(model.inputs)
        self.loader = loader
        self.dataset = dataset
        self.config = config
        self.optimizer = config.build_optimizer(model.parameters())
        self.history = TrainingHistory()
        self.timing = TimeAccumulator()
        #: per-epoch serial-vs-pipelined overlap accounting (prefetch mode only)
        self.pipeline_results: List[PipelineResult] = []
        # loading pipeline: loader -> [MultiProcessLoader] -> [PrefetchLoader];
        # with workers the prefetch queue holds slot-ring views, so the keep
        # window must cover depth queued + one consumed + one in flight
        self._mp_loader: Optional[MultiProcessLoader] = None
        source = loader
        if config.num_workers > 0:
            keep = config.prefetch_depth + 2 if config.prefetch else 2
            self._mp_loader = MultiProcessLoader(
                loader,
                num_workers=config.num_workers,
                keep=keep,
                policy=config.loader_policy,
            )
            source = self._mp_loader
        self._prefetcher: Optional[PrefetchLoader] = (
            PrefetchLoader(source, depth=config.prefetch_depth) if config.prefetch else None
        )
        self._source = self._prefetcher if self._prefetcher is not None else source

        store = loader.store
        # vectorized node-id -> store-row inverse index (no per-node dict lookups)
        size = int(store.node_ids.max()) + 1 if store.node_ids.size else 0
        self._row_of_node = np.full(size, -1, dtype=np.int64)
        self._row_of_node[store.node_ids] = np.arange(store.node_ids.size, dtype=np.int64)
        self._eval_rows = {
            split: self._rows_for(getattr(dataset.split, split)) for split in ("valid", "test")
        }
        self._store_labels = dataset.labels[store.node_ids]

    # ------------------------------------------------------------------ #
    def _rows_for(self, node_ids: np.ndarray) -> np.ndarray:
        node_ids = np.asarray(node_ids, dtype=np.int64)
        if node_ids.size == 0:
            return node_ids
        if node_ids.min() < 0 or node_ids.max() >= self._row_of_node.size:
            raise KeyError("node ids outside the feature store's node set")
        rows = self._row_of_node[node_ids]
        if np.any(rows < 0):
            raise KeyError("node ids outside the feature store's node set")
        return rows

    def _evaluate_rows(self, rows: np.ndarray) -> float:
        self.model.eval()
        correct = 0
        total = 0
        with no_grad():
            for start in range(0, rows.size, self.config.eval_batch_size):
                chunk = rows[start : start + self.config.eval_batch_size]
                feats = self.loader.store.gather(chunk, inputs=self.model.inputs)
                logits = self.model(feats)
                pred = np.argmax(logits.data, axis=-1)
                correct += int((pred == self._store_labels[chunk]).sum())
                total += chunk.size
        self.model.train()
        return correct / max(total, 1)

    def evaluate(self) -> Dict[str, float]:
        """Return validation and test accuracy of the current parameters."""
        return {split: self._evaluate_rows(rows) for split, rows in self._eval_rows.items()}

    # ------------------------------------------------------------------ #
    def train_epoch(self) -> float:
        """Run one epoch; returns the mean training loss.

        With ``config.prefetch`` the batches come off the prefetch pipeline's
        bounded queue while a background thread assembles the next ones; the
        epoch additionally records serial-vs-pipelined overlap accounting
        (``self.pipeline_results``) from the per-batch assembly and compute
        times.
        """
        self.model.train()
        losses = []
        source = self._source
        compute_times: List[float] = []
        epoch_began = time.perf_counter()
        for batch in source.epoch():
            began = time.perf_counter()
            with self.timing.measure("forward"):
                logits = self.model(batch.hop_features)
                loss = cross_entropy(logits, batch.labels)
            with self.timing.measure("backward"):
                self.optimizer.zero_grad()
                loss.backward()
            with self.timing.measure("optimizer"):
                self.optimizer.step()
            compute_times.append(time.perf_counter() - began)
            losses.append(loss.item())
        if self._prefetcher is not None and compute_times:
            # measured wall time of the batch loop, so the recorded speedup is
            # the overlap actually achieved rather than the ideal pipeline bound.
            # With workers underneath, the prefetcher's per-batch times are mere
            # queue hand-offs; the real assembly happened in the worker pool.
            assembly_times = (
                self._mp_loader.assembly_times
                if self._mp_loader is not None
                else self._prefetcher.assembly_times
            )
            self.pipeline_results.append(
                overlap_from_recorded(
                    assembly_times,
                    compute_times,
                    measured_seconds=time.perf_counter() - epoch_began,
                )
            )
        return float(np.mean(losses)) if losses else float("nan")

    def _data_loading_seconds(self) -> float:
        """Data-loading time visible to the training loop so far.

        Synchronous loaders pay full assembly time on the critical path;
        under prefetching or multi-process loading only the queue/result
        stalls remain visible.
        """
        if hasattr(self._source, "stall_seconds"):
            return self._source.stall_seconds()
        return self._source.timing.buckets.get("batch_assembly", 0.0)

    def close(self) -> None:
        """Release loading-pipeline resources (worker processes, shm segments).

        Only needed when ``config.num_workers > 0``; safe to call always and
        idempotent.  After closing, further ``fit()`` calls on a multi-process
        pipeline raise.
        """
        if self._mp_loader is not None:
            self._mp_loader.close()
        if isinstance(self.loader, MultiProcessLoader):
            self.loader.close()

    def __enter__(self) -> "PPGNNTrainer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def fit(self) -> TrainingHistory:
        """Train for ``config.num_epochs`` epochs with periodic evaluation."""
        for epoch in range(1, self.config.num_epochs + 1):
            timer = Timer().start()
            loading_before = self._data_loading_seconds()
            counters_before = (
                self._mp_loader.counters.snapshot() if self._mp_loader is not None else None
            )
            loss = self.train_epoch()
            elapsed = timer.stop()
            loading = self._data_loading_seconds() - loading_before
            resilience = (
                self._mp_loader.counters.delta_since(counters_before)
                if counters_before is not None
                else {}
            )
            if epoch % self.config.eval_every == 0 or epoch == self.config.num_epochs:
                metrics = self.evaluate()
            else:
                metrics = {"valid": float("nan"), "test": float("nan")}
            record = EpochRecord(
                epoch=epoch,
                train_loss=loss,
                valid_accuracy=metrics["valid"],
                test_accuracy=metrics["test"],
                epoch_seconds=elapsed,
                data_loading_seconds=loading,
                loader_respawns=resilience.get("respawns", 0),
                loader_requeued_batches=resilience.get("requeued_batches", 0),
                loader_inline_batches=resilience.get("inline_batches", 0),
            )
            self.history.append(record)
            if self.config.log_every and epoch % self.config.log_every == 0:
                logger.info(
                    "[%s] epoch %d loss %.4f valid %.4f", type(self.model).__name__, epoch, loss, metrics["valid"]
                )
        return self.history


class MPGNNTrainer:
    """Trains an MP-GNN with a graph sampler (sampled mini-batch SGD)."""

    def __init__(
        self,
        model: MPGNNModel,
        sampler: Sampler,
        dataset: NodeClassificationDataset,
        config: TrainerConfig,
        eval_sampler: Optional[Sampler] = None,
    ) -> None:
        # same precision rule as PPGNNTrainer, so PP-vs-sampling comparisons
        # (Figures 4 and 7) stay like-for-like
        self.model = model.to(dataset.features.dtype)
        self.sampler = sampler
        self.eval_sampler = eval_sampler or sampler
        self.dataset = dataset
        self.config = config
        self.optimizer = config.build_optimizer(model.parameters())
        self.history = TrainingHistory()
        self.timing = TimeAccumulator()
        self.rng = new_rng(config.seed)

    # ------------------------------------------------------------------ #
    def _evaluate_nodes(self, nodes: np.ndarray) -> float:
        self.model.eval()
        correct = 0
        total = 0
        with no_grad():
            for start in range(0, nodes.size, self.config.eval_batch_size):
                seeds = nodes[start : start + self.config.eval_batch_size]
                batch = self.eval_sampler.sample(self.dataset.graph, seeds, self.rng)
                feats = self.dataset.features[batch.input_nodes]
                logits = self.model(batch, feats)
                pred = np.argmax(logits.data, axis=-1)
                correct += int((pred == self.dataset.labels[batch.output_nodes]).sum())
                total += seeds.size
        self.model.train()
        return correct / max(total, 1)

    def evaluate(self) -> Dict[str, float]:
        return {
            "valid": self._evaluate_nodes(self.dataset.split.valid),
            "test": self._evaluate_nodes(self.dataset.split.test),
        }

    # ------------------------------------------------------------------ #
    def train_epoch(self) -> float:
        self.model.train()
        losses = []
        with self.timing.measure("sampling"):
            batches = self.sampler.epoch_batches(
                self.dataset.graph, self.dataset.split.train, self.config.batch_size, self.rng
            )
        for batch in batches:
            with self.timing.measure("feature_gather"):
                feats = self.dataset.features[batch.input_nodes]
            with self.timing.measure("forward"):
                logits = self.model(batch, feats)
                labels = self.dataset.labels[batch.output_nodes]
                loss = cross_entropy(logits, labels)
                if batch.node_weight is not None:
                    # GraphSAINT-style loss reweighting by inclusion probability.
                    weights = np.asarray(batch.node_weight, dtype=logits.dtype)
                    weighted = cross_entropy(logits, labels, reduction="none") * Tensor(weights)
                    loss = weighted.mean()
            with self.timing.measure("backward"):
                self.optimizer.zero_grad()
                loss.backward()
            with self.timing.measure("optimizer"):
                self.optimizer.step()
            losses.append(loss.item())
        return float(np.mean(losses)) if losses else float("nan")

    def fit(self) -> TrainingHistory:
        for epoch in range(1, self.config.num_epochs + 1):
            timer = Timer().start()
            loss = self.train_epoch()
            elapsed = timer.stop()
            if epoch % self.config.eval_every == 0 or epoch == self.config.num_epochs:
                metrics = self.evaluate()
            else:
                metrics = {"valid": float("nan"), "test": float("nan")}
            self.history.append(
                EpochRecord(
                    epoch=epoch,
                    train_loss=loss,
                    valid_accuracy=metrics["valid"],
                    test_accuracy=metrics["test"],
                    epoch_seconds=elapsed,
                )
            )
            if self.config.log_every and epoch % self.config.log_every == 0:
                logger.info(
                    "[%s] epoch %d loss %.4f valid %.4f", type(self.model).__name__, epoch, loss, metrics["valid"]
                )
        return self.history
