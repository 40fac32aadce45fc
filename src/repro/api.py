"""One front door for the repro system.

Six PRs of growth left the public surface scattered: loaders are built from
a nine-kwarg factory, trainers own part of the loading pipeline through
``TrainerConfig`` toggles, preprocessing has its own pipeline object, and
every stage needs a manual ``close()`` in the right order.  This module is
the redesign: a :class:`Session` context manager spans the whole lifecycle —
dataset → pre-propagation → loader → trainer → serving — with exactly two
config dataclasses (:class:`LoaderConfig` here, :class:`~repro.serving.
config.ServingConfig` for the serving tier) replacing the kwarg sprawl, and
every resource the session opens is closed on exit, in reverse order.

    from repro import Session, LoaderConfig, ServingConfig

    with Session("products", num_nodes=6000) as session:
        session.preprocess(num_hops=3)
        trainer = session.trainer("sign", num_epochs=30)
        history = trainer.fit()
        engine = session.serve(ServingConfig(max_pending=1024), model=trainer.model)
        predictions = engine.predict([0, 17, 42])
"""

from __future__ import annotations

import dataclasses
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

from repro.datasets import load_dataset
from repro.datasets.synthetic import NodeClassificationDataset
from repro.dataloading import loaders as _loaders
from repro.models import build_pp_model
from repro.models.base import PPGNNModel
from repro.prepropagation import PreprocessingPipeline, PropagationConfig
from repro.prepropagation.store import FeatureStore
from repro.serving import (
    DeadlineExceeded,
    OverloadError,
    ServingConfig,
    ServingEngine,
    ServingError,
)
from repro.training import PPGNNTrainer, TrainerConfig
from repro.updates import (
    BASE_VERSION,
    GraphDelta,
    UpdateInProgress,
    UpdateResult,
    apply_memory_update,
    apply_update,
)

__all__ = [
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


def open_dataset(
    name: str, seed: int = 0, num_nodes: Optional[int] = None, use_cache: bool = True
) -> NodeClassificationDataset:
    """Load a named dataset replica (facade over :func:`repro.datasets.load_dataset`)."""
    return load_dataset(name, seed=seed, num_nodes=num_nodes, use_cache=use_cache)


@dataclass
class LoaderConfig:
    """Every batch-assembly knob in one place.

    Replaces the positional kwarg sprawl of ``build_loader(...)`` plus the
    loading-related toggles that leaked into ``TrainerConfig`` (``prefetch``,
    ``prefetch_depth``, ``num_workers``, ``loader_policy``).  ``build()``
    constructs the loader; :class:`Session` threads the trainer-side toggles
    into the trainer's config automatically.
    """

    strategy: str = "fused"
    batch_size: int = 512
    chunk_size: Optional[int] = None
    seed: int = 0
    packed: Optional[bool] = None
    reuse_buffers: bool = False
    num_buffers: int = 2
    #: worker processes for shared-memory batch assembly (0 = in-process)
    num_workers: int = 0
    keep: int = 2
    #: overlap assembly with compute via a background prefetch thread
    prefetch: bool = False
    prefetch_depth: int = 1
    #: self-healing posture for the worker pool (see repro.resilience)
    loader_policy: Optional[object] = None

    def __post_init__(self) -> None:
        if self.strategy not in _loaders.LOADER_CLASSES:
            raise ValueError(
                f"unknown loader strategy {self.strategy!r}; "
                f"available: {sorted(_loaders.LOADER_CLASSES)}"
            )
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.num_workers < 0:
            raise ValueError("num_workers must be non-negative")
        if self.prefetch_depth <= 0:
            raise ValueError("prefetch_depth must be positive")

    def build(self, store: FeatureStore, labels, wrap_workers: bool = True):
        """Construct the loader this config describes.

        ``wrap_workers=False`` builds only the in-process strategy loader —
        the form :class:`PPGNNTrainer` wants, since it owns the multi-process
        and prefetch wrapping itself via its config toggles.
        """
        return _loaders.build_loader(
            self.strategy,
            store,
            labels,
            batch_size=self.batch_size,
            chunk_size=self.chunk_size,
            seed=self.seed,
            packed=self.packed,
            reuse_buffers=self.reuse_buffers,
            num_buffers=self.num_buffers,
            num_workers=self.num_workers if wrap_workers else 0,
            keep=self.keep if wrap_workers and self.num_workers > 0 else 2,
        )

    def apply_to(self, config: TrainerConfig) -> TrainerConfig:
        """Copy the trainer-side loading toggles into a :class:`TrainerConfig`."""
        return dataclasses.replace(
            config,
            batch_size=self.batch_size,
            prefetch=self.prefetch,
            prefetch_depth=self.prefetch_depth,
            num_workers=self.num_workers,
            loader_policy=self.loader_policy,
        )


class Session:
    """Context manager spanning dataset → preprocessing → training → serving.

    Every stage object the session hands out is registered and closed on
    ``__exit__`` in reverse creation order, so worker pools, prefetch
    threads, shared-memory segments and serving engines never need a manual
    ``close()`` — though each still supports one, and its own ``with`` block.
    """

    def __init__(
        self,
        dataset: "str | NodeClassificationDataset",
        *,
        seed: int = 0,
        num_nodes: Optional[int] = None,
        loader: Optional[LoaderConfig] = None,
        root: Optional[Path] = None,
    ) -> None:
        if isinstance(dataset, str):
            dataset = open_dataset(dataset, seed=seed, num_nodes=num_nodes)
        self.dataset = dataset
        self.seed = seed
        self.loader_config = loader if loader is not None else LoaderConfig(seed=seed)
        self.root = root
        self._store: Optional[FeatureStore] = None
        self._resources: List[object] = []
        self._closed = False
        self._prop_config: Optional[PropagationConfig] = None
        self._store_version: str = BASE_VERSION
        self._update_lock = threading.Lock()
        self._memory_updates = 0
        self._last_update: Optional[dict] = None

    # ------------------------------------------------------------------ #
    def preprocess(
        self,
        config: Optional[PropagationConfig] = None,
        *,
        num_hops: int = 3,
        mode: str = "in_core",
        **pipeline_kwargs,
    ):
        """Run pre-propagation; the resulting store becomes the session's store.

        With a session ``root`` the store is written there as one packed
        file; ``pipeline_kwargs`` go to
        :class:`~repro.prepropagation.pipeline.PreprocessingPipeline`.
        """
        if config is None:
            config = PropagationConfig(num_hops=num_hops)
        pipeline = PreprocessingPipeline(config, root=self.root, mode=mode, **pipeline_kwargs)
        result = pipeline.run(self.dataset)
        self._store = result.store
        self._prop_config = config
        self._store_version = BASE_VERSION
        return result

    @property
    def store(self) -> FeatureStore:
        """The session's pre-propagated store (runs ``preprocess()`` lazily)."""
        if self._store is None:
            self.preprocess()
        return self._store

    def store_labels(self):
        """Labels aligned to the store's row order (what loaders consume)."""
        return self.dataset.labels[self.store.node_ids]

    # ------------------------------------------------------------------ #
    def loader(self, config: Optional[LoaderConfig] = None):
        """Build a standalone loader (multi-process wrapped if configured)."""
        config = config if config is not None else self.loader_config
        loader = config.build(self.store, self.store_labels(), wrap_workers=True)
        self._resources.append(loader)
        return loader

    def model(self, name: str = "sign", **model_kwargs) -> PPGNNModel:
        """Build a PP-GNN model shaped for this session's dataset and store.

        Its parameters are in the store's dtype, so training and serving
        compute in the precision the store was written in.
        """
        model_kwargs.setdefault("seed", self.seed)
        model = build_pp_model(
            name,
            in_features=self.dataset.num_features,
            num_classes=self.dataset.num_classes,
            num_hops=self.store.num_hops,
            **model_kwargs,
        )
        return model.to(self.store.dtype)

    def trainer(
        self,
        model: "str | PPGNNModel" = "sign",
        config: Optional[TrainerConfig] = None,
        loader: Optional[LoaderConfig] = None,
        **config_kwargs,
    ) -> PPGNNTrainer:
        """Build a :class:`PPGNNTrainer` wired to this session's store.

        ``model`` may be a registry name or a constructed model; extra
        keyword arguments (``num_epochs=30`` etc.) override fields of the
        trainer config; the loader config's trainer-side toggles
        (prefetch/workers) are folded in automatically.
        """
        loader_config = loader if loader is not None else self.loader_config
        if config is None:
            config = TrainerConfig(seed=self.seed)
        if config_kwargs:
            config = dataclasses.replace(config, **config_kwargs)
        config = loader_config.apply_to(config)
        if isinstance(model, str):
            model = self.model(model)
        base_loader = loader_config.build(self.store, self.store_labels(), wrap_workers=False)
        trainer = PPGNNTrainer(model, base_loader, self.dataset, config)
        self._resources.append(trainer)
        return trainer

    def serve(
        self,
        config: Optional[ServingConfig] = None,
        *,
        model: Optional[PPGNNModel] = None,
    ) -> ServingEngine:
        """Start a :class:`ServingEngine` over this session's store.

        Every answer is one gather of all hops from the store; pass a trained
        ``model`` to enable ``engine.predict``.  The engine follows the
        session's store versions through :meth:`apply_updates` and closes
        with the session.
        """
        engine = ServingEngine(
            self.store, config, model=model, store_version=self._store_version
        )
        self._resources.append(engine)
        return engine

    # ------------------------------------------------------------------ #
    def apply_updates(
        self,
        delta: GraphDelta,
        *,
        config: Optional[PropagationConfig] = None,
        verify_samples: int = 8,
        resume: bool = True,
        fault_plan=None,
    ) -> UpdateResult:
        """Apply one timestamped edge/feature delta with zero serving downtime.

        File-backed sessions (constructed with a ``root``) run the crash-safe
        journaled path — the delta is re-propagated over only the affected
        frontier, verified, and published as a new store version
        (:func:`repro.updates.apply_update`); in-memory sessions use the
        non-durable variant.  Either way the session's graph, features and
        store are rebound to the updated snapshot, and every serving engine
        the session started is swapped onto the new version atomically —
        requests in flight finish against their pinned version, and every
        gather after the swap reads the new version.

        An engine whose swap fails keeps serving the previous version
        bit-identically; the failure is recorded in ``result.engine_errors``
        and that engine's ``health()``.  Concurrent calls raise
        :class:`~repro.updates.errors.UpdateInProgress`.
        """
        if self._closed:
            raise RuntimeError("cannot apply updates to a closed Session")
        if not self._update_lock.acquire(blocking=False):
            raise UpdateInProgress("another update is already in flight for this session")
        try:
            store = self.store  # lazily preprocesses on first use
            if config is None:
                config = self._prop_config
            if config is None:
                config = PropagationConfig(num_hops=store.num_hops)
            try:
                if self.root is not None and store.is_file_backed:
                    result = apply_update(
                        self.root,
                        self.dataset.graph,
                        self.dataset.features,
                        delta,
                        config,
                        resume=resume,
                        verify_samples=verify_samples,
                        fault_plan=fault_plan,
                    )
                else:
                    result = apply_memory_update(
                        store,
                        self.dataset.graph,
                        self.dataset.features,
                        delta,
                        config,
                        version=f"mem{self._memory_updates + 1}",
                    )
            except BaseException as exc:
                self._last_update = {
                    "status": "failed",
                    "version": None,
                    "error": f"{type(exc).__name__}: {exc}",
                }
                raise
            # the session always tracks the updated snapshot — even a store
            # noop changed the graph/features the next update builds on
            self.dataset.graph = result.new_graph
            self.dataset.features = result.new_features
            if result.status == "applied":
                self._store = result.store
                self._store_version = result.version
                if result.version.startswith("mem"):
                    self._memory_updates += 1
                for engine in [r for r in self._resources if isinstance(r, ServingEngine)]:
                    engine.begin_update(result.version)
                    try:
                        engine.adopt_store(result.store, version=result.version)
                    except Exception as exc:  # engine keeps serving the old version
                        result.engine_errors.append(f"{type(exc).__name__}: {exc}")
            self._last_update = {
                "status": result.status,
                "version": result.version,
                "error": "; ".join(result.engine_errors) or None,
            }
            return result
        finally:
            self._update_lock.release()

    def health(self) -> dict:
        """Aggregate readiness snapshot across the session's serving engines.

        ``ready`` is true when the session is open and every serving engine
        it started reports ready (vacuously true with no engines) — the shape
        a load-balancer health endpoint would poll.  ``store_version`` and
        ``update`` surface the active store version and the outcome of the
        most recent :meth:`apply_updates` call.
        """
        engines = [r for r in self._resources if isinstance(r, ServingEngine)]
        serving = [engine.health() for engine in engines]
        return {
            "closed": self._closed,
            "ready": not self._closed and all(s["ready"] for s in serving),
            "store_version": self._store_version,
            "update": {
                "in_progress": self._update_lock.locked(),
                "status": self._last_update["status"] if self._last_update else "idle",
                "version": self._last_update["version"] if self._last_update else None,
                "error": self._last_update["error"] if self._last_update else None,
            },
            "serving": serving,
        }

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Close every stage the session opened, in reverse creation order."""
        if self._closed:
            return
        self._closed = True
        while self._resources:
            resource = self._resources.pop()
            close = getattr(resource, "close", None)
            if close is not None:
                close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
