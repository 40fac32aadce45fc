"""The `repro.api` facade: Session lifecycle, configs, manual-close paths."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.api import LoaderConfig, ServingConfig, Session, open_dataset
from repro.dataloading.loaders import FusedLoader, PPGNNLoader
from repro.dataloading.workers import MultiProcessLoader
from repro.serving import ServingEngine
from repro.training import PPGNNTrainer, TrainerConfig


class TestTopLevelExports:
    def test_facade_is_reexported_from_repro(self):
        assert repro.Session is Session
        assert repro.LoaderConfig is LoaderConfig
        assert repro.ServingConfig is ServingConfig
        assert repro.open_dataset is open_dataset


class TestLoaderConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="strategy"):
            LoaderConfig(strategy="turbo")
        with pytest.raises(ValueError, match="batch_size"):
            LoaderConfig(batch_size=0)
        with pytest.raises(ValueError, match="num_workers"):
            LoaderConfig(num_workers=-1)

    def test_build_constructs_strategy_loader(self, prepared_store, small_dataset):
        labels = small_dataset.labels[prepared_store.store.node_ids]
        loader = LoaderConfig(strategy="fused", batch_size=256).build(
            prepared_store.store, labels
        )
        assert isinstance(loader, FusedLoader)
        assert loader.batch_size == 256

    def test_build_wraps_workers_only_when_asked(self, prepared_store, small_dataset):
        labels = small_dataset.labels[prepared_store.store.node_ids]
        config = LoaderConfig(num_workers=2)
        base = config.build(prepared_store.store, labels, wrap_workers=False)
        assert isinstance(base, FusedLoader)
        with config.build(prepared_store.store, labels, wrap_workers=True) as wrapped:
            assert isinstance(wrapped, MultiProcessLoader)

    def test_apply_to_threads_toggles_into_trainer_config(self):
        loader = LoaderConfig(batch_size=128, prefetch=True, prefetch_depth=3, num_workers=2)
        trainer = loader.apply_to(TrainerConfig(num_epochs=5))
        assert trainer.num_epochs == 5  # untouched
        assert trainer.batch_size == 128
        assert trainer.prefetch and trainer.prefetch_depth == 3
        assert trainer.num_workers == 2


class TestSession:
    def test_end_to_end_train_and_serve(self, small_dataset):
        with Session(small_dataset) as session:
            result = session.preprocess(num_hops=2)
            assert session.store is result.store
            trainer = session.trainer("sign", num_epochs=1, batch_size=256)
            assert isinstance(trainer, PPGNNTrainer)
            history = trainer.fit()
            assert len(history.records) == 1
            engine = session.serve(ServingConfig(), model=trainer.model)
            rows = np.array([0, 3, 9])
            reference = session.store.gather_packed(rows)
            assert np.array_equal(engine.fetch(rows), reference)
            predictions = engine.predict(rows)
            assert predictions.shape == (3,)
        # exit closed the engine: further submits must fail
        with pytest.raises(RuntimeError):
            engine.submit(0)

    def test_session_accepts_dataset_name(self):
        with Session("products", num_nodes=300, seed=11) as session:
            assert session.dataset.num_nodes == 300
            store = session.store  # lazy default preprocess
            assert store.num_hops == 3

    def test_close_is_idempotent_and_reverse_order(self, small_dataset):
        session = Session(small_dataset)
        session.preprocess(num_hops=2)
        closed = []

        class Probe:
            def __init__(self, tag):
                self.tag = tag

            def close(self):
                closed.append(self.tag)

        session._resources.extend([Probe("first"), Probe("second")])
        session.close()
        session.close()
        assert closed == ["second", "first"]

    def test_health_aggregates_serving_engines(self, small_dataset):
        session = Session(small_dataset)
        session.preprocess(num_hops=2)
        health = session.health()
        assert health["ready"] and not health["closed"]  # vacuously ready: no engines
        assert health["serving"] == []
        engine = session.serve(ServingConfig())
        health = session.health()
        assert health["ready"]
        assert len(health["serving"]) == 1
        assert health["serving"][0]["ready"] and health["serving"][0]["live"]
        assert health["serving"][0]["queue_depth"] == 0
        assert health["store_version"] == "base"
        assert health["update"]["status"] == "idle" and not health["update"]["in_progress"]
        assert engine.health()["ready"]
        session.close()
        closed_health = session.health()
        assert closed_health["closed"] and not closed_health["ready"]
        assert closed_health["serving"] == []

    def test_typed_serving_errors_are_reexported(self):
        from repro.serving import errors

        assert repro.OverloadError is errors.OverloadError
        assert repro.DeadlineExceeded is errors.DeadlineExceeded
        assert issubclass(repro.OverloadError, repro.ServingError)
        assert issubclass(repro.ServingError, RuntimeError)


class TestLifecycleShims:
    """`close()` stays manual-callable even though `with` makes it needless."""

    def test_trainer_context_manager_and_manual_close(self, small_dataset, prepared_store):
        labels = small_dataset.labels[prepared_store.store.node_ids]
        loader = LoaderConfig(batch_size=256).build(prepared_store.store, labels)
        model_kwargs = dict(
            in_features=small_dataset.num_features,
            num_classes=small_dataset.num_classes,
            num_hops=prepared_store.store.num_hops,
        )
        from repro.models import build_pp_model

        with PPGNNTrainer(
            build_pp_model("sign", **model_kwargs),
            loader,
            small_dataset,
            TrainerConfig(num_epochs=1, batch_size=256),
        ) as trainer:
            trainer.fit()
        trainer.close()  # the old manual path still works after __exit__

    def test_base_loader_context_manager_is_noop_close(self, prepared_store, small_dataset):
        labels = small_dataset.labels[prepared_store.store.node_ids]
        with LoaderConfig().build(prepared_store.store, labels) as loader:
            assert isinstance(loader, PPGNNLoader)
            batch = next(iter(loader.epoch()))
            assert batch.batch_size > 0
        loader.close()  # idempotent no-op

    def test_serving_engine_close_idempotent(self, prepared_store):
        engine = ServingEngine(prepared_store.store)
        engine.close()
        engine.close()
