"""Tests for the packed/zero-copy assembly paths and the prefetch pipeline.

The load-bearing property: for the same seed, the optimized paths (packed
store gathers, reused buffers, async prefetching) must yield *bit-identical*
batch sequences to the seed synchronous/unpacked paths, for every strategy,
in-memory and file-backed.
"""

import numpy as np
import pytest

from repro.dataloading import PrefetchLoader, build_loader
from repro.hardware.streams import overlap_from_recorded
from repro.prepropagation.pipeline import PreprocessingPipeline
from repro.prepropagation.propagator import PropagationConfig
from repro.training.loop import PPGNNTrainer, TrainerConfig
from repro.models.registry import build_pp_model


def _materialize_epoch(loader):
    """Copy every batch out of the loader (views may alias reused buffers)."""
    out = []
    for batch in loader.epoch():
        out.append(
            (
                batch.row_indices.copy(),
                [np.array(m, copy=True) for m in batch.hop_features],
                batch.labels.copy(),
            )
        )
    return out


def _assert_epochs_identical(expected, got):
    assert len(expected) == len(got)
    for (rows_a, feats_a, labels_a), (rows_b, feats_b, labels_b) in zip(expected, got):
        assert np.array_equal(rows_a, rows_b)
        assert np.array_equal(labels_a, labels_b)
        assert len(feats_a) == len(feats_b)
        for m_a, m_b in zip(feats_a, feats_b):
            assert m_a.dtype == m_b.dtype
            assert np.array_equal(m_a, m_b)


@pytest.fixture()
def store_and_labels(prepared_store, small_dataset):
    store = prepared_store.store
    return store, small_dataset.labels[store.node_ids]


@pytest.fixture()
def file_backed(small_dataset, tmp_path):
    """A store persisted to (and memory-mappable from) ``packed.npy``."""
    store = PreprocessingPipeline(PropagationConfig(num_hops=2), root=tmp_path / "store").run(
        small_dataset
    ).store
    return store, small_dataset.labels[store.node_ids]


class TestPackedEquivalence:
    @pytest.mark.parametrize("strategy", ["fused", "chunk"])
    def test_packed_matches_seed_path_in_memory(self, store_and_labels, strategy):
        store, labels = store_and_labels
        seed_path = _materialize_epoch(
            build_loader(strategy, store, labels, 128, seed=3, packed=False)
        )
        packed = _materialize_epoch(
            build_loader(
                strategy, store, labels, 128, seed=3, packed=True, reuse_buffers=True, num_buffers=2
            )
        )
        _assert_epochs_identical(seed_path, packed)

    @pytest.mark.parametrize("strategy", ["fused", "chunk", "storage"])
    def test_packed_matches_seed_path_file_backed(self, file_backed, strategy):
        store, labels = file_backed
        # seed reference: per-matrix naive assembly
        seed_path = _materialize_epoch(
            build_loader(strategy, store, labels, 128, seed=5, packed=False)
        )
        packed = _materialize_epoch(
            build_loader(
                strategy,
                store,
                labels,
                128,
                seed=5,
                packed=True,
                reuse_buffers=True,
                num_buffers=2,
            )
        )
        _assert_epochs_identical(seed_path, packed)

    def test_baseline_rejects_packed(self, store_and_labels):
        store, labels = store_and_labels
        with pytest.raises(ValueError):
            build_loader("baseline", store, labels, 64, packed=True)

    def test_file_backed_batches_are_writeable_copies(self, file_backed):
        """No strategy hands out a view into the mapped store file: every
        yielded matrix is writeable and shares no memory with the block."""
        store, labels = file_backed
        mapped = store.packed_matrix(memmap=True)
        for strategy in ("baseline", "fused", "chunk", "storage"):
            for packed in (False, True) if strategy != "baseline" else (False,):
                loader = build_loader(strategy, store, labels, 128, seed=1, packed=packed)
                for batch in loader.epoch():
                    for matrix in batch.hop_features:
                        assert matrix.flags.writeable, (strategy, packed)
                        assert not np.shares_memory(matrix, mapped), (strategy, packed)
                        assert not isinstance(matrix, np.memmap), (strategy, packed)

    def test_reused_buffers_are_actually_reused(self, store_and_labels):
        store, labels = store_and_labels
        loader = build_loader(
            "fused", store, labels, 128, seed=0, packed=True, reuse_buffers=True, num_buffers=2
        )
        bases = []
        for batch in loader.epoch():
            bases.append(batch.hop_features[0].base)
        assert all(b is not None for b in bases)
        assert len({id(b) for b in bases}) == 2  # ring of two buffers, round-robin

    def test_fresh_buffers_when_reuse_disabled(self, store_and_labels):
        store, labels = store_and_labels
        loader = build_loader("fused", store, labels, 128, seed=0, packed=True, reuse_buffers=False)
        batches = list(loader.epoch())
        # held batches keep their content because every batch owns its block
        direct = store.gather(batches[0].row_indices)
        for got, want in zip(batches[0].hop_features, direct):
            assert np.array_equal(got, want)


class TestPrefetchLoader:
    @pytest.mark.parametrize("strategy", ["baseline", "fused", "chunk"])
    def test_prefetch_bit_identical_to_sync(self, store_and_labels, strategy):
        store, labels = store_and_labels
        sync = _materialize_epoch(build_loader(strategy, store, labels, 128, seed=11))
        prefetched = _materialize_epoch(
            PrefetchLoader(build_loader(strategy, store, labels, 128, seed=11), depth=2)
        )
        _assert_epochs_identical(sync, prefetched)

    def test_prefetch_bit_identical_storage(self, file_backed):
        store, labels = file_backed
        sync = _materialize_epoch(build_loader("storage", store, labels, 128, seed=2))
        prefetched = _materialize_epoch(
            PrefetchLoader(build_loader("storage", store, labels, 128, seed=2), depth=1)
        )
        _assert_epochs_identical(sync, prefetched)

    def test_prefetch_with_buffer_reuse(self, store_and_labels):
        store, labels = store_and_labels
        sync = _materialize_epoch(build_loader("fused", store, labels, 96, seed=4, packed=False))
        inner = build_loader(
            "fused", store, labels, 96, seed=4, packed=True, reuse_buffers=True, num_buffers=3
        )
        prefetched = _materialize_epoch(PrefetchLoader(inner, depth=1))
        _assert_epochs_identical(sync, prefetched)

    @pytest.mark.parametrize("strategy", ["chunk", "storage"])
    def test_prefetch_with_buffer_reuse_file_backed(self, file_backed, strategy):
        store, labels = file_backed
        sync = _materialize_epoch(
            build_loader(strategy, store, labels, 96, seed=4, packed=False)
        )
        inner = build_loader(
            strategy, store, labels, 96, seed=4, packed=True, reuse_buffers=True, num_buffers=3
        )
        prefetched = _materialize_epoch(PrefetchLoader(inner, depth=1))
        _assert_epochs_identical(sync, prefetched)

    def test_rejects_undersized_buffer_ring(self, store_and_labels):
        store, labels = store_and_labels
        inner = build_loader(
            "fused", store, labels, 64, packed=True, reuse_buffers=True, num_buffers=2
        )
        with pytest.raises(ValueError):
            PrefetchLoader(inner, depth=1)  # needs depth + 2 = 3 buffers

    def test_rejects_bad_depth(self, store_and_labels):
        store, labels = store_and_labels
        with pytest.raises(ValueError):
            PrefetchLoader(build_loader("fused", store, labels, 64), depth=0)

    def test_records_assembly_and_wait_times(self, store_and_labels):
        store, labels = store_and_labels
        loader = PrefetchLoader(build_loader("fused", store, labels, 128, seed=0), depth=1)
        n = sum(1 for _ in loader.epoch())
        assert len(loader.assembly_times) == n
        assert len(loader.wait_times) == n
        assert loader.timing.buckets["batch_assembly"] > 0
        assert loader.stall_seconds() >= 0

    def test_early_break_shuts_down_producer(self, store_and_labels):
        store, labels = store_and_labels
        loader = PrefetchLoader(build_loader("fused", store, labels, 64, seed=0), depth=1)
        for i, _ in enumerate(loader.epoch()):
            if i == 1:
                break
        # a fresh epoch restarts cleanly after the early shutdown
        assert sum(b.batch_size for b in loader.epoch()) == store.num_rows

    def test_propagates_producer_exception(self, store_and_labels):
        store, labels = store_and_labels
        inner = build_loader("fused", store, labels, 64, seed=0)

        def explode(rows, runs):
            raise RuntimeError("assembly failed")

        inner._assemble = explode
        loader = PrefetchLoader(inner, depth=1)
        with pytest.raises(RuntimeError, match="assembly failed"):
            list(loader.epoch())

    def test_metadata_passthrough(self, store_and_labels):
        store, labels = store_and_labels
        inner = build_loader("chunk", store, labels, 64, seed=0)
        loader = PrefetchLoader(inner, depth=1)
        assert loader.store is store
        assert loader.batch_size == 64
        assert loader.num_batches() == inner.num_batches()
        assert loader.strategy_name == "chunk+prefetch"


#: every loading tier the trainer can build, as (loader kwargs, trainer kwargs)
SELECTION_TIERS = {
    "fused": (dict(strategy="fused"), {}),
    "fused-unpacked": (dict(strategy="fused", packed=False), {}),
    "chunk": (dict(strategy="chunk"), {}),
    "chunk-unpacked": (dict(strategy="chunk", packed=False), {}),
    "storage": (dict(strategy="storage"), {}),
    "storage-unpacked": (dict(strategy="storage", packed=False), {}),
    "reuse-buffers": (dict(strategy="fused", reuse_buffers=True, num_buffers=2), {}),
    "prefetch": (dict(strategy="chunk", reuse_buffers=True, num_buffers=3), dict(prefetch=True)),
    "workers": (dict(strategy="fused"), dict(num_workers=2)),
    "workers-storage-prefetch": (dict(strategy="storage"), dict(num_workers=2, prefetch=True)),
    "baseline": (dict(strategy="baseline"), {}),
}


class TestInputSelection:
    """The trainer's loading pipeline assembles only the matrices its model reads."""

    def _trainer_epoch(self, file_backed, small_dataset, model_name, tier):
        store, labels = file_backed
        loader_kwargs, trainer_kwargs = SELECTION_TIERS[tier]
        loader = build_loader(store=store, labels=labels, batch_size=96, seed=3, **loader_kwargs)
        model = build_pp_model(
            model_name, small_dataset.num_features, small_dataset.num_classes, num_hops=2, seed=0
        )
        config = TrainerConfig(num_epochs=1, batch_size=96, seed=0, **trainer_kwargs)
        with PPGNNTrainer(model, loader, small_dataset, config) as trainer:
            return model, _materialize_epoch(trainer._source)

    @pytest.mark.parametrize("tier", sorted(SELECTION_TIERS))
    def test_sgc_batches_are_the_selected_slice(self, file_backed, small_dataset, tier):
        store, _ = file_backed
        model, batches = self._trainer_epoch(file_backed, small_dataset, "sgc", tier)
        assert model.inputs == range(store.num_matrices - 1, store.num_matrices)
        # the baseline pathology keeps collating every stored matrix
        wanted = range(store.num_matrices) if tier == "baseline" else model.inputs
        assert sum(rows.size for rows, _, _ in batches) == store.num_rows
        for rows, feats, _ in batches:
            expected = store.gather_packed(rows)[wanted.start : wanted.stop]
            got = np.stack(feats)
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("tier", ["fused", "workers"])
    @pytest.mark.parametrize("model_name", ["sign", "hoga"])
    def test_models_reading_every_hop_get_every_matrix(
        self, file_backed, small_dataset, model_name, tier
    ):
        store, _ = file_backed
        model, batches = self._trainer_epoch(file_backed, small_dataset, model_name, tier)
        assert model.inputs == range(store.num_matrices)
        for rows, feats, _ in batches:
            assert np.stack(feats).tobytes() == store.gather_packed(rows).tobytes()


class TestTrainerPrefetch:
    def _train(self, prepared_store, small_dataset, prefetch, **loader_kwargs):
        store = prepared_store.store
        labels = small_dataset.labels[store.node_ids]
        model = build_pp_model(
            "sign",
            in_features=small_dataset.num_features,
            num_classes=small_dataset.num_classes,
            num_hops=2,
            seed=0,
        )
        loader = build_loader("fused", store, labels, 256, seed=0, **loader_kwargs)
        config = TrainerConfig(num_epochs=3, batch_size=256, eval_every=3, seed=0, prefetch=prefetch)
        trainer = PPGNNTrainer(model, loader, small_dataset, config)
        history = trainer.fit()
        return history, trainer

    def test_prefetch_training_is_bit_identical(self, prepared_store, small_dataset):
        sync_history, _ = self._train(prepared_store, small_dataset, prefetch=False, packed=False)
        pf_history, trainer = self._train(
            prepared_store,
            small_dataset,
            prefetch=True,
            packed=True,
            reuse_buffers=True,
            num_buffers=3,
        )
        for a, b in zip(sync_history.records, pf_history.records):
            assert a.train_loss == b.train_loss
            assert a.valid_accuracy == b.valid_accuracy or (
                np.isnan(a.valid_accuracy) and np.isnan(b.valid_accuracy)
            )
        assert len(trainer.pipeline_results) == 3
        for result in trainer.pipeline_results:
            assert result.serial_seconds > 0
            assert result.pipelined_seconds > 0
            assert result.overlap_speedup > 0

    def test_vectorized_row_lookup_matches_node_order(self, prepared_store, small_dataset):
        _, trainer = self._train(prepared_store, small_dataset, prefetch=False)
        store = prepared_store.store
        some = store.node_ids[[0, 5, 17]]
        assert np.array_equal(trainer._rows_for(some), np.array([0, 5, 17]))
        with pytest.raises(KeyError):
            trainer._rows_for(np.array([int(store.node_ids.max()) + 1]))


class TestOverlapAccounting:
    def test_measured_overrides_model(self):
        result = overlap_from_recorded([1.0, 1.0], [1.0, 1.0], measured_seconds=2.5)
        assert result.serial_seconds == 4.0
        assert result.pipelined_seconds == 2.5

    def test_defaults_to_pipeline_model(self):
        result = overlap_from_recorded([1.0] * 4, [1.0] * 4)
        assert result.serial_seconds == 8.0
        assert result.pipelined_seconds == 5.0  # 1 load + 4 computes
        assert result.overlap_speedup == pytest.approx(1.6)

    def test_rejects_negative_measurement(self):
        with pytest.raises(ValueError):
            overlap_from_recorded([1.0], [1.0], measured_seconds=-1.0)
