"""Tests for the multi-process loading subsystem (shm store + worker pool).

Load-bearing properties:

* **Equivalence** — for every strategy, in-memory and file-backed, a
  ``MultiProcessLoader`` yields bit-identical batches in the same
  deterministic order as iterating the wrapped loader directly, epoch after
  epoch (same RNG progression).
* **Lifecycle** — every shared-memory segment is unlinked after a normal
  close, after a consumer exception mid-epoch, and after a worker is
  SIGKILLed; the autouse ``no_leaked_shm_segments`` fixture in the root
  conftest enforces the ``/dev/shm`` side for the whole suite.
* **Failure surfacing** — a dead worker raises ``RuntimeError`` on the
  consumer instead of hanging the epoch.
"""

from __future__ import annotations

import gc
import glob
import json
import os
import signal
import time

import numpy as np
import pytest

from repro.dataloading import MultiProcessLoader, PrefetchLoader, build_loader
from repro.dataloading.shm import SHM_PREFIX, SharedPackedStore, attach_store
from repro.models.registry import build_pp_model
from repro.prepropagation.pipeline import PreprocessingPipeline
from repro.prepropagation.propagator import PropagationConfig
from repro.training.loop import PPGNNTrainer, TrainerConfig


def _materialize_epoch(loader):
    """Copy every batch out of the loader (views alias shared slots)."""
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


def _shm_entries() -> set:
    return set(glob.glob(f"/dev/shm/{SHM_PREFIX}-*"))


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


class TestEquivalence:
    @pytest.mark.parametrize("strategy", ["baseline", "fused", "chunk"])
    @pytest.mark.parametrize("num_workers", [1, 2, 3])
    def test_bit_identical_in_memory(self, store_and_labels, strategy, num_workers):
        store, labels = store_and_labels
        reference = build_loader(strategy, store, labels, 128, seed=3)
        expected = [_materialize_epoch(reference) for _ in range(2)]
        with MultiProcessLoader(
            build_loader(strategy, store, labels, 128, seed=3), num_workers=num_workers
        ) as loader:
            for epoch_batches in expected:  # multi-epoch RNG progression matches
                _assert_epochs_identical(epoch_batches, _materialize_epoch(loader))

    @pytest.mark.parametrize("strategy", ["baseline", "fused", "chunk"])
    def test_bit_identical_file_backed_hops(self, file_backed, strategy):
        store, labels = file_backed
        expected = _materialize_epoch(build_loader(strategy, store, labels, 128, seed=5))
        with MultiProcessLoader(
            build_loader(strategy, store, labels, 128, seed=5), num_workers=2
        ) as loader:
            _assert_epochs_identical(expected, _materialize_epoch(loader))

    @pytest.mark.parametrize("packed", [False, True], ids=["unpacked", "packed"])
    def test_bit_identical_storage(self, file_backed, packed):
        store, labels = file_backed
        expected = _materialize_epoch(
            build_loader("storage", store, labels, 128, seed=7, packed=packed)
        )
        with MultiProcessLoader(
            build_loader("storage", store, labels, 128, seed=7, packed=packed), num_workers=2
        ) as loader:
            _assert_epochs_identical(expected, _materialize_epoch(loader))

    def test_bit_identical_under_prefetch(self, store_and_labels):
        store, labels = store_and_labels
        expected = _materialize_epoch(build_loader("fused", store, labels, 96, seed=4))
        with MultiProcessLoader(
            build_loader("fused", store, labels, 96, seed=4), num_workers=2, keep=3
        ) as loader:
            _assert_epochs_identical(
                expected, _materialize_epoch(PrefetchLoader(loader, depth=1))
            )

    def test_epoch_after_early_break(self, store_and_labels):
        store, labels = store_and_labels
        with MultiProcessLoader(
            build_loader("fused", store, labels, 64, seed=0), num_workers=2
        ) as loader:
            for i, _ in enumerate(loader.epoch()):
                if i == 1:
                    break
            # abandoned-epoch slots are recycled; the next epoch is complete
            assert sum(b.batch_size for b in loader.epoch()) == store.num_rows


class TestInterface:
    def test_metadata_passthrough(self, store_and_labels):
        store, labels = store_and_labels
        inner = build_loader("chunk", store, labels, 64, seed=0)
        with MultiProcessLoader(inner, num_workers=2, keep=4) as loader:
            assert loader.store is store
            assert loader.batch_size == 64
            assert loader.num_batches() == inner.num_batches()
            assert loader.strategy_name == "chunk+mp2"
            assert loader.reuse_buffers is True
            assert loader.num_buffers == 4

    def test_build_loader_wraps_with_workers(self, store_and_labels):
        store, labels = store_and_labels
        with build_loader("fused", store, labels, 64, num_workers=2) as loader:
            assert isinstance(loader, MultiProcessLoader)
            assert loader.num_workers == 2
        with pytest.raises(ValueError, match="num_workers"):
            build_loader("fused", store, labels, 64, keep=4)  # keep needs workers

    def test_prefetch_rejects_undersized_keep_window(self, store_and_labels):
        store, labels = store_and_labels
        with MultiProcessLoader(
            build_loader("fused", store, labels, 64), num_workers=2, keep=2
        ) as loader:
            with pytest.raises(ValueError):
                PrefetchLoader(loader, depth=1)  # needs keep >= depth + 2 = 3

    def test_rejects_bad_parameters(self, store_and_labels):
        store, labels = store_and_labels
        inner = build_loader("fused", store, labels, 64)
        with pytest.raises(ValueError):
            MultiProcessLoader(inner, num_workers=0)
        with pytest.raises(ValueError):
            MultiProcessLoader(inner, num_workers=2, keep=1)
        with pytest.raises(ValueError):
            MultiProcessLoader(inner, num_workers=2, timeout_seconds=0)

    def test_rejects_double_wrapping(self, store_and_labels):
        store, labels = store_and_labels
        with MultiProcessLoader(
            build_loader("fused", store, labels, 64), num_workers=1
        ) as wrapped:
            # constructor-time rejection: no second worker pool, no opaque
            # AttributeError mid-epoch
            with pytest.raises(TypeError, match="already-wrapped"):
                MultiProcessLoader(wrapped, num_workers=1)
        with pytest.raises(TypeError, match="already-wrapped"):
            MultiProcessLoader(
                PrefetchLoader(build_loader("fused", store, labels, 64)), num_workers=1
            )

    def test_records_wait_and_assembly_times(self, store_and_labels):
        store, labels = store_and_labels
        with MultiProcessLoader(
            build_loader("fused", store, labels, 128, seed=0), num_workers=2
        ) as loader:
            n = sum(1 for _ in loader.epoch())
            assert len(loader.wait_times) == n
            assert len(loader.assembly_times) == n
            assert loader.stall_seconds() >= 0
            assert loader.timing.buckets["batch_assembly"] > 0


class TestLifecycle:
    def test_segments_unlinked_after_normal_exit(self, store_and_labels):
        store, labels = store_and_labels
        before = _shm_entries()
        with MultiProcessLoader(
            build_loader("fused", store, labels, 128, seed=0), num_workers=2
        ) as loader:
            created = _shm_entries() - before
            assert created, "in-memory store + slot ring should occupy /dev/shm"
            list(loader.epoch())
        assert _shm_entries() - before == set()

    def test_segments_unlinked_after_consumer_exception_mid_epoch(self, store_and_labels):
        store, labels = store_and_labels
        before = _shm_entries()
        with pytest.raises(RuntimeError, match="consumer blew up"):
            with MultiProcessLoader(
                build_loader("fused", store, labels, 128, seed=0), num_workers=2
            ) as loader:
                for _ in loader.epoch():
                    raise RuntimeError("consumer blew up")
        assert _shm_entries() - before == set()

    def test_segments_unlinked_after_sigkilled_worker(self, store_and_labels):
        store, labels = store_and_labels
        before = _shm_entries()
        with MultiProcessLoader(
            build_loader("fused", store, labels, 128, seed=0), num_workers=2
        ) as loader:
            victim = loader._processes[0]
            os.kill(victim.pid, signal.SIGKILL)
            deadline = time.monotonic() + 5.0
            while victim.is_alive() and time.monotonic() < deadline:
                time.sleep(0.01)
            with pytest.raises(RuntimeError, match="died with exit code"):
                list(loader.epoch())
        assert _shm_entries() - before == set()

    def test_worker_exception_is_surfaced(self, store_and_labels):
        store, labels = store_and_labels
        loader = MultiProcessLoader(
            build_loader("fused", store, labels, 128, seed=0), num_workers=2
        )
        try:
            # out-of-range rows make every worker's bounds check raise
            loader.loader.epoch_schedule = lambda: _bad_schedule(store.num_rows)
            with pytest.raises(RuntimeError, match="raised during batch assembly"):
                list(loader.epoch())
        finally:
            loader.close()

    def test_finalizer_cleans_up_without_close(self, store_and_labels):
        store, labels = store_and_labels
        before = _shm_entries()
        loader = MultiProcessLoader(
            build_loader("fused", store, labels, 128, seed=0), num_workers=2
        )
        assert _shm_entries() - before
        del loader  # no close(): the weakref.finalize fallback must fire
        gc.collect()
        assert _shm_entries() - before == set()

    def test_generator_finalization_after_close_is_silent(self, store_and_labels):
        store, labels = store_and_labels
        loader = MultiProcessLoader(build_loader("fused", store, labels, 128), num_workers=2)
        iterator = loader.epoch()
        next(iterator)
        loader.close()
        iterator.close()  # finally-block slot recycling must not raise on closed queues

    def test_epoch_after_close_raises(self, store_and_labels):
        store, labels = store_and_labels
        loader = MultiProcessLoader(build_loader("fused", store, labels, 128), num_workers=2)
        loader.close()
        loader.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            next(loader.epoch())

    def test_shared_store_is_zero_copy_for_file_backed(self, file_backed):
        store, _ = file_backed
        before = _shm_entries()
        with SharedPackedStore(store) as shared:
            assert shared.handle.shm_name is None
            assert shared.handle.root == str(store.root)
            assert _shm_entries() - before == set()  # map_store attach: no segment

    def test_worker_attach_rejects_a_torn_store(self, file_backed):
        """Workers open a file-backed store through ``map_store``, so a store
        whose files disagree with its ``meta.json`` fails at attach, not mid-gather."""
        store, _ = file_backed
        with SharedPackedStore(store) as shared:
            attached = attach_store(shared.handle)
            rows = np.array([3, 0, 7], dtype=np.int64)
            out = np.empty((store.num_matrices, rows.size, store.feature_dim), dtype=store.dtype)
            attached.gather_into(rows, out)
            assert np.array_equal(out, store.gather_packed(rows))
            attached.close()
            meta_path = store.root / "meta.json"
            meta = json.loads(meta_path.read_text())
            meta["num_rows"] += 1
            meta_path.write_text(json.dumps(meta))
            with pytest.raises(ValueError, match="torn"):
                attach_store(shared.handle)


def _bad_schedule(num_rows):
    from repro.dataloading.batching import BatchSchedule

    rows = np.array([num_rows + 100], dtype=np.int64)
    return BatchSchedule(
        batches=[rows], chunk_runs=[[(num_rows + 100, num_rows + 101)]], method="rr", chunk_size=1
    )


class TestTrainerIntegration:
    def _train(self, prepared_store, small_dataset, **config_kwargs):
        store = prepared_store.store
        labels = small_dataset.labels[store.node_ids]
        model = build_pp_model(
            "sign",
            in_features=small_dataset.num_features,
            num_classes=small_dataset.num_classes,
            num_hops=2,
            seed=0,
        )
        loader = build_loader("fused", store, labels, 256, seed=0)
        config = TrainerConfig(
            num_epochs=3, batch_size=256, eval_every=3, seed=0, **config_kwargs
        )
        trainer = PPGNNTrainer(model, loader, small_dataset, config)
        try:
            history = trainer.fit()
        finally:
            trainer.close()
        return history, trainer

    @pytest.mark.parametrize("prefetch", [False, True])
    def test_training_bit_identical_with_workers(self, prepared_store, small_dataset, prefetch):
        reference, _ = self._train(prepared_store, small_dataset)
        multiproc, trainer = self._train(
            prepared_store, small_dataset, num_workers=2, prefetch=prefetch
        )
        for a, b in zip(reference.records, multiproc.records):
            assert a.train_loss == b.train_loss
            assert a.valid_accuracy == b.valid_accuracy or (
                np.isnan(a.valid_accuracy) and np.isnan(b.valid_accuracy)
            )
        assert trainer._mp_loader is not None

    def test_trainer_reports_stalls_not_assembly(self, prepared_store, small_dataset):
        history, trainer = self._train(prepared_store, small_dataset, num_workers=2)
        visible = sum(r.data_loading_seconds for r in history.records)
        assert visible == pytest.approx(trainer._mp_loader.stall_seconds(), abs=1e-6)

    def test_config_rejects_negative_workers(self):
        with pytest.raises(ValueError):
            TrainerConfig(num_workers=-1)
