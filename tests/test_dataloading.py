"""Tests for batch schedules, the real loaders and their equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dataloading import (
    BaselineLoader,
    ChunkReshuffleLoader,
    FusedLoader,
    StorageLoader,
    build_loader,
    chunk_reshuffle_schedule,
    sgd_rr_schedule,
)
from repro.dataloading.batching import schedule_for_method
from repro.prepropagation.pipeline import PreprocessingPipeline
from repro.prepropagation.propagator import PropagationConfig


class TestSchedules:
    def test_rr_schedule_is_permutation(self):
        schedule = sgd_rr_schedule(100, batch_size=32, seed=0)
        merged = np.concatenate(schedule.batches)
        assert np.array_equal(np.sort(merged), np.arange(100))
        assert schedule.method == "rr"

    def test_rr_schedule_differs_across_seeds(self):
        a = sgd_rr_schedule(50, 50, seed=0).batches[0]
        b = sgd_rr_schedule(50, 50, seed=1).batches[0]
        assert not np.array_equal(a, b)

    def test_rr_drop_last(self):
        schedule = sgd_rr_schedule(100, batch_size=33, drop_last=True, seed=0)
        assert all(b.size == 33 for b in schedule.batches)

    def test_cr_schedule_is_permutation(self):
        schedule = chunk_reshuffle_schedule(100, batch_size=25, chunk_size=10, seed=0)
        merged = np.concatenate(schedule.batches)
        assert np.array_equal(np.sort(merged), np.arange(100))
        assert schedule.method == "cr"

    def test_cr_chunk_equal_batch_gives_single_run(self):
        schedule = chunk_reshuffle_schedule(1000, batch_size=100, chunk_size=100, seed=0)
        assert all(len(runs) == 1 for runs in schedule.chunk_runs)

    def test_cr_chunk_one_equals_rr(self):
        schedule = chunk_reshuffle_schedule(100, batch_size=10, chunk_size=1, seed=0)
        assert schedule.method == "rr"

    def test_rr_has_many_runs_per_batch(self):
        rr = sgd_rr_schedule(5000, batch_size=500, seed=0)
        cr = chunk_reshuffle_schedule(5000, batch_size=500, chunk_size=500, seed=0)
        runs_per_batch = [np.mean([len(runs) for runs in s.chunk_runs]) for s in (rr, cr)]
        assert runs_per_batch[0] > 50 * runs_per_batch[1]

    def test_chunk_runs_reconstruct_batches(self):
        schedule = chunk_reshuffle_schedule(97, batch_size=20, chunk_size=10, seed=3)
        for batch, runs in zip(schedule.batches, schedule.chunk_runs):
            rebuilt = np.concatenate([np.arange(a, b) for a, b in runs])
            assert np.array_equal(rebuilt, batch)

    def test_schedule_for_method_dispatch(self):
        assert schedule_for_method("rr", 10, 5).method == "rr"
        assert schedule_for_method("SGD-CR", 10, 5, chunk_size=5).method == "cr"
        with pytest.raises(ValueError):
            schedule_for_method("bogus", 10, 5)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            sgd_rr_schedule(10, 0)
        with pytest.raises(ValueError):
            chunk_reshuffle_schedule(10, 5, 0)


class TestLoaders:
    @pytest.fixture()
    def store_and_labels(self, prepared_store, small_dataset):
        store = prepared_store.store
        labels = small_dataset.labels[store.node_ids]
        return store, labels

    def test_all_loaders_yield_identical_row_content(self, store_and_labels):
        """Every assembly strategy must deliver the same per-row feature data."""
        store, labels = store_and_labels
        loaders = {
            "baseline": BaselineLoader(store, labels, batch_size=128, seed=0),
            "fused": FusedLoader(store, labels, batch_size=128, seed=0),
        }
        reference = {}
        for name, loader in loaders.items():
            batches = list(loader.epoch())
            for batch in batches:
                for row, label in zip(batch.row_indices, batch.labels):
                    if row in reference:
                        assert reference[row][1] == label
                    else:
                        reference[row] = (name, label)
            # verify feature content equals a direct gather
            sample = batches[0]
            direct = store.gather(sample.row_indices)
            for got, want in zip(sample.hop_features, direct):
                assert np.allclose(got, want)

    def test_chunk_loader_batches_match_store_rows(self, store_and_labels):
        store, labels = store_and_labels
        loader = ChunkReshuffleLoader(store, labels, batch_size=128, chunk_size=128, seed=0)
        seen = []
        for batch in loader.epoch():
            direct = store.gather(batch.row_indices)
            for got, want in zip(batch.hop_features, direct):
                assert np.allclose(got, want)
            seen.append(batch.row_indices)
        merged = np.concatenate(seen)
        assert np.array_equal(np.sort(merged), np.arange(store.num_rows))

    def test_loader_epoch_covers_every_row_once(self, store_and_labels):
        store, labels = store_and_labels
        loader = FusedLoader(store, labels, batch_size=200, seed=1)
        merged = np.concatenate([b.row_indices for b in loader.epoch()])
        assert merged.size == store.num_rows
        assert len(np.unique(merged)) == store.num_rows

    def test_rr_epoch_builds_no_run_lists(self, store_and_labels, monkeypatch):
        """Only the SGD-CR loaders read the schedule's runs; an RR epoch never builds them."""
        from repro.dataloading import batching

        store, labels = store_and_labels
        calls = []
        runs_from_indices = batching._runs_from_indices

        def counting(indices):
            calls.append(indices.size)
            return runs_from_indices(indices)

        monkeypatch.setattr(batching, "_runs_from_indices", counting)
        for packed in (True, False):
            list(FusedLoader(store, labels, batch_size=128, seed=0, packed=packed).epoch())
        assert calls == []
        chunk = ChunkReshuffleLoader(store, labels, batch_size=128, seed=0)
        assert sum(1 for _ in chunk.epoch()) == len(calls) == chunk.num_batches()
        # on demand the RR runs are still there, built once per schedule
        rr = sgd_rr_schedule(store.num_rows, 128, seed=0)
        assert len(rr.chunk_runs[0]) > 1 and rr.chunk_runs is rr.chunk_runs

    def test_loader_records_assembly_time(self, store_and_labels):
        store, labels = store_and_labels
        loader = FusedLoader(store, labels, batch_size=256, seed=0)
        list(loader.epoch())
        assert loader.timing.buckets["batch_assembly"] > 0

    def test_baseline_slower_than_fused(self, store_and_labels):
        """The per-row loader's wall time exceeds the fused loader's on the same data."""
        store, labels = store_and_labels
        baseline = BaselineLoader(store, labels, batch_size=512, seed=0)
        fused = FusedLoader(store, labels, batch_size=512, seed=0)
        list(baseline.epoch())
        list(fused.epoch())
        assert (
            baseline.timing.buckets["batch_assembly"]
            > fused.timing.buckets["batch_assembly"]
        )

    def test_labels_length_mismatch_raises(self, store_and_labels):
        store, labels = store_and_labels
        with pytest.raises(ValueError):
            FusedLoader(store, labels[:-1], batch_size=32)

    def test_chunk_loader_requires_cr(self, store_and_labels):
        store, labels = store_and_labels
        with pytest.raises(ValueError):
            ChunkReshuffleLoader(store, labels, batch_size=32, method="rr")

    def test_storage_loader_requires_file_backing(self, store_and_labels):
        store, labels = store_and_labels
        with pytest.raises(ValueError):
            StorageLoader(store, labels, batch_size=32)

    def test_storage_loader_round_trip(self, small_dataset, tmp_path):
        result = PreprocessingPipeline(PropagationConfig(num_hops=1), root=tmp_path / "fs").run(small_dataset)
        labels = small_dataset.labels[result.store.node_ids]
        loader = StorageLoader(result.store, labels, batch_size=256, seed=0)
        batches = list(loader.epoch())
        assert sum(b.batch_size for b in batches) == result.store.num_rows
        direct = result.store.gather(batches[0].row_indices)
        assert np.allclose(batches[0].hop_features[0], direct[0])

    def test_build_loader_dispatch(self, store_and_labels):
        store, labels = store_and_labels
        assert isinstance(build_loader("baseline", store, labels, 64), BaselineLoader)
        assert isinstance(build_loader("fused", store, labels, 64), FusedLoader)
        assert isinstance(build_loader("chunk", store, labels, 64), ChunkReshuffleLoader)
        with pytest.raises(KeyError):
            build_loader("magic", store, labels, 64)

    def test_batch_nbytes(self, store_and_labels):
        store, labels = store_and_labels
        loader = FusedLoader(store, labels, batch_size=64, seed=0)
        batch = next(iter(loader.epoch()))
        assert batch.nbytes() == sum(m.nbytes for m in batch.hop_features)


@settings(max_examples=30, deadline=None)
@given(
    num_rows=st.integers(min_value=1, max_value=500),
    batch_size=st.integers(min_value=1, max_value=64),
    chunk_size=st.integers(min_value=1, max_value=64),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_property_chunk_schedule_visits_every_row_once(num_rows, batch_size, chunk_size, seed):
    """Chunk reshuffling is a permutation of the rows regardless of parameters."""
    schedule = chunk_reshuffle_schedule(num_rows, batch_size, chunk_size, seed=seed)
    merged = (
        np.concatenate(schedule.batches) if schedule.batches else np.array([], dtype=np.int64)
    )
    assert merged.size == num_rows
    assert np.array_equal(np.sort(merged), np.arange(num_rows))


@settings(max_examples=30, deadline=None)
@given(
    num_rows=st.integers(min_value=10, max_value=500),
    batch_size=st.integers(min_value=1, max_value=64),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_property_chunk_runs_are_contiguous_and_disjoint(num_rows, batch_size, seed):
    """Each batch's runs are non-overlapping ascending ranges covering the batch."""
    schedule = chunk_reshuffle_schedule(num_rows, batch_size, chunk_size=batch_size, seed=seed)
    for batch, runs in zip(schedule.batches, schedule.chunk_runs):
        total = 0
        for start, stop in runs:
            assert stop > start
            total += stop - start
        assert total == batch.size
