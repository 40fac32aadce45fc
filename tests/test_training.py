"""Tests for trainers, convergence metrics, breakdown and multi-GPU scaling."""

import numpy as np
import pytest

from repro.dataloading.cost_model import ModelComputeProfile, STRATEGY_PRESETS
from repro.dataloading.loaders import ChunkReshuffleLoader, FusedLoader
from repro.datasets.catalog import PAPER_DATASETS
from repro.hardware import paper_server
from repro.models import build_mp_model, build_pp_model
from repro.sampling import LaborSampler
from repro.training import (
    MPGNNTrainer,
    MultiGpuSimulator,
    PPGNNTrainer,
    TrainerConfig,
    convergence_point,
    measure_pp_breakdown,
)
from repro.training.metrics import EpochRecord, TrainingHistory


class TestConvergenceMetric:
    def test_basic(self):
        curve = [0.1, 0.5, 0.79, 0.8, 0.8]
        # 99 % of the peak (0.8) is 0.792; epoch 4 is the first to reach it.
        assert convergence_point(curve, fraction=0.99) == 4
        assert convergence_point(curve, fraction=0.95) == 3

    def test_reaches_at_first_epoch(self):
        assert convergence_point([0.9, 0.9, 0.9]) == 1

    def test_empty_curve(self):
        assert convergence_point([]) is None

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            convergence_point([0.5], fraction=0.0)

    def test_history_helpers(self):
        history = TrainingHistory()
        for epoch, (loss, valid, test) in enumerate(
            [(1.0, 0.3, 0.25), (0.5, 0.6, 0.55), (0.4, 0.55, 0.5)], start=1
        ):
            history.append(EpochRecord(epoch, loss, valid, test, epoch_seconds=0.1))
        assert history.peak_valid_accuracy() == 0.6
        assert history.best_epoch() == 1
        assert history.test_accuracy_at_best() == 0.55
        assert history.convergence_epoch() == 2
        assert history.total_seconds() == pytest.approx(0.3)

    def test_history_empty(self):
        history = TrainingHistory()
        assert np.isnan(history.peak_valid_accuracy())
        with pytest.raises(ValueError):
            history.best_epoch()


class TestTrainerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainerConfig(num_epochs=0)
        with pytest.raises(ValueError):
            TrainerConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainerConfig(optimizer="lbfgs")

    def test_optimizer_factory(self):
        from repro.tensor.optim import Adam, SGD
        from repro.tensor.parameter import Parameter

        params = [Parameter(np.zeros(2))]
        assert isinstance(TrainerConfig(optimizer="adam").build_optimizer(params), Adam)
        assert isinstance(TrainerConfig(optimizer="sgd").build_optimizer(params), SGD)


class TestPPGNNTrainer:
    def _trainer(self, prepared_store, small_dataset, model_name="sign", epochs=4, loader_cls=FusedLoader):
        store = prepared_store.store
        labels = small_dataset.labels[store.node_ids]
        model = build_pp_model(model_name, small_dataset.num_features, small_dataset.num_classes, num_hops=2, seed=0)
        loader = loader_cls(store, labels, batch_size=256, seed=0)
        config = TrainerConfig(num_epochs=epochs, batch_size=256, learning_rate=0.01, seed=0)
        return PPGNNTrainer(model, loader, small_dataset, config)

    def test_fit_improves_validation_accuracy(self, prepared_store, small_dataset):
        trainer = self._trainer(prepared_store, small_dataset, epochs=6)
        history = trainer.fit()
        num_classes = small_dataset.num_classes
        assert history.peak_valid_accuracy() > 1.5 / num_classes
        assert history.records[-1].train_loss < history.records[0].train_loss

    def test_history_records_timings(self, prepared_store, small_dataset):
        trainer = self._trainer(prepared_store, small_dataset, epochs=2)
        history = trainer.fit()
        assert all(r.epoch_seconds > 0 for r in history.records)
        assert all(r.data_loading_seconds >= 0 for r in history.records)

    def test_evaluate_returns_both_splits(self, prepared_store, small_dataset):
        trainer = self._trainer(prepared_store, small_dataset, epochs=1)
        metrics = trainer.evaluate()
        assert set(metrics) == {"valid", "test"}
        assert 0.0 <= metrics["valid"] <= 1.0

    @pytest.mark.parametrize("model_name", ["sgc", "sign"])
    def test_evaluate_reads_only_model_inputs_and_matches_full_gather(
        self, prepared_store, small_dataset, model_name, monkeypatch
    ):
        trainer = self._trainer(prepared_store, small_dataset, model_name=model_name, epochs=1)
        trainer.train_epoch()
        store = prepared_store.store
        gather = store.gather
        widths = []

        def counting_gather(rows, **kwargs):
            feats = gather(rows, **kwargs)
            widths.append(len(feats))
            return feats

        monkeypatch.setattr(store, "gather", counting_gather)
        metrics = trainer.evaluate()
        assert set(widths) == {len(trainer.model.inputs)}
        monkeypatch.undo()
        # reference: every stored matrix gathered, the model picks its inputs
        trainer.model.eval()
        for split, rows in trainer._eval_rows.items():
            assert rows.size <= trainer.config.eval_batch_size  # one chunk, same arithmetic
            logits = trainer.model(store.gather(rows))
            correct = np.argmax(logits.data, axis=-1) == trainer._store_labels[rows]
            assert metrics[split] == correct.sum() / rows.size

    def test_model_must_match_the_store(self, prepared_store, small_dataset):
        """A model shaped for another store is refused before any input selection."""
        store = prepared_store.store
        labels = small_dataset.labels[store.node_ids]
        model = build_pp_model("sgc", small_dataset.num_features, small_dataset.num_classes, num_hops=1)
        loader = FusedLoader(store, labels, batch_size=256, seed=0)
        with pytest.raises(ValueError, match="expects 2 hop matrices, the store holds 3"):
            PPGNNTrainer(model, loader, small_dataset, TrainerConfig(batch_size=256))
        assert loader.inputs == range(3)

    def test_chunk_reshuffle_trainer_accuracy_close_to_rr(self, prepared_store, small_dataset):
        """SGD-CR must train to comparable validation accuracy as SGD-RR (Fig. 8)."""
        rr = self._trainer(prepared_store, small_dataset, epochs=6, loader_cls=FusedLoader).fit()
        cr = self._trainer(prepared_store, small_dataset, epochs=6, loader_cls=ChunkReshuffleLoader).fit()
        assert abs(rr.peak_valid_accuracy() - cr.peak_valid_accuracy()) < 0.1

    def test_breakdown_measurement(self, prepared_store, small_dataset):
        store = prepared_store.store
        labels = small_dataset.labels[store.node_ids]
        from repro.dataloading.loaders import BaselineLoader

        model = build_pp_model("sgc", small_dataset.num_features, small_dataset.num_classes, num_hops=2, seed=0)
        baseline_loader = BaselineLoader(store, labels, batch_size=256, seed=0)
        baseline = measure_pp_breakdown(model, baseline_loader, small_dataset, num_epochs=1, batch_size=256)
        fractions = baseline.fractions()
        assert pytest.approx(sum(fractions.values()), abs=1e-9) == 1.0
        assert baseline.data_loading_fraction > 0.1

        # The fused loader must shrink the data-loading share (Figure 6a vs 6b).
        model2 = build_pp_model("sgc", small_dataset.num_features, small_dataset.num_classes, num_hops=2, seed=0)
        fused_loader = FusedLoader(store, labels, batch_size=256, seed=0)
        fused = measure_pp_breakdown(model2, fused_loader, small_dataset, num_epochs=1, batch_size=256)
        assert fused.data_loading_fraction < baseline.data_loading_fraction


class TestMPGNNTrainer:
    def test_fit_learns_something(self, small_pokec):
        model = build_mp_model("sage", small_pokec.num_features, small_pokec.num_classes, num_layers=2, seed=0)
        sampler = LaborSampler([5, 5])
        config = TrainerConfig(num_epochs=3, batch_size=256, learning_rate=0.01, seed=0)
        trainer = MPGNNTrainer(model, sampler, small_pokec, config)
        history = trainer.fit()
        assert history.peak_valid_accuracy() > 0.5  # better than random on 2 classes
        assert history.records[-1].train_loss <= history.records[0].train_loss

    def test_timing_buckets_populated(self, small_pokec):
        model = build_mp_model("sage", small_pokec.num_features, small_pokec.num_classes, num_layers=2, seed=0)
        trainer = MPGNNTrainer(model, LaborSampler([4, 4]), small_pokec, TrainerConfig(num_epochs=1, batch_size=256))
        trainer.fit()
        assert trainer.timing.buckets["sampling"] > 0
        assert trainer.timing.buckets["forward"] > 0


class TestMultiGpuSimulator:
    def test_throughput_increases_with_gpus(self):
        hw = paper_server(4)
        sim = MultiGpuSimulator(hw)
        info = PAPER_DATASETS["papers100m"]
        model = build_pp_model("sign", info.num_features, info.num_classes, num_hops=3, seed=0)
        profile = ModelComputeProfile.from_model(model, name="sign")
        result = sim.evaluate(info, profile, STRATEGY_PRESETS["gpu_rr"], hops=3, gpu_counts=(1, 2, 4))
        assert result.throughput[4] > result.throughput[2] > result.throughput[1]

    def test_scaling_is_sublinear(self):
        """All-reduce and shared links keep scaling below ideal (as in Table 3)."""
        hw = paper_server(4)
        sim = MultiGpuSimulator(hw)
        info = PAPER_DATASETS["igb-medium"]
        model = build_pp_model("sign", info.num_features, info.num_classes, num_hops=2, seed=0)
        profile = ModelComputeProfile.from_model(model, name="sign")
        result = sim.evaluate(info, profile, STRATEGY_PRESETS["host_cr"], hops=2, gpu_counts=(1, 4))
        assert result.speedup()[4] < 4.0

    def test_gpu_counts_beyond_hardware_skipped(self):
        sim = MultiGpuSimulator(paper_server(2))
        info = PAPER_DATASETS["products"]
        model = build_pp_model("sgc", info.num_features, info.num_classes, num_hops=2, seed=0)
        profile = ModelComputeProfile.from_model(model, name="sgc")
        result = sim.evaluate(info, profile, STRATEGY_PRESETS["gpu_rr"], hops=2, gpu_counts=(1, 2, 4))
        assert 4 not in result.throughput

    def test_speedup_requires_baseline(self):
        from repro.training.multi_gpu import ScalingResult

        with pytest.raises(ValueError):
            ScalingResult("x", {2: 1.0}).speedup(baseline_gpus=1)
