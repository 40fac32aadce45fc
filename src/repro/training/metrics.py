"""Training history bookkeeping and the paper's convergence-point metric."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional


@dataclass
class EpochRecord:
    """Metrics collected after one training epoch."""

    epoch: int
    train_loss: float
    valid_accuracy: float
    test_accuracy: Optional[float] = None
    epoch_seconds: float = 0.0
    data_loading_seconds: float = 0.0
    # what the self-healing loader supervisor did during this epoch
    # (deltas of repro.resilience.supervisor.ResilienceCounters; all zero
    # when loading is in-process or nothing failed)
    loader_respawns: int = 0
    loader_requeued_batches: int = 0
    loader_inline_batches: int = 0


@dataclass
class TrainingHistory:
    """Accumulated per-epoch records of one training run."""

    records: List[EpochRecord] = field(default_factory=list)

    def append(self, record: EpochRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def valid_curve(self) -> List[float]:
        return [r.valid_accuracy for r in self.records]

    def peak_valid_accuracy(self) -> float:
        if not self.records:
            return float("nan")
        return max(self.valid_curve)

    def best_epoch(self) -> int:
        """Epoch index (0-based) with the highest validation accuracy."""
        if not self.records:
            raise ValueError("empty history")
        curve = self.valid_curve
        return int(max(range(len(curve)), key=curve.__getitem__))

    def test_accuracy_at_best(self) -> Optional[float]:
        """Test accuracy at the best-validation epoch (the paper's protocol)."""
        if not self.records:
            return None
        return self.records[self.best_epoch()].test_accuracy

    def convergence_epoch(self, fraction: float = 0.99) -> Optional[int]:
        """See :func:`convergence_point`."""
        return convergence_point(self.valid_curve, fraction=fraction)

    def total_seconds(self) -> float:
        return float(sum(r.epoch_seconds for r in self.records))


def convergence_point(valid_curve: List[float], fraction: float = 0.99) -> Optional[int]:
    """First epoch reaching ``fraction`` of the curve's peak validation accuracy.

    This is the convergence metric of Figure 3/10: "the epoch where each model
    first reaches 99 % of its peak validation accuracy".  Returns ``None`` for
    an empty curve.  Epochs are 1-based to match the paper's plots.
    """
    if not valid_curve:
        return None
    if not 0 < fraction <= 1:
        raise ValueError("fraction must be in (0, 1]")
    peak = max(valid_curve)
    threshold = fraction * peak
    for epoch, value in enumerate(valid_curve, start=1):
        if value >= threshold:
            return epoch
    return None
