"""Quickstart: train a pre-propagation GNN and serve predictions from it.

Steps (the same workflow the paper's artifact describes, plus serving):

1. open a node-classification dataset (a synthetic replica of ogbn-products);
2. run the one-time pre-propagation step (Eq. 2 of the paper);
3. train SIGN and report validation/test accuracy and the convergence point;
4. stand up the online serving tier and answer node-id queries from the
   trained model through the coalescing dispatcher.

Everything runs inside one ``repro.Session``, which owns the lifecycle of
every stage — no manual ``close()`` anywhere.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro import ServingConfig, Session


def main() -> None:
    # 1) Dataset: a scaled-down replica of ogbn-products (47 classes, 100 features).
    with Session("products", num_nodes=6000, seed=0) as session:
        print("dataset:", session.dataset.summary())

        # 2) One-time preprocessing: 3 hops of the normalized adjacency operator.
        result = session.preprocess(num_hops=3)
        print(
            f"preprocessing took {result.wall_seconds:.2f}s, "
            f"input expanded x{result.expansion_factor:.0f} "
            f"({result.expanded_feature_bytes / 1e6:.1f} MB for {result.labeled_rows} labeled nodes)"
        )

        # 3) Train SIGN and evaluate (fused loader is the session default).
        trainer = session.trainer(
            "sign", num_epochs=30, batch_size=512, learning_rate=0.01, log_every=10
        )
        history = trainer.fit()
        print(f"peak validation accuracy: {history.peak_valid_accuracy():.4f}")
        print(f"test accuracy at best epoch: {history.test_accuracy_at_best():.4f}")
        print(f"convergence point (99% of peak val acc): epoch {history.convergence_epoch()}")
        print(
            f"total training time: {history.total_seconds():.1f}s "
            f"(data loading {sum(r.data_loading_seconds for r in history.records):.1f}s)"
        )

        # 4) Serve: node-id queries coalesced into one gather per dispatch from
        #    the in-RAM store, bit-identical to direct store gathers.
        engine = session.serve(ServingConfig(max_pending=1024), model=trainer.model)
        test_rows = np.arange(16)
        predictions = engine.predict(test_rows)
        print(f"served predictions for rows {test_rows[:5].tolist()}...: {predictions[:5].tolist()}")
        engine.query(test_rows)  # coalesced path, records per-request latency
        latencies = engine.drain_latencies()
        print(
            f"serving stats: {engine.snapshot()}, "
            f"p50 latency {np.percentile(latencies, 50) * 1e3:.2f} ms"
        )


if __name__ == "__main__":
    main()
