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
    # PP-GNNs converge no slower than the sampled MP-GNN by a wide margin.
    pp_best = min(rows["HOGA"]["convergence_epoch"], rows["SIGN"]["convergence_epoch"])
    assert pp_best <= rows["SAGE-LABOR"]["convergence_epoch"] + 5
    print("\n" + fig3_convergence.format_result(result))
