"""Randomized fault-injection over the incremental-update path.

Seeded :meth:`FaultPlan.randomized` plans target the ``update.*`` fault
sites (journal appends, patch writes, version swaps) with transient errors.
The invariant is **zero silent corruption**: after every faulted attempt the
published version must still load, and its bytes must equal either the
pre-update store or the fully-updated store — never anything in between —
and a clean rerun of the same update must converge to the updated bytes
(resuming the journaled staging when one survived).

The deterministic SIGKILL matrix lives in ``test_updates.py``; this suite
covers the combinations nobody thought to enumerate.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.prepropagation.blocked import propagate_blocked
from repro.prepropagation.propagator import PropagationConfig
from repro.prepropagation.store import FeatureStore
from repro.resilience.faultinject import UPDATE_SITES, FaultPlan, InjectedFault
from repro.updates import (
    BASE_VERSION,
    UpdateError,
    VersionedStore,
    apply_update,
)
from test_updates import from_scratch, scenario_delta, scenario_graph

SEEDS = [0, 1, 2]

#: kill is exercised by the subprocess matrix in test_updates; leak (a skipped
#: patch write) is exercised deterministically there too, with verify_samples
#: high enough that the corruption cannot dodge the sample.  The randomized
#: sweep sticks to the transient kinds whose recovery contract is "resume".
CHAOS_KINDS = ("error", "ioerror")


@pytest.fixture(scope="module")
def chaos_scenario(tmp_path_factory):
    graph = scenario_graph(num_nodes=200, num_edges=1200)
    rng = np.random.default_rng(42)
    features = rng.standard_normal((200, 6)).astype(np.float32)
    node_ids = np.unique(rng.integers(0, 200, 120))
    config = PropagationConfig(num_hops=2)
    delta = scenario_delta(graph, seed=17, feature_dim=6)
    template = tmp_path_factory.mktemp("chaos-template") / "store"
    propagate_blocked(
        graph, features, config, node_ids=node_ids, root=template, block_size=50
    )
    before = np.asarray(
        propagate_blocked(
            graph, features, config, node_ids=node_ids, root=None, block_size=50
        )[0].packed_matrix()
    )
    from repro.updates import apply_delta, apply_features

    expected = from_scratch(
        apply_delta(graph, delta), apply_features(features, delta), config, node_ids
    )
    return {
        "graph": graph,
        "features": features,
        "config": config,
        "delta": delta,
        "template": template,
        "before_bytes": before.tobytes(),
        "expected_bytes": expected.tobytes(),
    }


def _fresh_store(scenario, tmp_path):
    import shutil

    root = tmp_path / "store"
    shutil.copytree(scenario["template"], root)
    return root


def _published_bytes(root) -> bytes:
    versions = VersionedStore(root)
    store = FeatureStore.load(versions.path_for(versions.current_version()))
    return np.asarray(store.packed_matrix()).tobytes()


@pytest.mark.parametrize("seed", SEEDS)
def test_randomized_update_faults_never_corrupt(chaos_scenario, tmp_path, seed):
    root = _fresh_store(chaos_scenario, tmp_path)
    plan = FaultPlan.randomized(
        seed, sites=UPDATE_SITES, kinds=CHAOS_KINDS, num_faults=2, max_hit=6
    )
    faulted_cleanly = False
    try:
        result = apply_update(
            root,
            chaos_scenario["graph"],
            chaos_scenario["features"],
            chaos_scenario["delta"],
            chaos_scenario["config"],
            fault_plan=plan,
        )
    except (OSError, InjectedFault, UpdateError):
        faulted_cleanly = True
    else:
        # the plan's trigger points were never reached: the update must have
        # completed correctly, not silently skipped work
        assert result.status == "applied"
        assert (
            np.asarray(result.store.packed_matrix()).tobytes()
            == chaos_scenario["expected_bytes"]
        )

    # invariant: the published version is always loadable and never torn
    versions = VersionedStore(root)
    current = versions.current_version()
    published = _published_bytes(root)
    if current == BASE_VERSION:
        assert published == chaos_scenario["before_bytes"]
    else:
        assert current == "v0001"
        assert published == chaos_scenario["expected_bytes"]

    # a clean rerun converges to the updated bytes (resuming if staging survived)
    rerun = apply_update(
        root,
        chaos_scenario["graph"],
        chaos_scenario["features"],
        chaos_scenario["delta"],
        chaos_scenario["config"],
    )
    assert rerun.status == "applied"
    assert rerun.version == "v0001"
    if faulted_cleanly and current == BASE_VERSION:
        # a faulted attempt that kept CURRENT on base must leave resumable
        # staging or nothing; either way the rerun's bytes are what counts
        pass
    assert (
        np.asarray(rerun.store.packed_matrix()).tobytes()
        == chaos_scenario["expected_bytes"]
    )
    assert versions.current_version() == "v0001"
    assert not versions.staging_root.exists()


@pytest.mark.parametrize("seed", SEEDS)
def test_two_rounds_of_faults_still_converge(chaos_scenario, tmp_path, seed):
    """Back-to-back faulted attempts (fresh randomized plan each) then a clean one."""
    root = _fresh_store(chaos_scenario, tmp_path)
    for round_index in range(2):
        plan = FaultPlan.randomized(
            seed * 100 + round_index,
            sites=UPDATE_SITES,
            kinds=CHAOS_KINDS,
            num_faults=1,
            max_hit=4,
        )
        try:
            apply_update(
                root,
                chaos_scenario["graph"],
                chaos_scenario["features"],
                chaos_scenario["delta"],
                chaos_scenario["config"],
                fault_plan=plan,
            )
        except (OSError, InjectedFault, UpdateError):
            pass
        # never torn, regardless of where the fault landed
        published = _published_bytes(root)
        assert published in (
            chaos_scenario["before_bytes"],
            chaos_scenario["expected_bytes"],
        )
    rerun = apply_update(
        root,
        chaos_scenario["graph"],
        chaos_scenario["features"],
        chaos_scenario["delta"],
        chaos_scenario["config"],
    )
    assert rerun.status == "applied" and rerun.version == "v0001"
    assert (
        np.asarray(rerun.store.packed_matrix()).tobytes()
        == chaos_scenario["expected_bytes"]
    )
