"""Zero-downtime incremental updates: delta semantics, crash-safe re-propagation,
versioned swap, and serving epoch protection.

The load-bearing guarantees under test:

* **Bit identity** — an incremental update's store is byte-for-byte equal to
  a from-scratch blocked re-propagation of the updated graph (chained across
  versions, in-memory and file-backed).
* **Crash safety** — a SIGKILL at any journaled phase leaves the published
  version untouched; rerunning the same update resumes (or restarts) and
  converges to the same bytes.  Silent patch corruption (an injected skipped
  write) is caught by post-patch verification and rolled back.
* **Epoch protection** — a serving engine answers every request from one
  pinned store version; an atomic swap flips every path to the new version,
  and a failed swap degrades to serving the old version (surfaced in
  ``health()``), never a torn one.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.builders import from_edge_index, symmetrize
from repro.graph.csr import CSRGraph
from repro.graph.operators import PartialOperator
from repro.graph.operators import operator_radius
from repro.prepropagation.blocked import propagate_blocked
from repro.prepropagation.propagator import PropagationConfig
from repro.prepropagation.store import FeatureStore
from repro.resilience.checkpoint import run_parts
from repro.resilience.faultinject import (
    KNOWN_SITES,
    UPDATE_SITES,
    FaultPlan,
    FaultSpec,
    assert_known_sites,
)
from repro.resilience.janitor import orphaned_segments
from repro.serving import ServingConfig, ServingEngine
from repro.updates import (
    BASE_VERSION,
    GraphDelta,
    UpdateSwapError,
    UpdateVerificationError,
    VersionedStore,
    affected_frontier,
    apply_delta,
    apply_features,
    apply_memory_update,
    apply_update,
    compute_patches,
)

SRC_ROOT = Path(__file__).resolve().parent.parent / "src"


# --------------------------------------------------------------------------- #
# scenario helpers
# --------------------------------------------------------------------------- #
def scenario_graph(seed: int = 3, num_nodes: int = 400, num_edges: int = 2600):
    rng = np.random.default_rng(seed)
    edges = np.stack(
        [rng.integers(0, num_nodes, num_edges), rng.integers(0, num_nodes, num_edges)],
        axis=1,
    )
    return symmetrize(from_edge_index(edges, num_nodes=num_nodes, name="scenario"))


def scenario_delta(graph, seed: int = 11, feature_dim: int = 0) -> GraphDelta:
    """Edge churn plus (optionally) feature overwrites, all in-range."""
    rng = np.random.default_rng(seed)
    n = graph.num_nodes
    insertions = np.stack([rng.integers(0, n, 10), rng.integers(0, n, 10)], axis=1)
    src = np.repeat(np.arange(n), np.diff(graph.indptr))
    picked = rng.choice(graph.indices.size, 5, replace=False)
    deletions = np.stack([src[picked], graph.indices[picked]], axis=1)
    kwargs = {}
    if feature_dim:
        nodes = np.unique(rng.integers(0, n, 4))
        kwargs = {
            "feature_nodes": nodes,
            "feature_values": rng.standard_normal((nodes.size, feature_dim)).astype(
                np.float32
            ),
        }
    return GraphDelta(insertions=insertions, deletions=deletions, **kwargs)


def update_parts(graph, features, delta, config, node_ids):
    """The parts an update's fingerprint digests: the run's identity plus its delta."""
    return {**run_parts(graph, features, config, node_ids), "delta": delta.fingerprint()}


def from_scratch(graph, features, config, node_ids):
    store, _ = propagate_blocked(
        graph, features, config, node_ids=node_ids, root=None, block_size=100
    )
    return np.asarray(store.packed_matrix())


@st.composite
def small_graphs(draw, directed=False, num_nodes=None):
    """Random graphs of up to 24 nodes; nodes from ``linked`` on are isolated."""
    if num_nodes is None:
        num_nodes = draw(st.integers(2, 24))
    linked = draw(st.integers(1, num_nodes))
    node = st.integers(0, linked - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=3 * num_nodes))
    graph = from_edge_index(np.array(edges, dtype=np.int64).reshape(-1, 2).T, num_nodes=num_nodes)
    if not directed and draw(st.booleans()):
        graph = symmetrize(graph)
    return graph


def _reference_neighbors(graph, frontier):
    """Out-neighbors of ``frontier`` via one flat-index gather (with dups)."""
    starts, stops = graph.neighbor_slices(frontier)
    counts = stops - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    prefix = np.zeros(frontier.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=prefix[1:])
    flat = np.arange(total, dtype=np.int64) + np.repeat(starts - prefix, counts)
    return graph.indices[flat]


def reference_ball(graphs, seeds, hops):
    """Sorted-set level-synchronous BFS over the union of ``graphs``: the
    reference the mask-pass frontier expansion must reproduce."""
    reached = frontier = np.unique(np.asarray(seeds, dtype=np.int64))
    for _ in range(hops):
        if frontier.size == 0:
            break
        gathered = [_reference_neighbors(graph, frontier) for graph in graphs]
        neighbors = np.unique(np.concatenate(gathered))
        frontier = np.setdiff1d(neighbors, reached, assume_unique=True)
        reached = np.union1d(reached, frontier)
    return reached


# --------------------------------------------------------------------------- #
# delta semantics
# --------------------------------------------------------------------------- #
class TestGraphDelta:
    def test_application_semantics(self):
        #     0 -- 1
        #     |    |
        #     3 -- 2
        edges = np.array([[0, 1], [1, 2], [2, 3], [3, 0]])
        graph = symmetrize(from_edge_index(edges, num_nodes=4))
        delta = GraphDelta(
            insertions=np.array([[0, 2], [1, 2], [1, 2]]),
            insertion_weights=np.array([1.0, 5.0, 2.0]),
            deletions=np.array([[1, 2], [3, 0]]),
        )
        updated = apply_delta(graph, delta).to_scipy().toarray()
        # deleted then re-inserted in the same batch => present, last weight wins
        assert updated[1, 2] == 2.0 and updated[2, 1] == 2.0
        # symmetric insertion of a new edge
        assert updated[0, 2] == 1.0 and updated[2, 0] == 1.0
        # plain deletion removes both directions
        assert updated[3, 0] == 0.0 and updated[0, 3] == 0.0
        # untouched edges keep their bytes
        assert updated[0, 1] == 1.0 and updated[2, 3] == 1.0

    def test_feature_overwrites_last_wins(self):
        features = np.zeros((5, 3), dtype=np.float32)
        delta = GraphDelta(
            feature_nodes=np.array([2, 4, 2]),
            feature_values=np.array(
                [[1, 1, 1], [2, 2, 2], [9, 9, 9]], dtype=np.float32
            ),
        )
        out = apply_features(features, delta)
        assert np.array_equal(out[2], [9, 9, 9])
        assert np.array_equal(out[4], [2, 2, 2])
        assert features[2, 0] == 0.0  # input untouched

    def test_validation_and_fingerprint(self, tiny_graph):
        with pytest.raises(ValueError):
            GraphDelta(insertions=np.arange(6).reshape(2, 3))
        delta = GraphDelta(insertions=np.array([[0, 99]]))
        with pytest.raises(ValueError):
            delta.validate_for(tiny_graph)
        a = scenario_delta(tiny_graph, seed=1)
        b = scenario_delta(tiny_graph, seed=1)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != scenario_delta(tiny_graph, seed=2).fingerprint()


# --------------------------------------------------------------------------- #
# affected frontier
# --------------------------------------------------------------------------- #
class TestFrontier:
    def test_expand_frontier_ring(self):
        # 8-node ring: the r-hop ball of node 0 is exactly {0, ±1..r mod 8}
        edges = np.stack([np.arange(8), (np.arange(8) + 1) % 8], axis=1)
        ring = symmetrize(from_edge_index(edges, num_nodes=8))
        delta = GraphDelta(feature_nodes=[0], feature_values=np.zeros((1, 2)))
        for hops, ball in ((1, [0, 1, 7]), (2, [0, 1, 2, 6, 7])):
            frontier = affected_frontier(ring, ring, delta, PropagationConfig(num_hops=hops))
            assert frontier.tolist() == ball

    def test_operator_radius(self):
        assert operator_radius("normalized_adjacency") == 1
        assert operator_radius("random_walk") == 1
        assert operator_radius("ppr", num_iterations=4) == 4
        assert operator_radius("heat") == 10  # default num_iterations
        with pytest.raises(KeyError):
            operator_radius("nope")

    def test_affected_frontier_is_sound(self):
        """Every row whose bytes actually change is inside the frontier."""
        graph = scenario_graph()
        features = np.random.default_rng(0).standard_normal((400, 8)).astype(np.float32)
        node_ids = np.arange(400, dtype=np.int64)
        config = PropagationConfig(num_hops=2)
        delta = scenario_delta(graph, feature_dim=8)
        new_graph = apply_delta(graph, delta)
        new_features = apply_features(features, delta)
        frontier = affected_frontier(graph, new_graph, delta, config)
        before = from_scratch(graph, features, config, node_ids)
        after = from_scratch(new_graph, new_features, config, node_ids)
        changed = np.flatnonzero(np.any(before != after, axis=(0, 2)))
        assert np.isin(changed, frontier).all()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_affected_frontier_matches_sorted_set_bfs(self, data):
        """Directed old/new pairs: the mask passes reach exactly the nodes the
        sorted-set BFS over ``[old, new, old.reverse(), new.reverse()]`` does.

        ``new`` is drawn independently of ``old``: when it is ``old`` with the
        delta applied, its extra edges join seeds to seeds and reach nothing
        ``old`` does not, which would leave the new graph's share untested."""
        old = data.draw(small_graphs(directed=True))
        new = data.draw(small_graphs(directed=True, num_nodes=old.num_nodes))
        node = st.integers(0, old.num_nodes - 1)
        edges = st.lists(st.tuples(node, node), max_size=4)
        feature_nodes = data.draw(st.lists(node, max_size=3))
        delta = GraphDelta(
            insertions=data.draw(edges),
            deletions=data.draw(edges),
            feature_nodes=feature_nodes,
            feature_values=np.zeros((len(feature_nodes), 2)),
            symmetric=False,
        )
        config = PropagationConfig(
            num_hops=data.draw(st.integers(0, 3)),
            operators=("normalized_adjacency", "ppr"),
            operator_kwargs=({}, {"num_iterations": data.draw(st.integers(1, 3))}),
        )
        hops = config.num_hops * max(
            operator_radius(name, **config.kwargs_for(k)) for k, name in enumerate(config.operators)
        )
        graphs = [old, new, old.reverse(), new.reverse()]
        expected = reference_ball(graphs, delta.seed_nodes(), hops)
        assert np.array_equal(affected_frontier(old, new, delta, config), expected)

    def test_empty_delta_empty_frontier(self, tiny_graph):
        delta = GraphDelta()
        frontier = affected_frontier(
            tiny_graph, tiny_graph, delta, PropagationConfig(num_hops=2)
        )
        assert frontier.size == 0


# --------------------------------------------------------------------------- #
# versioned store
# --------------------------------------------------------------------------- #
class TestVersionedStore:
    def test_pointer_lifecycle(self, tmp_path):
        versions = VersionedStore(tmp_path / "store")
        assert versions.current_version() == BASE_VERSION
        assert versions.path_for(BASE_VERSION) == tmp_path / "store"
        assert versions.next_version() == "v0001"
        staged = tmp_path / "staged"
        staged.mkdir()
        (staged / "meta.json").write_text("{}")
        target = versions.publish(staged, "v0001")
        assert versions.current_version() == "v0001"
        assert target.is_dir() and not staged.exists()
        assert versions.list_versions() == ["v0001"]
        assert versions.next_version() == "v0002"
        with pytest.raises(ValueError):
            versions.publish(staged, "v0001")  # already current

    def test_invalid_names_rejected(self, tmp_path):
        versions = VersionedStore(tmp_path / "store")
        with pytest.raises(ValueError):
            versions.path_for("v1")  # too few digits
        with pytest.raises(ValueError):
            versions.set_current("../escape")
        versions.current_path.parent.mkdir(parents=True)
        versions.current_path.write_text("garbage\n")
        with pytest.raises(ValueError):
            versions.current_version()

    def test_prune_spares_current(self, tmp_path):
        versions = VersionedStore(tmp_path / "store")
        for name in ("v0001", "v0002", "v0003"):
            (versions.versions_root / name).mkdir(parents=True)
        versions.set_current("v0001")
        doomed = versions.prune(keep=1)
        assert doomed == ["v0002"]
        assert versions.list_versions() == ["v0001", "v0003"]


# --------------------------------------------------------------------------- #
# incremental re-propagation: bit identity
# --------------------------------------------------------------------------- #
class TestApplyUpdate:
    @pytest.mark.parametrize("layout", ["packed"])
    def test_chained_updates_bit_identical(self, tmp_path, layout):
        graph = scenario_graph()
        rng = np.random.default_rng(0)
        features = rng.standard_normal((400, 8)).astype(np.float32)
        node_ids = np.unique(rng.integers(0, 400, 250))
        config = PropagationConfig(
            num_hops=2,
            operators=("normalized_adjacency", "ppr"),
            operator_kwargs=({}, {"num_iterations": 3}),
        )
        propagate_blocked(
            graph,
            features,
            config,
            node_ids=node_ids,
            root=tmp_path / "store",
            block_size=100,
            layout=layout,
        )
        g, f = graph, features
        for step, version in enumerate(["v0001", "v0002"]):
            delta = scenario_delta(g, seed=20 + step, feature_dim=8)
            result = apply_update(tmp_path / "store", g, f, delta, config)
            assert result.status == "applied"
            assert result.version == version
            assert result.verified and not result.resumed
            expected = from_scratch(
                result.new_graph, result.new_features, config, node_ids
            )
            got = np.asarray(result.store.packed_matrix())
            assert got.tobytes() == expected.tobytes()
            g, f = result.new_graph, result.new_features
        versions = VersionedStore(tmp_path / "store")
        assert versions.current_version() == "v0002"
        assert versions.list_versions() == ["v0001", "v0002"]
        # the base version is immutable: still byte-identical to pre-update
        base = FeatureStore.load(tmp_path / "store")
        original = from_scratch(graph, features, config, node_ids)
        assert np.asarray(base.packed_matrix()).tobytes() == original.tobytes()

    @pytest.mark.parametrize("rebuild_hops", [2, 3], ids=["same_hops", "more_hops"])
    def test_rebuild_over_versions_is_what_readers_and_updates_see(self, tmp_path, rebuild_hops):
        """Preprocessing a root that holds an update version repoints ``CURRENT``
        to the new build, so the next update patches the rebuild, not the old
        version's rows."""
        root = tmp_path / "store"
        graph = scenario_graph()
        rng = np.random.default_rng(0)
        features = rng.standard_normal((400, 8)).astype(np.float32)
        node_ids = np.unique(rng.integers(0, 400, 250))
        config = PropagationConfig(num_hops=2)
        propagate_blocked(graph, features, config, node_ids=node_ids, root=root, block_size=100)
        assert apply_update(root, graph, features, scenario_delta(graph, seed=20), config).version == "v0001"

        rebuilt_features = rng.standard_normal((400, 8)).astype(np.float32)
        rebuilt_config = PropagationConfig(num_hops=rebuild_hops)
        propagate_blocked(
            graph, rebuilt_features, rebuilt_config, node_ids=node_ids, root=root, block_size=100
        )
        versions = VersionedStore(root)
        assert versions.current_version() == BASE_VERSION
        result = apply_update(root, graph, rebuilt_features, scenario_delta(graph, seed=21), rebuilt_config)
        assert result.status == "applied" and result.verified
        expected = from_scratch(result.new_graph, result.new_features, rebuilt_config, node_ids)
        assert np.asarray(result.store.packed_matrix()).tobytes() == expected.tobytes()
        assert versions.current_version() == result.version == "v0002"

    def test_memory_update_bit_identical(self):
        graph = scenario_graph()
        rng = np.random.default_rng(1)
        features = rng.standard_normal((400, 6)).astype(np.float32)
        node_ids = np.unique(rng.integers(0, 400, 200))
        config = PropagationConfig(num_hops=2)
        store, _ = propagate_blocked(
            graph, features, config, node_ids=node_ids, root=None, block_size=100
        )
        delta = scenario_delta(graph, feature_dim=6)
        result = apply_memory_update(store, graph, features, delta, config, version="mem1")
        assert result.status == "applied" and result.version == "mem1"
        expected = from_scratch(result.new_graph, result.new_features, config, node_ids)
        assert np.asarray(result.store.packed_matrix()).tobytes() == expected.tobytes()
        # the input store was not mutated
        original = from_scratch(graph, features, config, node_ids)
        assert np.asarray(store.packed_matrix()).tobytes() == original.tobytes()

    def test_retry_after_lost_ack_is_idempotent(self, tmp_path):
        """Re-running an already-published update must not apply it twice."""
        graph = scenario_graph()
        rng = np.random.default_rng(3)
        features = rng.standard_normal((400, 6)).astype(np.float32)
        node_ids = np.unique(rng.integers(0, 400, 200))
        config = PropagationConfig(num_hops=2)
        propagate_blocked(
            graph, features, config, node_ids=node_ids,
            root=tmp_path / "store", block_size=100,
        )
        delta = scenario_delta(graph, seed=30)
        first = apply_update(tmp_path / "store", graph, features, delta, config)
        assert first.status == "applied" and first.version == "v0001"
        retry = apply_update(tmp_path / "store", graph, features, delta, config)
        assert retry.status == "applied" and retry.version == "v0001"
        assert retry.resumed
        assert (
            np.asarray(retry.store.packed_matrix()).tobytes()
            == np.asarray(first.store.packed_matrix()).tobytes()
        )
        assert VersionedStore(tmp_path / "store").list_versions() == ["v0001"]
        # a genuinely different delta still advances the chain
        other = scenario_delta(first.new_graph, seed=31)
        second = apply_update(
            tmp_path / "store", first.new_graph, first.new_features, other, config
        )
        assert second.status == "applied" and second.version == "v0002"

    def test_chained_update_digests_its_inputs_once(self, tmp_path, monkeypatch):
        """An update on top of another asks for its fingerprint against two
        source versions (its own, and the one ``LAST_UPDATE.json`` names): the
        input arrays are hashed once for both."""
        from repro.resilience import checkpoint as checkpoint_module

        graph = scenario_graph()
        rng = np.random.default_rng(4)
        features = rng.standard_normal((400, 6)).astype(np.float32)
        node_ids = np.unique(rng.integers(0, 400, 200))
        config = PropagationConfig(num_hops=2)
        propagate_blocked(
            graph, features, config, node_ids=node_ids,
            root=tmp_path / "store", block_size=100,
        )
        first = apply_update(
            tmp_path / "store", graph, features, scenario_delta(graph, seed=40), config
        )
        digested: list = []
        real = checkpoint_module.digest_array
        monkeypatch.setattr(
            checkpoint_module, "digest_array", lambda array: (digested.append(array), real(array))[1]
        )
        second = apply_update(
            tmp_path / "store",
            first.new_graph,
            first.new_features,
            scenario_delta(first.new_graph, seed=41),
            config,
        )
        assert second.status == "applied" and second.version == "v0002"
        for array in (first.new_features, first.new_graph.indptr, first.new_graph.indices):
            assert sum(seen is array for seen in digested) == 1

    def test_update_fingerprint_is_stable_across_releases(self, tiny_graph):
        """Staged runs and ``LAST_UPDATE.json`` written by an earlier release
        must still be recognised.  The first two values were computed before
        the fingerprint was split into shared parts + source version, when a
        float32 store accumulated in float64: they pin the pre-upgrade form.
        A float64 store's fingerprint did not change with the upgrade."""
        from repro.updates.apply import _legacy_parts, _update_fingerprint

        features = np.arange(8 * 3, dtype=np.float32).reshape(8, 3)
        delta = GraphDelta(insertions=np.array([[0, 2]]), deletions=np.array([[4, 5]]))

        def parts_for(config):
            return update_parts(tiny_graph, features, delta, config, np.arange(0, 8, 2))

        parts = parts_for(PropagationConfig(num_hops=2))
        legacy = _legacy_parts(parts)
        assert _update_fingerprint(legacy, "base") == "aa343279f979517e7888dda43031859a"
        assert _update_fingerprint(legacy, "v0001") == "caf7c4bf508e99908077c1ddf250be44"
        assert _update_fingerprint(parts, "base") == "b0c5e9a4d255996418b7b6ec6ccdf1df"
        assert _update_fingerprint(parts, "v0001") == "618a451a00a943de3f5e5256e5d17765"
        parts64 = parts_for(PropagationConfig(num_hops=2, dtype="float64"))
        assert _legacy_parts(parts64) == parts64
        assert _update_fingerprint(parts64, "base") == "c85f99e59c61c24001620cf52dfe0f13"
        assert _update_fingerprint(parts64, "v0001") == "194e4ffae94bb48da206bdf4f6f87516"

    @pytest.mark.parametrize("record", ["last_update", "publish_crash"])
    def test_retry_across_the_upgrade_finds_the_legacy_record(self, tmp_path, record):
        """An update published by a release that accumulated float32 stores in
        float64 names itself by the pre-upgrade fingerprint — in
        ``LAST_UPDATE.json``, or, after a crash between repointing ``CURRENT``
        and the cleanup, in the staging manifest.  A retry after the upgrade
        hands that version back untouched instead of applying the delta a
        second time."""
        from repro.prepropagation.blocked import open_store_arrays
        from repro.resilience.checkpoint import PhaseJournal, RunManifest
        from repro.updates.apply import _legacy_parts, _update_fingerprint

        graph = scenario_graph()
        rng = np.random.default_rng(3)
        features = rng.standard_normal((400, 6)).astype(np.float32)
        node_ids = np.unique(rng.integers(0, 400, 200))
        config = PropagationConfig(num_hops=2)
        propagate_blocked(
            graph, features, config, node_ids=node_ids,
            root=tmp_path / "store", block_size=100,
        )
        delta = scenario_delta(graph, seed=30)
        first = apply_update(tmp_path / "store", graph, features, delta, config)
        versions = VersionedStore(tmp_path / "store")
        # what the earlier release published: float64 accumulation, cast on store
        legacy_bytes = from_scratch(
            first.new_graph,
            first.new_features,
            PropagationConfig(num_hops=2, dtype="float64"),
            node_ids,
        ).astype(np.float32)
        assert legacy_bytes.tobytes() != np.asarray(first.store.packed_matrix()).tobytes()
        _, packed = open_store_arrays(versions.path_for("v0001"))
        packed[:] = legacy_bytes
        packed.flush()
        del packed
        parts = update_parts(graph, features, delta, config, node_ids)
        legacy = _update_fingerprint(_legacy_parts(parts), BASE_VERSION)
        last_update = versions.versions_root / "LAST_UPDATE.json"
        if record == "last_update":
            payload = json.loads(last_update.read_text())
            payload["fingerprint"] = legacy
            last_update.write_text(json.dumps(payload))
        else:
            last_update.unlink()
            journal = PhaseJournal(versions.staging_root)
            journal.write_manifest(
                RunManifest(
                    fingerprint=legacy, layout="packed", num_kernels=1, num_hops=2,
                    num_rows=int(node_ids.size), feature_dim=6, dtype="<f4",
                    accumulate_dtype="<f8", block_size=0,
                )
            )
            journal.close()
            (versions.staging_root / "update.json").write_text(
                json.dumps({"source_version": BASE_VERSION, "target_version": "v0001"})
            )
        retry = apply_update(tmp_path / "store", graph, features, delta, config)
        assert retry.status == "applied" and retry.version == "v0001" and retry.resumed
        assert np.asarray(retry.store.packed_matrix()).tobytes() == legacy_bytes.tobytes()
        assert versions.list_versions() == ["v0001"]
        assert versions.current_version() == "v0001"
        assert not versions.staging_root.exists()

    def test_legacy_partial_update_is_rolled_back_not_resumed(self, tmp_path):
        """A partially staged update under the pre-upgrade fingerprint holds
        float64-accumulated bytes: it is discarded, never resumed, and the
        rerun is byte-identical to a from-scratch build."""
        from repro.resilience.checkpoint import PhaseJournal
        from repro.updates.apply import _legacy_parts, _update_fingerprint

        graph = scenario_graph(num_nodes=200, num_edges=1200)
        rng = np.random.default_rng(7)
        features = rng.standard_normal((200, 6)).astype(np.float32)
        node_ids = np.unique(rng.integers(0, 200, 120))
        config = PropagationConfig(num_hops=2)
        propagate_blocked(
            graph, features, config, node_ids=node_ids,
            root=tmp_path / "store", block_size=50,
        )
        delta = scenario_delta(graph, seed=10)
        plan = FaultPlan(specs=[FaultSpec(site="update.journal", kind="ioerror", at_hit=2)])
        with pytest.raises(OSError):
            apply_update(tmp_path / "store", graph, features, delta, config, fault_plan=plan)
        versions = VersionedStore(tmp_path / "store")
        journal = PhaseJournal(versions.staging_root)
        manifest = journal.load_manifest()
        assert [entry["phase"] for entry in journal.entries()] == ["clone"]
        parts = update_parts(graph, features, delta, config, node_ids)
        assert manifest.fingerprint == _update_fingerprint(parts, BASE_VERSION)
        journal.write_manifest(
            dataclasses.replace(
                manifest,
                fingerprint=_update_fingerprint(_legacy_parts(parts), BASE_VERSION),
                accumulate_dtype="<f8",
            )
        )
        journal.close()
        result = apply_update(tmp_path / "store", graph, features, delta, config)
        assert result.status == "applied" and result.version == "v0001"
        assert not result.resumed
        expected = from_scratch(result.new_graph, result.new_features, config, node_ids)
        assert np.asarray(result.store.packed_matrix()).tobytes() == expected.tobytes()
        assert not versions.staging_root.exists()

    def test_legacy_store_is_rejected_without_side_effects(
        self, tmp_path, tiny_graph, legacy_store
    ):
        """A per-hop store from an older release is refused before any staging
        directory or version is created, and is left as it was."""
        root = legacy_store(tmp_path / "store", "hops", num_rows=8)
        before = {p.name: p.read_bytes() for p in root.iterdir()}
        features = np.ones((8, 2), dtype=np.float32)
        delta = GraphDelta(insertions=np.array([[0, 2]]))
        with pytest.raises(ValueError, match="re-run preprocessing"):
            apply_update(root, tiny_graph, features, delta, PropagationConfig(num_hops=2))
        assert [p.name for p in tmp_path.iterdir()] == ["store"]
        assert {p.name: p.read_bytes() for p in root.iterdir()} == before

    def test_noop_when_frontier_misses_stored_rows(self, tmp_path):
        # two 4-cycles with no path between them; store only covers the first
        edges = np.array(
            [[0, 1], [1, 2], [2, 3], [3, 0], [4, 5], [5, 6], [6, 7], [7, 4]]
        )
        graph = symmetrize(from_edge_index(edges, num_nodes=8))
        features = np.random.default_rng(0).standard_normal((8, 4)).astype(np.float32)
        node_ids = np.array([0, 1, 2, 3], dtype=np.int64)
        config = PropagationConfig(num_hops=2)
        propagate_blocked(
            graph, features, config, node_ids=node_ids,
            root=tmp_path / "store", block_size=4,
        )
        delta = GraphDelta(insertions=np.array([[4, 6]]))
        result = apply_update(tmp_path / "store", graph, features, delta, config)
        assert result.status == "noop"
        assert result.patched_rows == 0
        assert VersionedStore(tmp_path / "store").current_version() == BASE_VERSION

    def test_compute_patches_matches_full_rows(self):
        graph = scenario_graph()
        rng = np.random.default_rng(2)
        features = rng.standard_normal((400, 8)).astype(np.float32)
        node_ids = np.unique(rng.integers(0, 400, 250))
        config = PropagationConfig(num_hops=2)
        targets = np.unique(rng.integers(0, 400, 40))
        patch_nodes, patch_rows, patches = compute_patches(
            graph, features, config, node_ids, targets
        )
        full = from_scratch(graph, features, config, node_ids)
        for m, patch in enumerate(patches):
            assert patch.tobytes() == np.ascontiguousarray(full[m][patch_rows]).tobytes()
        assert np.array_equal(node_ids[patch_rows], patch_nodes)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_compute_patches_equals_rebuild_rows(self, data):
        """Byte equality with a from-scratch rebuild over random directed and
        undirected graphs with isolated nodes, operators without symmetrization
        or self-loops (their dependency cones only nest through the explicit
        union), a subset of stored rows and empty / single / all-node /
        arbitrary targets."""
        graph = data.draw(small_graphs())
        n = graph.num_nodes
        first, first_kwargs = data.draw(
            st.sampled_from(
                [
                    ("normalized_adjacency", {"make_undirected": False, "add_self_loop": False}),
                    ("random_walk", {"add_self_loop": False}),
                    ("normalized_adjacency", {"make_undirected": False}),
                    ("normalized_adjacency", {}),
                ]
            )
        )
        config = PropagationConfig(
            num_hops=data.draw(st.integers(0, 3)),
            operators=(first, "ppr"),
            operator_kwargs=(first_kwargs, {"num_iterations": data.draw(st.integers(1, 3))}),
            dtype=data.draw(st.sampled_from(["float64", "float32"])),
        )
        node_ids = np.array(
            sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))),
            dtype=np.int64,
        )
        node = st.integers(0, n - 1)
        targets = np.array(
            data.draw(
                st.one_of(
                    st.just([]),
                    node.map(lambda v: [v]),
                    st.just(list(range(n))),
                    st.lists(node, max_size=2 * n),
                )
            ),
            dtype=np.int64,
        )
        features = np.random.default_rng(n).standard_normal((n, 3)).astype(np.float32)
        patch_nodes, patch_rows, patches = compute_patches(
            graph, features, config, node_ids, targets
        )
        assert np.array_equal(patch_nodes, np.intersect1d(targets, node_ids))
        assert np.array_equal(node_ids[patch_rows], patch_nodes)
        full = from_scratch(graph, features, config, node_ids)
        assert len(patches) == config.num_matrices
        for m, patch in enumerate(patches):
            assert patch.dtype == np.dtype(config.dtype)
            assert patch.tobytes() == np.ascontiguousarray(full[m][patch_rows]).tobytes()

    def test_compute_patches_rejects_out_of_range_targets(self, tiny_graph):
        """A negative id would otherwise wrap around and patch a real row."""
        features = np.ones((tiny_graph.num_nodes, 2), dtype=np.float32)
        node_ids = np.arange(tiny_graph.num_nodes, dtype=np.int64)
        for bad in ([-1], [0, tiny_graph.num_nodes], [3, -8]):
            with pytest.raises(ValueError, match="out of range"):
                compute_patches(
                    tiny_graph, features, PropagationConfig(num_hops=2), node_ids, np.array(bad)
                )

    def test_chained_update_builds_operator_rows_once(self, tmp_path, monkeypatch):
        """Each ``compute_patches`` call of an update (patch, then verify)
        builds every kernel's operator rows once, for its widest dependency
        cone, and the update path never transposes a graph."""
        from repro.updates import apply as apply_module

        graph = scenario_graph()
        rng = np.random.default_rng(5)
        features = rng.standard_normal((400, 6)).astype(np.float32)
        node_ids = np.unique(rng.integers(0, 400, 200))
        config = PropagationConfig(
            num_hops=3,
            operators=("normalized_adjacency", "ppr"),
            operator_kwargs=({}, {"num_iterations": 2}),
        )
        propagate_blocked(
            graph, features, config, node_ids=node_ids,
            root=tmp_path / "store", block_size=100,
        )
        first = apply_update(
            tmp_path / "store", graph, features, scenario_delta(graph, seed=50), config
        )
        patch_calls, row_builds, reversals = [], [], []
        real_patches, real_rows, real_reverse = (
            apply_module.compute_patches, PartialOperator.rows, CSRGraph.reverse
        )
        monkeypatch.setattr(
            apply_module,
            "compute_patches",
            lambda *args, **kwargs: (patch_calls.append(1), real_patches(*args, **kwargs))[1],
        )
        monkeypatch.setattr(
            PartialOperator,
            "rows",
            lambda self, rows: (row_builds.append(self.name), real_rows(self, rows))[1],
        )
        monkeypatch.setattr(
            CSRGraph, "reverse", lambda self: (reversals.append(1), real_reverse(self))[1]
        )
        second = apply_update(
            tmp_path / "store",
            first.new_graph,
            first.new_features,
            scenario_delta(first.new_graph, seed=51),
            config,
        )
        assert second.status == "applied" and second.version == "v0002"
        assert len(patch_calls) == 2
        assert sorted(row_builds) == ["normalized_adjacency", "normalized_adjacency", "ppr", "ppr"]
        assert reversals == []


# --------------------------------------------------------------------------- #
# crash safety
# --------------------------------------------------------------------------- #
_CHILD_SCRIPT = """
import json, sys
from pathlib import Path
import numpy as np
import scipy.sparse as sp
sys.path.insert(0, sys.argv[1])
from repro.graph.csr import CSRGraph
from repro.prepropagation.propagator import PropagationConfig
from repro.resilience.faultinject import FaultPlan, FaultSpec
from repro.updates import GraphDelta, apply_update

root = Path(sys.argv[2])
spec = json.loads(sys.argv[3])
data = np.load(root / "scenario.npz")
n = int(data["num_nodes"])
graph = CSRGraph.from_scipy(
    sp.csr_matrix((data["weights"], data["indices"], data["indptr"]), shape=(n, n))
)
delta = GraphDelta(insertions=data["insertions"], deletions=data["deletions"])
config = PropagationConfig(num_hops=int(data["hops"]))
plan = FaultPlan(
    specs=[
        FaultSpec(
            site=spec["site"], kind="kill", at_hit=spec["at_hit"], match=spec["match"]
        )
    ]
)
apply_update(root / "store", graph, data["features"], delta, config, fault_plan=plan)
print("SURVIVED")
"""

KILL_POINTS = [
    {"site": "update.apply", "match": {"stage": "clone"}, "at_hit": 1},
    {"site": "update.apply", "match": {"stage": "patch"}, "at_hit": 2},
    {"site": "update.journal", "match": {"phase": "patch"}, "at_hit": 1},
    {"site": "update.swap", "match": {"stage": "rename"}, "at_hit": 1},
    {"site": "update.journal", "match": {"phase": "publish"}, "at_hit": 1},
]


class TestCrashSafety:
    @pytest.fixture()
    def crash_scenario(self, tmp_path):
        graph = scenario_graph(num_nodes=200, num_edges=1200)
        rng = np.random.default_rng(5)
        features = rng.standard_normal((200, 6)).astype(np.float32)
        node_ids = np.unique(rng.integers(0, 200, 120))
        config = PropagationConfig(num_hops=2)
        propagate_blocked(
            graph, features, config, node_ids=node_ids,
            root=tmp_path / "store", block_size=50,
        )
        delta = scenario_delta(graph, seed=8)
        adjacency = graph.to_scipy().tocsr()
        np.savez(
            tmp_path / "scenario.npz",
            indptr=adjacency.indptr,
            indices=adjacency.indices,
            weights=adjacency.data,
            num_nodes=graph.num_nodes,
            features=features,
            insertions=delta.insertions,
            deletions=delta.deletions,
            hops=config.num_hops,
        )
        return tmp_path, graph, features, node_ids, config, delta

    @pytest.mark.parametrize(
        "kill", KILL_POINTS, ids=[f"{k['site']}-{k['at_hit']}" for k in KILL_POINTS]
    )
    def test_sigkill_then_resume_converges(self, crash_scenario, kill):
        tmp_path, graph, features, node_ids, config, delta = crash_scenario
        proc = subprocess.run(
            [sys.executable, "-c", _CHILD_SCRIPT, str(SRC_ROOT), str(tmp_path), json.dumps(kill)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode in (-9, 137), (
            f"child should have been SIGKILLed, got rc={proc.returncode}\n"
            f"stdout={proc.stdout}\nstderr={proc.stderr}"
        )
        # the published version never saw a torn state
        versions = VersionedStore(tmp_path / "store")
        version = versions.current_version()
        assert version in (BASE_VERSION, "v0001")
        FeatureStore.load(versions.path_for(version))
        # rerunning the identical update resumes (or restarts) and converges
        result = apply_update(tmp_path / "store", graph, features, delta, config)
        assert result.status == "applied" and result.version == "v0001"
        expected = from_scratch(result.new_graph, result.new_features, config, node_ids)
        assert np.asarray(result.store.packed_matrix()).tobytes() == expected.tobytes()
        assert versions.current_version() == "v0001"
        # staging is cleaned up after a completed run
        assert not versions.staging_root.exists()

    def test_leaked_patch_write_is_caught_and_rolled_back(self, tmp_path):
        """An injected skipped write (silent corruption) must never publish."""
        graph = scenario_graph(num_nodes=200, num_edges=1200)
        rng = np.random.default_rng(6)
        features = rng.standard_normal((200, 6)).astype(np.float32)
        node_ids = np.arange(200, dtype=np.int64)
        config = PropagationConfig(num_hops=2)
        propagate_blocked(
            graph, features, config, node_ids=node_ids,
            root=tmp_path / "store", block_size=50,
        )
        delta = scenario_delta(graph, seed=9, feature_dim=6)
        # skip the write of hop matrix 1; verify every patched row so the
        # corruption cannot dodge the sample
        plan = FaultPlan(
            specs=[
                FaultSpec(
                    site="update.apply", kind="leak", match={"stage": "patch", "matrix": 1}
                )
            ]
        )
        with pytest.raises(UpdateVerificationError):
            apply_update(
                tmp_path / "store", graph, features, delta, config,
                fault_plan=plan, verify_samples=10_000,
            )
        versions = VersionedStore(tmp_path / "store")
        assert versions.current_version() == BASE_VERSION
        assert not versions.staging_root.exists()  # rolled back, not resumable
        # a clean retry succeeds
        result = apply_update(tmp_path / "store", graph, features, delta, config)
        assert result.status == "applied" and result.version == "v0001"

    def test_transient_error_leaves_resumable_staging(self, tmp_path):
        graph = scenario_graph(num_nodes=200, num_edges=1200)
        rng = np.random.default_rng(7)
        features = rng.standard_normal((200, 6)).astype(np.float32)
        node_ids = np.unique(rng.integers(0, 200, 120))
        config = PropagationConfig(num_hops=2)
        propagate_blocked(
            graph, features, config, node_ids=node_ids,
            root=tmp_path / "store", block_size=50,
        )
        delta = scenario_delta(graph, seed=10)
        plan = FaultPlan(
            specs=[FaultSpec(site="update.journal", kind="ioerror", at_hit=2)]
        )
        with pytest.raises(OSError):
            apply_update(tmp_path / "store", graph, features, delta, config, fault_plan=plan)
        versions = VersionedStore(tmp_path / "store")
        assert versions.current_version() == BASE_VERSION
        assert versions.staging_root.exists()  # kept for resume
        result = apply_update(tmp_path / "store", graph, features, delta, config)
        assert result.status == "applied" and result.version == "v0001"
        assert result.resumed
        expected = from_scratch(result.new_graph, result.new_features, config, node_ids)
        assert np.asarray(result.store.packed_matrix()).tobytes() == expected.tobytes()


# --------------------------------------------------------------------------- #
# serving epoch protection
# --------------------------------------------------------------------------- #
def _serving_scenario(num_hops=2, feature_dim=6):
    graph = scenario_graph(num_nodes=300, num_edges=1800)
    rng = np.random.default_rng(12)
    features = rng.standard_normal((300, feature_dim)).astype(np.float32)
    node_ids = np.arange(300, dtype=np.int64)
    config = PropagationConfig(num_hops=num_hops)
    store, _ = propagate_blocked(
        graph, features, config, node_ids=node_ids, root=None, block_size=100
    )
    delta = scenario_delta(graph, seed=13, feature_dim=feature_dim)
    result = apply_memory_update(store, graph, features, delta, config, version="mem1")
    assert result.status == "applied"
    return store, result


class TestServingSwap:
    def test_adopt_store_flips_every_path_for_patched_and_unpatched_rows(self):
        store, result = _serving_scenario()
        patched = result.patch_rows
        unpatched = np.setdiff1d(np.arange(store.num_rows), patched)[:4]
        rows = np.concatenate([patched[:4], unpatched])
        old = store.gather_packed(rows)
        new = result.store.gather_packed(rows)
        assert old.tobytes() != new.tobytes()  # the patched rows really changed
        # ``invalidate_rows`` is accepted and ignored: both forms serve the new bytes
        for invalidate in (patched, None):
            with ServingEngine(store, ServingConfig()) as engine:
                assert engine.health()["store_version"] == "base"
                assert engine.fetch(rows).tobytes() == old.tobytes()
                assert engine.query(rows).tobytes() == old.tobytes()
                engine.begin_update("mem1")
                assert engine.health()["update"]["pending_version"] == "mem1"
                engine.adopt_store(result.store, version="mem1", invalidate_rows=invalidate)
                health = engine.health()
                assert health["store_version"] == "mem1"
                assert health["update"]["status"] == "applied"
                assert not health["update"]["serving_stale"]
                assert engine.fetch(rows).tobytes() == new.tobytes()
                assert engine.gather_direct(rows).tobytes() == new.tobytes()
                for i, row in enumerate(rows):
                    got = engine.submit(int(row)).result(timeout=30)
                    assert got.tobytes() == new[:, i, :].tobytes()

    def test_swap_failure_serves_stale(self):
        store, result = _serving_scenario()
        old_packed = np.asarray(store.packed_matrix())
        rows = result.patch_rows[:4]
        plan = FaultPlan(
            specs=[FaultSpec(site="update.swap", kind="error", match={"stage": "engine"})]
        )
        with ServingEngine(store, ServingConfig()) as engine:
            engine.begin_update("mem1")
            with plan.active():
                with pytest.raises(UpdateSwapError):
                    engine.adopt_store(result.store, version="mem1")
            health = engine.health()
            assert health["store_version"] == "base"
            assert health["update"]["status"] == "failed"
            assert health["update"]["serving_stale"]
            assert "InjectedFault" in health["update"]["error"]
            got = engine.fetch(rows)
            assert got.tobytes() == np.ascontiguousarray(old_packed[:, rows, :]).tobytes()

    def test_adopt_store_rejects_shape_mismatch(self):
        store, result = _serving_scenario()
        wrong_ids = result.store.node_ids[:-1]
        wrong, _ = propagate_blocked(
            scenario_graph(num_nodes=300, num_edges=1800),
            np.zeros((300, 6), dtype=np.float32),
            PropagationConfig(num_hops=2),
            node_ids=wrong_ids,
            root=None,
            block_size=100,
        )
        with ServingEngine(store, ServingConfig()) as engine:
            engine.begin_update("mem1")
            with pytest.raises(UpdateSwapError):
                engine.adopt_store(wrong, version="mem1")
            assert engine.health()["update"]["status"] == "failed"
            assert engine.store_version == "base"

    def test_concurrent_zipfian_serving_never_tears(self):
        """Satellite: requests racing a swap see exactly one version per block.

        Every answer must be byte-identical to the pre-update version or to
        the post-update version — never a mix of hops from both — and after
        the swap returns, answers must come from the new version only.
        """
        store, result = _serving_scenario()
        old_packed = np.asarray(store.packed_matrix())
        new_packed = np.asarray(result.store.packed_matrix())
        patched = result.patch_rows
        assert patched.size >= 4
        rng = np.random.default_rng(0)
        weights = 1.0 / np.arange(1, store.num_rows + 1) ** 1.1
        weights /= weights.sum()

        swap_done = threading.Event()
        answers: list = []
        errors: list = []
        lock = threading.Lock()

        def client(seed):
            local_rng = np.random.default_rng(seed)
            local = []
            try:
                for i in range(120):
                    if local_rng.random() < 0.3:  # keep patched rows in the mix
                        row = int(patched[local_rng.integers(0, patched.size)])
                    else:
                        row = int(local_rng.choice(store.num_rows, p=weights))
                    swapped_before_issue = swap_done.is_set()
                    block = engine.fetch([row])
                    local.append((row, block.copy(), swapped_before_issue))
            except Exception as exc:  # pragma: no cover - fails the assert below
                with lock:
                    errors.append(exc)
            with lock:
                answers.extend(local)

        with ServingEngine(store, ServingConfig()) as engine:
            threads = [threading.Thread(target=client, args=(s,)) for s in range(4)]
            for t in threads:
                t.start()
            engine.begin_update("mem1")
            engine.adopt_store(result.store, version="mem1")
            swap_done.set()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert not errors, errors
            torn = 0
            for row, block, after_swap in answers:
                old_bytes = np.ascontiguousarray(old_packed[:, [row], :]).tobytes()
                new_bytes = np.ascontiguousarray(new_packed[:, [row], :]).tobytes()
                got = block.tobytes()
                if got not in (old_bytes, new_bytes):
                    torn += 1
                elif after_swap and got != new_bytes and old_bytes != new_bytes:
                    # a request issued strictly after the swap returned must
                    # already see the new version
                    torn += 1
            assert torn == 0
            # post-swap coalesced path answers from the new version too
            row = int(patched[0])
            assert (
                engine.submit(row).result(timeout=30).tobytes()
                == np.ascontiguousarray(new_packed[:, row, :]).tobytes()
            )


# --------------------------------------------------------------------------- #
# session integration
# --------------------------------------------------------------------------- #
class TestSessionUpdates:
    def test_file_backed_session_end_to_end(self, tmp_path, small_dataset):
        import copy

        from repro.api import Session, UpdateInProgress

        dataset = copy.copy(small_dataset)
        with Session(dataset, root=tmp_path / "store") as session:
            session.preprocess(num_hops=2, mode="blocked", store_layout="packed")
            engine = session.serve(ServingConfig())
            delta = scenario_delta(dataset.graph, seed=21, feature_dim=dataset.features.shape[1])
            result = session.apply_updates(delta)
            assert result.status == "applied" and result.version == "v0001"
            assert result.engine_errors == []
            health = session.health()
            assert health["store_version"] == "v0001"
            assert health["update"]["status"] == "applied"
            assert engine.store_version == "v0001"
            # engine answers the published version's bytes
            published = FeatureStore.load(
                VersionedStore(tmp_path / "store").path_for("v0001")
            )
            rows = result.patch_rows[:4]
            if rows.size:
                got = engine.fetch(rows)
                want = np.ascontiguousarray(
                    np.asarray(published.packed_matrix())[:, rows, :]
                )
                assert got.tobytes() == want.tobytes()
            # a second update chains on the rebased snapshot
            delta2 = scenario_delta(dataset.graph, seed=22)
            result2 = session.apply_updates(delta2)
            assert result2.status == "applied" and result2.version == "v0002"
            assert engine.store_version == "v0002"
            # concurrent updates are rejected with the typed error
            assert session._update_lock.acquire(blocking=False)
            try:
                with pytest.raises(UpdateInProgress):
                    session.apply_updates(delta2)
            finally:
                session._update_lock.release()

    def test_memory_session_updates(self, small_dataset):
        import copy

        from repro.api import Session

        dataset = copy.copy(small_dataset)
        with Session(dataset) as session:
            session.preprocess(num_hops=2)
            delta = scenario_delta(dataset.graph, seed=23)
            result = session.apply_updates(delta)
            assert result.status == "applied" and result.version == "mem1"
            assert session.health()["store_version"] == "mem1"
            expected = from_scratch(
                result.new_graph,
                result.new_features,
                PropagationConfig(num_hops=2),
                session.store.node_ids,
            )
            assert np.asarray(session.store.packed_matrix()).tobytes() == expected.tobytes()
            result2 = session.apply_updates(scenario_delta(dataset.graph, seed=24))
            assert result2.version == "mem2"


# --------------------------------------------------------------------------- #
# fault-site registry and janitor awareness
# --------------------------------------------------------------------------- #
class TestFaultSurface:
    def test_update_sites_are_registered(self):
        assert set(UPDATE_SITES) <= set(KNOWN_SITES)
        plan = FaultPlan.randomized(
            0, sites=UPDATE_SITES, kinds=("error", "ioerror"), num_faults=3
        )
        assert_known_sites(plan.specs)
        assert all(spec.site in UPDATE_SITES for spec in plan.specs)

    def test_janitor_sweeps_versioned_segments(self, tmp_path):
        alive = tmp_path / f"ppgnn-serve-v3-{os.getpid()}-deadbeef"
        orphan = tmp_path / "ppgnn-serve-v7-999999999-deadbeef"
        legacy_orphan = tmp_path / "ppgnn-store-999999999-cafebabe"
        foreign = tmp_path / "not-ours.txt"
        for path in (alive, orphan, legacy_orphan, foreign):
            path.write_bytes(b"x")
        found = {p.name for p in orphaned_segments(shm_dir=tmp_path)}
        assert found == {orphan.name, legacy_orphan.name}
