"""The order of durable operations on every publish path.

A file is durable only once its bytes are fsync'd before it is renamed into
place and its directory is fsync'd after.  These tests record every
``os.fsync`` and ``os.replace`` (and the ``rmtree`` that retires an old
store) and check that order for each file the store and update paths
publish, and that a rewrite interrupted at its rename keeps the old file.
"""

from __future__ import annotations

import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.prepropagation.blocked import propagate_blocked
from repro.prepropagation.propagator import PropagationConfig
from repro.prepropagation.store import write_store
from repro.resilience.checkpoint import PhaseJournal, RunManifest
from repro.resilience.faultinject import FaultPlan, FaultSpec, InjectedFault
from repro.updates import apply_update
from repro.updates.versions import VersionedStore

from test_updates import scenario_delta, scenario_graph


@pytest.fixture
def durable_log(monkeypatch):
    """Every fsync (by the path its descriptor names), replace and rmtree, in order."""
    log = []
    real_fsync, real_replace, real_rmtree = os.fsync, os.replace, shutil.rmtree

    def fsync(fd):
        log.append(("fsync", Path(os.readlink(f"/proc/self/fd/{fd}"))))
        real_fsync(fd)

    def replace(src, dst, **kwargs):
        log.append(("replace", Path(src).resolve(), Path(dst).resolve()))
        real_replace(src, dst, **kwargs)

    def rmtree(path, *args, **kwargs):
        log.append(("rmtree", Path(path).resolve()))
        real_rmtree(path, *args, **kwargs)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    monkeypatch.setattr(shutil, "rmtree", rmtree)
    return log


def assert_published_durably(log, path: Path) -> None:
    """The last replace onto ``path`` follows an fsync of its source and is
    followed by an fsync of ``path``'s directory."""
    path = path.resolve()
    swaps = [i for i, event in enumerate(log) if event[0] == "replace" and event[2] == path]
    assert swaps, f"{path.name} was never renamed into place"
    at = swaps[-1]
    source = log[at][1]
    assert ("fsync", source) in log[:at], f"{source.name} replaced {path.name} unsynced"
    assert ("fsync", path.parent) in log[at + 1 :], f"directory of {path.name} not fsync'd after the rename"


def test_manifest_and_current_pointer_are_published_durably(tmp_path, durable_log):
    journal = PhaseJournal(tmp_path / "staging")
    journal.write_manifest(
        RunManifest(
            fingerprint="f", layout="packed", num_kernels=1, num_hops=1, num_rows=1,
            feature_dim=1, dtype="<f4", accumulate_dtype="<f4", block_size=0,
        )
    )
    versions = VersionedStore(tmp_path / "store")
    versions.set_current("v0001")
    assert_published_durably(durable_log, journal.manifest_path)
    assert_published_durably(durable_log, versions.current_path)


@pytest.mark.parametrize("record", ["update.json", "manifest.json", "CURRENT", "LAST_UPDATE.json"])
def test_update_records_are_published_durably(tmp_path, durable_log, record):
    graph = scenario_graph(num_nodes=120, num_edges=600)
    features = np.random.default_rng(0).standard_normal((120, 4)).astype(np.float32)
    config = PropagationConfig(num_hops=2)
    node_ids = np.arange(120, dtype=np.int64)
    propagate_blocked(graph, features, config, node_ids=node_ids, root=tmp_path / "store", block_size=40)
    delta = scenario_delta(graph, feature_dim=4)
    assert apply_update(tmp_path / "store", graph, features, delta, config).status == "applied"
    versions = VersionedStore(tmp_path / "store")
    directory = versions.staging_root if record in ("update.json", "manifest.json") else versions.versions_root
    assert_published_durably(durable_log, directory / record)


@pytest.mark.parametrize("replacing", [False, True])
def test_write_store_fsyncs_before_the_swap_and_the_parent_after(tmp_path, durable_log, replacing):
    root = tmp_path / "store"
    packed = np.arange(24, dtype=np.float32).reshape(2, 4, 3)
    node_ids = np.arange(4, dtype=np.int64)
    if replacing:
        write_store(root, packed, node_ids, num_kernels=1)
        durable_log.clear()
    write_store(root, packed + 1, node_ids, num_kernels=1)
    (swap,) = [i for i, e in enumerate(durable_log) if e[0] == "replace" and e[2] == root.resolve()]
    staging = durable_log[swap][1]
    before, after = durable_log[:swap], durable_log[swap + 1 :]
    for name in ("packed.npy", "node_ids.npy", "meta.json"):
        assert ("fsync", staging / name) in before, name
    assert ("fsync", staging) in before
    assert ("fsync", root.parent.resolve()) in after
    if replacing:
        retired = [e[1] for e in after if e[0] == "rmtree" and e[1].name.startswith(".store.old-")]
        assert retired, "the old store was not retired"
        assert after.index(("fsync", root.parent.resolve())) < after.index(("rmtree", retired[-1]))
    assert np.array_equal(np.load(root / "packed.npy"), packed + 1)


def test_journal_prefix_rewrite_is_atomic(tmp_path, monkeypatch):
    """A resume that trusts a shorter journal prefix rewrites the journal through
    ``atomic_write_text``: a crash at the rename keeps the old journal whole, and
    the temp file it left is not published with the store."""
    graph = scenario_graph(num_nodes=120, num_edges=600)
    features = np.random.default_rng(0).standard_normal((120, 4)).astype(np.float32)
    config = PropagationConfig(num_hops=2)
    node_ids = np.arange(120, dtype=np.int64)
    root = tmp_path / "store"

    def propagate(**kwargs):
        return propagate_blocked(
            graph, features, config, node_ids=node_ids, root=root, block_size=40, resume=True, **kwargs
        )

    plan = FaultPlan(specs=[FaultSpec(site="blocked.phase.complete", kind="error", at_hit=2)])
    with pytest.raises(InjectedFault):
        propagate(fault_plan=plan)
    staging = tmp_path / ".store.staging"
    journal = PhaseJournal(staging)
    journaled = journal.entries()
    assert len(journaled) == 2
    # damage the first phase's store rows: resume trusts an empty prefix and rewrites
    packed = np.load(staging / "packed.npy", mmap_mode="r+")
    packed[0, 0, 0] += 1.0
    packed.flush()
    del packed

    real_replace = os.replace

    def crash_on_journal(src, dst, **kwargs):
        if Path(dst).name == journal.journal_path.name:
            raise OSError("crash at the journal rename")
        real_replace(src, dst, **kwargs)

    monkeypatch.setattr(os, "replace", crash_on_journal)
    with pytest.raises(OSError, match="journal rename"):
        propagate()
    assert journal.entries() == journaled
    monkeypatch.setattr(os, "replace", real_replace)

    store, timing = propagate()
    assert timing["phases_resumed"] == 0
    assert sorted(path.name for path in root.iterdir()) == ["meta.json", "node_ids.npy", "packed.npy"]
    reference, _ = propagate_blocked(graph, features, config, node_ids=node_ids)
    assert np.array_equal(store.packed_matrix(), reference.packed_matrix())
