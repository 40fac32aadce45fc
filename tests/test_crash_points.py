"""Crash consistency at every durable operation of the commit protocol.

After Pillai et al., "All File Systems Are Not Created Equal" (OSDI 2014).
Each scenario runs once under a recorder that counts its durable operations:
every top-level call of ``os.replace``, ``os.rename``, ``os.fsync``,
``os.unlink``, ``shutil.copytree`` and ``shutil.rmtree`` (what ``shutil``
does inside one call is part of that call).  Then, for every prefix ``k`` of
those ``N`` operations, a forked child runs the scenario and calls
``os._exit`` just before operation ``k``: like a SIGKILL, no ``finally``
runs and no buffered write lands.  After each crash:

* a reader — ``FeatureStore.load`` of the store, or of the version
  ``CURRENT`` names — gets the old bytes, the new bytes or a typed error,
  never other bytes;
* the recovery a user would run — the same call again: rerun the build
  (``resume=True`` for the resumable one), retry ``apply_update``, rerun
  ``prune`` — leaves the store byte-identical to a
  from-scratch propagation and the directory tree exactly as an
  uninterrupted run leaves it: no ``.staging*``, ``.old-*``, temp or
  ``ppgnn-propagate-*`` scratch entry survives.

The recording pass also checks that every rename, replace and tree copy is
issued from :mod:`repro.resilience.durable`.  A crash here ends the process,
not the machine: data written but not fsync'd survives it, so this checks
the order of the renames, not where the fsyncs sit.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import signal
import sys
import sysconfig
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Tuple

import numpy as np
import pytest

import repro.resilience.durable as durable
from repro.prepropagation.blocked import propagate_blocked
from repro.prepropagation.propagator import PropagationConfig
from repro.prepropagation.store import FeatureStore
from repro.resilience.faultinject import FaultPlan, FaultSpec
from repro.updates import VersionedStore, apply_delta, apply_update

from test_updates import from_scratch, scenario_delta, scenario_graph

#: every durable operation the recorder counts, as ``(module, name)``
_OPERATIONS = (
    (os, "replace"),
    (os, "rename"),
    (os, "fsync"),
    (os, "unlink"),
    (shutil, "copytree"),
    (shutil, "rmtree"),
)
#: the operations only :mod:`repro.resilience.durable` may issue
_PUBLISHING = {"replace", "rename", "copytree"}
_STDLIB = sysconfig.get_paths()["stdlib"]
_SITE_PACKAGES = sysconfig.get_paths()["purelib"]
#: the exit status of a child that crashed where it was told to
_CRASHED = 77
_CHILD_TIMEOUT_SECONDS = 60.0


def _first_caller_outside_stdlib() -> str:
    frame = sys._getframe(2)
    while frame is not None:
        name = frame.f_code.co_filename
        if not name.startswith(_STDLIB) or name.startswith(_SITE_PACKAGES):
            return name
        frame = frame.f_back
    return "<stdlib>"


class Recorder:
    """Counts durable operations; with ``crash_at`` set, exits before that one."""

    def __init__(self, crash_at: Optional[int] = None) -> None:
        self.crash_at = crash_at
        self.operations: List[Tuple[str, str]] = []  # (operation, calling file)
        self._inside = 0

    def _wrap(self, name: str, real: Callable) -> Callable:
        def operation(*args, **kwargs):
            if self._inside:  # part of an enclosing shutil call
                return real(*args, **kwargs)
            if len(self.operations) == self.crash_at:
                os._exit(_CRASHED)
            self.operations.append((name, _first_caller_outside_stdlib()))
            self._inside += 1
            try:
                return real(*args, **kwargs)
            finally:
                self._inside -= 1

        return operation

    @contextlib.contextmanager
    def installed(self):
        saved = [(module, name, getattr(module, name)) for module, name in _OPERATIONS]
        for module, name, real in saved:
            setattr(module, name, self._wrap(name, real))
        try:
            yield self
        finally:
            for module, name, real in saved:
                setattr(module, name, real)


def _in_child(run: Callable[[], None], crash_at: Optional[int] = None) -> int:
    """Run ``run`` in a forked child (crashing before operation ``crash_at``); its exit code."""
    pid = os.fork()
    if pid == 0:  # pragma: no cover - the child never returns into pytest
        status = 0
        try:
            if crash_at is None:
                run()
            else:
                with Recorder(crash_at).installed():
                    run()
        except BaseException:
            status = 1
        os._exit(status)
    deadline = time.monotonic() + _CHILD_TIMEOUT_SECONDS
    while True:
        reaped, status = os.waitpid(pid, os.WNOHANG)
        if reaped:
            return os.waitstatus_to_exitcode(status)
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail(f"forked run still going after {_CHILD_TIMEOUT_SECONDS} s")
        time.sleep(0.001)


def _tree(root: Path) -> List[str]:
    return sorted(path.relative_to(root).as_posix() for path in root.rglob("*"))


def _bytes(store: FeatureStore) -> bytes:
    return np.asarray(store.packed_matrix()).tobytes()


# --------------------------------------------------------------------------- #
# scenarios: the 200-node sizes of test_updates.TestCrashSafety.crash_scenario
GRAPH = scenario_graph(num_nodes=200, num_edges=1200)
_RNG = np.random.default_rng(5)
FEATURES = _RNG.standard_normal((200, 6)).astype(np.float32)
NODE_IDS = np.unique(_RNG.integers(0, 200, 120))
CONFIG = PropagationConfig(num_hops=2)
DELTA = scenario_delta(GRAPH, seed=8)
NEW_GRAPH = apply_delta(GRAPH, DELTA)


def _build(work: Path, graph, block_size: int = 50, **kwargs) -> None:
    propagate_blocked(
        graph, FEATURES, CONFIG, node_ids=NODE_IDS, root=work / "store",
        block_size=block_size, scratch_dir=work / "scratch", **kwargs,
    )


def _read_root(work: Path) -> FeatureStore:
    return FeatureStore.load(work / "store")


def _read_current(work: Path) -> FeatureStore:
    versions = VersionedStore(work / "store")
    return FeatureStore.load(versions.path_for(versions.current_version()))


def _update(work: Path, graph=GRAPH, delta=DELTA) -> None:
    apply_update(work / "store", graph, FEATURES, delta, CONFIG)


def _chain(length: int = 3):
    """Graphs and deltas of ``length`` chained updates from ``GRAPH``."""
    graphs, deltas = [GRAPH], []
    for seed in range(8, 8 + length):
        deltas.append(scenario_delta(graphs[-1], seed=seed))
        graphs.append(apply_delta(graphs[-1], deltas[-1]))
    return graphs, deltas


CHAIN_GRAPHS, CHAIN_DELTAS = _chain()


def _three_versions(work: Path) -> None:
    _build(work, GRAPH)
    for graph, delta in zip(CHAIN_GRAPHS, CHAIN_DELTAS):
        _update(work, graph, delta)


@dataclass(frozen=True)
class Scenario:
    """A run over the tree ``setup`` leaves; running it again is its recovery."""

    name: str
    setup: Callable[[Path], None]
    run: Callable[[Path], None]
    read: Callable[[Path], FeatureStore]
    #: the graph the store holds before the run and after it
    old_graph: object
    new_graph: object


SCENARIOS = [
    Scenario(
        "one_shot_build",
        setup=lambda work: _build(work, GRAPH),
        run=lambda work: _build(work, NEW_GRAPH),
        read=_read_root,
        old_graph=GRAPH,
        new_graph=NEW_GRAPH,
    ),
    Scenario(
        "one_block_build",
        setup=lambda work: _build(work, GRAPH),
        run=lambda work: _build(work, NEW_GRAPH, block_size=200),
        read=_read_root,
        old_graph=GRAPH,
        new_graph=NEW_GRAPH,
    ),
    Scenario(
        "resumable_build",
        setup=lambda work: _build(work, GRAPH),
        run=lambda work: _build(work, NEW_GRAPH, resume=True),
        read=_read_root,
        old_graph=GRAPH,
        new_graph=NEW_GRAPH,
    ),
    Scenario(
        "apply_update",
        setup=lambda work: _build(work, GRAPH),
        run=_update,
        read=_read_current,
        old_graph=GRAPH,
        new_graph=NEW_GRAPH,
    ),
    Scenario(
        "prune",
        setup=_three_versions,
        run=lambda work: VersionedStore(work / "store").prune(keep=0),
        read=_read_current,
        old_graph=CHAIN_GRAPHS[-1],
        new_graph=CHAIN_GRAPHS[-1],
    ),
]


@pytest.fixture(scope="module")
def oracle():
    cache = {}

    def bytes_of(graph) -> bytes:
        if id(graph) not in cache:
            cache[id(graph)] = from_scratch(graph, FEATURES, CONFIG, NODE_IDS).tobytes()
        return cache[id(graph)]

    return bytes_of


@pytest.fixture
def template(tmp_path):
    """A scenario's starting tree, and a fresh copy of it per crash."""

    def make(scenario: Scenario) -> Callable[[str], Path]:
        base = tmp_path / "template"
        (base / "scratch").mkdir(parents=True)
        scenario.setup(base)

        def copy(name: str) -> Path:
            work = tmp_path / name
            shutil.copytree(base, work)
            return work

        return copy

    return make


def _record(scenario: Scenario, work: Path) -> Recorder:
    with Recorder().installed() as recorder:
        scenario.run(work)
    return recorder


def _assert_old_new_or_typed_error(scenario: Scenario, work: Path, old: bytes, new: bytes) -> None:
    try:
        store = scenario.read(work)
    except (FileNotFoundError, ValueError):
        return  # a missing or torn store is refused, not read
    assert _bytes(store) in (old, new), "a reader saw bytes of neither the old nor the new store"


@pytest.mark.parametrize("scenario", SCENARIOS, ids=[s.name for s in SCENARIOS])
def test_every_crash_prefix_recovers(scenario, template, oracle):
    copy = template(scenario)
    old, new = oracle(scenario.old_graph), oracle(scenario.new_graph)

    clean = copy("clean")
    recorder = _record(scenario, clean)
    assert _bytes(scenario.read(clean)) == new
    expected_tree = _tree(clean)
    strays = [(op, caller) for op, caller in recorder.operations
              if op in _PUBLISHING and Path(caller) != Path(durable.__file__)]
    assert not strays, f"renames, replaces and tree copies outside durable.py: {strays}"
    count = len(recorder.operations)
    assert count > 0

    for k in range(count):
        work = copy(f"crash-{k}")
        assert _in_child(lambda: scenario.run(work), crash_at=k) == _CRASHED, (
            f"{scenario.name}: the run did not reach operation {k} of {count}"
        )
        _assert_old_new_or_typed_error(scenario, work, old, new)
        scenario.run(work)
        assert _bytes(scenario.read(work)) == new, f"{scenario.name}: prefix {k} of {count}"
        assert _tree(work) == expected_tree, f"{scenario.name}: prefix {k} of {count} left debris"
        shutil.rmtree(work)


# --------------------------------------------------------------------------- #
# regressions the enumeration found, each named after its scenario and prefix
_BUILDS = {scenario.name: scenario for scenario in SCENARIOS[:3]}


def _crash_before(scenario: Scenario, copy, select: Callable[[List[str]], int]) -> Path:
    """A copy of the scenario's tree, crashed before the operation ``select`` picks."""
    operations = [op for op, _ in _record(scenario, copy("clean")).operations]
    work = copy("crash")
    assert _in_child(lambda: scenario.run(work), crash_at=select(operations)) == _CRASHED
    return work


@pytest.mark.parametrize("name", ["one_shot_build", "resumable_build"])
def test_build_crash_between_the_store_renames(name, template, oracle):
    """Prefix: the old store moved aside, the new one not yet renamed in.
    ``root`` is missing and refused until the next install; the aside copy
    of the dead process does not outlive the recovery."""
    scenario = _BUILDS[name]
    last_replace = lambda ops: max(i for i, op in enumerate(ops) if op == "replace")
    work = _crash_before(scenario, template(scenario), last_replace)
    assert not (work / "store").exists()
    assert len([path for path in work.iterdir() if path.name.startswith(".store.old-")]) == 1
    with pytest.raises(FileNotFoundError):
        _read_root(work)
    scenario.run(work)
    assert _bytes(_read_root(work)) == oracle(NEW_GRAPH)
    assert sorted(path.name for path in work.iterdir()) == ["scratch", "store"]


def test_one_block_build_crash_before_its_first_fsync(template, oracle):
    """Prefix: the pid-named staging made, nothing in it fsync'd or installed.
    The rerun removes the dead process's staging."""
    scenario = _BUILDS["one_block_build"]
    work = _crash_before(scenario, template(scenario), lambda ops: ops.index("fsync"))
    assert [path.name for path in work.iterdir() if path.name.startswith(".store.staging-")]
    assert _bytes(_read_root(work)) == oracle(GRAPH)
    scenario.run(work)
    assert _bytes(_read_root(work)) == oracle(NEW_GRAPH)
    assert sorted(path.name for path in work.iterdir()) == ["scratch", "store"]


def test_one_shot_build_killed_mid_phase_leaves_no_staging_or_scratch(tmp_path, oracle):
    """A SIGKILLed multi-block build leaves its pid-named staging (with the
    streamed ``packed.npy``) beside the store and its ping/pong scratch in the
    temp dir; the next build removes both."""
    work = tmp_path / "work"
    (work / "scratch").mkdir(parents=True)
    _build(work, GRAPH)
    plan = FaultPlan(specs=[FaultSpec(site="blocked.phase.complete", kind="kill", at_hit=2)])
    assert _in_child(lambda: _build(work, NEW_GRAPH, fault_plan=plan)) == -9
    assert any(path.name.startswith(".store.staging-") for path in work.iterdir())
    assert any((work / "scratch").glob("ppgnn-propagate-*"))
    _build(work, NEW_GRAPH)
    assert _bytes(_read_root(work)) == oracle(NEW_GRAPH)
    assert sorted(path.name for path in work.iterdir()) == ["scratch", "store"]
    assert list((work / "scratch").iterdir()) == []


def test_prune_killed_at_its_second_unlink_leaves_every_listed_version_loadable(template, oracle):
    """Prefix: ``prune(keep=0)`` of three versions, SIGKILLed at the second
    ``os.unlink`` of its tree removal.  A version is renamed aside before it
    is removed, so what ``list_versions`` still lists is whole; the rerun
    sweeps the dead process's aside."""
    scenario = next(s for s in SCENARIOS if s.name == "prune")
    copy = template(scenario)
    work = copy("crash")

    def killed_at_second_unlink() -> None:
        real, calls = os.unlink, []

        def unlink(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(*args, **kwargs)

        os.unlink = unlink
        scenario.run(work)

    assert _in_child(killed_at_second_unlink) == -signal.SIGKILL
    versions = VersionedStore(work / "store")
    listed = versions.list_versions()
    assert "v0003" in listed
    for version in listed:
        FeatureStore.load(versions.path_for(version))
    scenario.run(work)
    clean = copy("clean")
    scenario.run(clean)
    assert versions.list_versions() == ["v0003"]
    assert _bytes(_read_current(work)) == oracle(CHAIN_GRAPHS[-1])
    assert _tree(work) == _tree(clean), "the rerun left the dead prune's aside behind"
