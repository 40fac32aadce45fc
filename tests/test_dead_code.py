"""Guard against library code nothing runs.

Every top-level function and class in ``src/repro`` must be referenced from
somewhere that runs: another place in ``src/`` (outside its own definition
and the package ``__init__`` re-exports), ``bench/``, ``benchmarks/`` or
``examples/``.  Tests alone do not keep a symbol alive.  The paper-surface
modules are exempt as a whole, and each further exception carries its reason.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
CALLERS = ("bench", "benchmarks", "examples")

#: The paper-reproduction surface: datasets, models, cost models, the
#: fig/tab replicas and the baselines they compare against.
PAPER_SURFACE = (
    "analysis/",
    "datasets/",
    "experiments/",
    "hardware/",
    "models/",
    "dataloading/cost_model.py",
    "training/breakdown.py",
    "training/multi_gpu.py",
)

#: ``module:symbol`` -> why it stays although nothing in ``src/`` runs it.
EXCEPTIONS = {
    "resilience/faultinject.py:assert_known_sites": "the fault tests guard their site names with it",
}


def _definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node


def _reads(node: ast.AST) -> set[str]:
    """Every identifier ``node`` reads, by bare name or as an attribute.

    Import statements and ``__all__`` strings are not reads, so a package
    ``__init__`` that only re-exports a symbol does not keep it alive.
    """
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def unreached_symbols() -> list[str]:
    """``module:symbol`` for each top-level definition nothing else reads."""
    called: set[str] = set()
    for directory in CALLERS:
        for path in (ROOT / directory).rglob("*.py"):
            called |= _reads(ast.parse(path.read_text()))
    modules = {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.rglob("*.py"))}
    # what each top-level statement of src/ reads, and how many read each name
    reads = {id(node): _reads(node) for tree in modules.values() for node in tree.body}
    readers = Counter(name for names in reads.values() for name in names)
    dead = []
    for path, tree in modules.items():
        rel = path.relative_to(PACKAGE).as_posix()
        if rel.startswith(PAPER_SURFACE):
            continue
        for defn in _definitions(tree):
            own = 1 if defn.name in reads[id(defn)] else 0
            if defn.name in called or readers[defn.name] > own or f"{rel}:{defn.name}" in EXCEPTIONS:
                continue
            dead.append(f"{rel}:{defn.name}")
    return dead


def test_every_library_symbol_is_reached():
    dead = unreached_symbols()
    assert not dead, "unreached outside tests (delete, or list in EXCEPTIONS with a reason): " + ", ".join(dead)


def test_exceptions_name_symbols_that_exist():
    for key in EXCEPTIONS:
        rel, name = key.split(":")
        tree = ast.parse((PACKAGE / rel).read_text())
        assert name in {d.name for d in _definitions(tree)}, key
