"""Shared fixtures for the test suite.

Datasets are small (hundreds to a few thousand nodes) and cached at module
scope so the full suite stays fast while still exercising real training.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.datasets.registry import load_dataset
from repro.graph.builders import from_edge_index, symmetrize
from repro.prepropagation.pipeline import PreprocessingPipeline
from repro.prepropagation.propagator import PropagationConfig


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def tiny_graph():
    """A small, connected, undirected graph with 8 nodes."""
    edges = np.array(
        [
            [0, 1], [1, 2], [2, 3], [3, 0],
            [4, 5], [5, 6], [6, 7], [7, 4],
            [0, 4], [2, 6], [1, 5],
        ]
    ).T
    return symmetrize(from_edge_index(edges, num_nodes=8, name="tiny"))


@pytest.fixture(scope="session")
def small_dataset():
    """A ~1500-node products replica used by most training tests."""
    return load_dataset("products", seed=7, num_nodes=1500)


@pytest.fixture(scope="session")
def small_pokec():
    """A small binary-label dataset (2 classes)."""
    return load_dataset("pokec", seed=3, num_nodes=1200)


@pytest.fixture(scope="session")
def prepared_store(small_dataset):
    """Pre-propagated features (2 hops) for the small products replica."""
    config = PropagationConfig(num_hops=2)
    return PreprocessingPipeline(config).run(small_dataset)


@pytest.fixture()
def legacy_store():
    """Write a per-hop store directory the way releases before the packed-only
    format did: ``hop_XX.npy`` files, ``node_ids.npy`` and, unless ``layout``
    is ``None``, a ``meta.json`` naming that layout."""

    def write(root, layout="hops", num_rows=6, num_hops=2):
        root.mkdir(parents=True)
        rng = np.random.default_rng(1)
        for hop in range(num_hops + 1):
            matrix = rng.standard_normal((num_rows, 2)).astype(np.float32)
            np.save(root / f"hop_{hop:02d}.npy", matrix)
        np.save(root / "node_ids.npy", np.arange(num_rows))
        if layout is not None:
            meta = {"version": 2, "layout": layout, "num_kernels": 1, "num_hops": num_hops}
            (root / "meta.json").write_text(json.dumps(meta))
        return root

    return write
