"""The workloads: what each feeds the program and why it was chosen.

``GATED`` names the three that ``BENCHMARK.json`` lists and the driver runs; the fourth,
``papers_blocked``, is run by hand (``--workload papers_blocked``, or no ``--workload``):
the driver's time limit leaves room for three workloads at a run length that is steady
enough on a shared host (README, "Measured spreads").

Every workload runs the same ``Session`` lifecycle (preprocess → train →
serve closed loop → serve open loop → update → serve again); they differ in
the *shape* of the input, so that each one makes a different layer do most of
the work and lets another do almost none.  Inputs are made from the seed
only; the program never sees the seed, just the generated graph, request
streams and deltas.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp


@dataclass(frozen=True)
class Workload:
    """One input shape.  Counts are per pass; ``smoke_*`` shrink the smoke run."""

    name: str
    why: str
    dataset: str  # a replica name for ``open_dataset``, or "ring" (built here)
    num_nodes: int
    smoke_nodes: int
    num_hops: int
    model: str
    epochs: int
    loader: dict
    cache_capacity: int
    #: Zipf exponent of the request stream; ``None`` = uniform ids
    zipf: Optional[float]
    closed_requests: int
    open_rate: float
    #: ``apply_updates`` calls per pass, and how many of the first are untimed
    updates: int
    untimed_updates: int
    #: run the open-loop reader on its own thread *beside* the updates
    churn: bool = False
    mode: str = "in_core"
    preprocess_kwargs: dict = field(default_factory=dict)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="igbm_lifecycle",
            why="every layer once in Session order: model-bound training, Python-bound cached "
            "serving (Zipf, ~2/3 hits), patch-bound two-event update",
            dataset="igb-medium",
            num_nodes=12_000,
            smoke_nodes=1_000,
            num_hops=3,
            model="sign",
            epochs=3,
            loader=dict(strategy="fused", packed=True, reuse_buffers=True, num_buffers=4, prefetch=True),
            cache_capacity=1_024,
            zipf=1.1,
            closed_requests=20_000,
            open_rate=8_000.0,
            updates=1,
            untimed_updates=0,
        ),
        Workload(
            name="wiki_expand",
            why="input expansion: 7 hop matrices of 600-dim rows, so SpMM, store write, batch "
            "assembly and the cache-missing gather dominate and the model does least",
            dataset="wiki",
            num_nodes=4_000,
            smoke_nodes=500,
            num_hops=6,
            model="sgc",
            epochs=8,
            loader=dict(strategy="fused", packed=True),
            cache_capacity=128,
            zipf=None,
            closed_requests=12_000,
            open_rate=4_000.0,
            updates=1,
            untimed_updates=0,
        ),
        Workload(
            name="papers_blocked",
            why="preprocessing wall: 1.4% labeled, blocked out-of-core SpMM dominates while store, "
            "loader and gather do almost nothing; all-hit cache path; bypass for gather/assembly work",
            dataset="papers100m",
            num_nodes=40_000,
            smoke_nodes=4_000,
            num_hops=4,
            model="sign",
            epochs=12,
            loader=dict(strategy="fused", packed=True, num_workers=2, prefetch=True),
            cache_capacity=4_096,
            zipf=0.8,
            closed_requests=20_000,
            open_rate=8_000.0,
            updates=1,
            untimed_updates=0,
            mode="blocked",
            preprocess_kwargs=dict(block_size=8_192),
        ),
        Workload(
            name="ring_churn",
            why="writes beside reads: small-frontier window deltas on a ring, so clone, verify, "
            "publish and the engine swap dominate updates while an open-loop reader keeps serving",
            dataset="ring",
            num_nodes=12_000,
            smoke_nodes=1_000,
            num_hops=3,
            model="sign",
            epochs=1,
            loader=dict(strategy="fused", packed=True),
            cache_capacity=1_024,
            zipf=1.1,
            closed_requests=10_000,
            open_rate=6_000.0,
            updates=8,
            untimed_updates=2,
            churn=True,
        ),
    )
}

#: the workloads of ``BENCHMARK.json``
GATED = ("igbm_lifecycle", "wiki_expand", "ring_churn")

#: ring graph: node i is adjacent to i ± 1..RING_REACH
RING_REACH = 20
RING_FEATURES = 256
RING_CLASSES = 8
#: window delta shape (ids in one contiguous window)
WINDOW_NODES = 240
WINDOW_INSERTS = 30
WINDOW_DELETES = 10
WINDOW_FEATURE_ROWS = 16


def ring_dataset(seed: int, num_nodes: int):
    """Circulant ring with random features, arc-shaped classes, all nodes labeled."""
    from repro.datasets.splits import random_split
    from repro.datasets.synthetic import NodeClassificationDataset
    from repro.graph.csr import CSRGraph

    rng = np.random.default_rng([seed, 0x52494E47])
    offsets = np.concatenate([np.arange(1, RING_REACH + 1), -np.arange(1, RING_REACH + 1)])
    src = np.repeat(np.arange(num_nodes), offsets.size)
    dst = (src + np.tile(offsets, num_nodes)) % num_nodes
    adjacency = sp.csr_matrix((np.ones(src.size), (src, dst)), shape=(num_nodes, num_nodes))
    return NodeClassificationDataset(
        name="ring",
        graph=CSRGraph.from_scipy(adjacency, name="ring"),
        features=rng.standard_normal((num_nodes, RING_FEATURES), dtype=np.float32),
        labels=np.arange(num_nodes) * RING_CLASSES // num_nodes,
        split=random_split(num_nodes, (0.6, 0.2, 0.2), seed=rng),
        num_classes=RING_CLASSES,
    )


def build_dataset(workload: Workload, seed: int, smoke: bool = False):
    """Generate the workload's dataset from ``seed`` (never cached)."""
    num_nodes = workload.smoke_nodes if smoke else workload.num_nodes
    if workload.dataset == "ring":
        return ring_dataset(seed, num_nodes)
    from repro.api import open_dataset

    return open_dataset(workload.dataset, seed=seed, num_nodes=num_nodes, use_cache=False)


#: change points of an event delta, each in its own neighbourhood
EVENTS = 2


def event_delta(rng: np.random.Generator, graph, num_features: int):
    """Two scattered events, each one edge in, one edge out and one feature row.

    Endpoints are drawn among nodes of median degree so that the size of the
    affected frontier depends on the graph's shape, not on whether the draw
    happened to hit a hub.
    """
    from repro.api import GraphDelta

    degree = np.diff(graph.indptr)
    typical = np.flatnonzero(degree == int(np.median(degree)))
    insertions, deletions = [], []
    for u in rng.choice(typical, size=EVENTS, replace=False).tolist():
        neighbors = graph.indices[graph.indptr[u] : graph.indptr[u + 1]]
        insertions.append([u, int(rng.choice(np.setdiff1d(typical, np.append(neighbors, u))))])
        deletions.append([u, int(rng.choice(neighbors))])
    return GraphDelta(
        insertions=insertions,
        deletions=deletions,
        feature_nodes=[u for u, _ in insertions],
        feature_values=rng.standard_normal((EVENTS, num_features), dtype=np.float32),
    )


def window_delta(rng: np.random.Generator, graph, num_features: int):
    """A burst of inserts, deletes and feature rows inside one id window."""
    from repro.api import GraphDelta

    n = graph.num_nodes
    window = min(WINDOW_NODES, n // 2)
    base = int(rng.integers(0, n))
    near = RING_REACH + 1
    # inserts join nodes further apart than the ring reaches; deletes name ring edges
    a = base + rng.integers(0, window - 2 * near, size=WINDOW_INSERTS)
    b = a + rng.integers(near, 2 * near, size=WINDOW_INSERTS)
    c = base + rng.integers(0, window - near, size=WINDOW_DELETES)
    d = c + rng.integers(1, near, size=WINDOW_DELETES)
    rows = base + rng.choice(window, size=WINDOW_FEATURE_ROWS, replace=False)
    return GraphDelta(
        insertions=np.stack([a, b], axis=1) % n,
        deletions=np.stack([c, d], axis=1) % n,
        feature_nodes=rows % n,
        feature_values=rng.standard_normal((WINDOW_FEATURE_ROWS, num_features), dtype=np.float32),
    )


def make_delta(workload: Workload, rng: np.random.Generator, graph, num_features: int):
    """The workload's kind of delta: an id window on the ring (where neighbouring
    ids are neighbouring nodes), one event on the replicas."""
    generator = window_delta if workload.dataset == "ring" else event_delta
    return generator(rng, graph, num_features)
