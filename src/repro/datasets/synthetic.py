"""Synthetic node-classification dataset replicas.

Each replica mirrors one of the paper's benchmarks at reduced scale while
preserving the structural knobs that drive the paper's accuracy trends:

* the label structure is planted through a stochastic block model whose
  intra/inter-block edge probabilities set the **homophily** level;
* node features are noisy projections of the label signal plus *neighborhood*
  signal, so aggregating more hops genuinely improves class separability
  (this reproduces "larger receptive field helps" from Figure 2);
* class counts, feature dimensions, labeled fractions and split fractions
  follow Table 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.datasets.catalog import PaperDatasetInfo, paper_dataset_info
from repro.datasets.splits import Split, random_split
from repro.graph.csr import CSRGraph
from repro.graph.generators import stochastic_block_model
from repro.graph.operators import normalized_adjacency
from repro.utils.rng import SeedLike, new_rng


@dataclass
class NodeClassificationDataset:
    """An in-memory node classification dataset.

    Attributes
    ----------
    graph:
        The (undirected) graph in CSR form.
    features:
        ``(num_nodes, num_features)`` float32 node features.
    labels:
        ``(num_nodes,)`` integer labels.
    split:
        Train/valid/test node index sets.
    info:
        Paper-scale statistics of the benchmark this dataset replicates, used
        by the hardware cost models; ``None`` for ad-hoc datasets.
    """

    name: str
    graph: CSRGraph
    features: np.ndarray
    labels: np.ndarray
    split: Split
    num_classes: int
    info: Optional[PaperDatasetInfo] = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float32)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.shape[0] != self.graph.num_nodes:
            raise ValueError("features row count must equal num_nodes")
        if self.labels.shape[0] != self.graph.num_nodes:
            raise ValueError("labels length must equal num_nodes")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    @property
    def num_features(self) -> int:
        return int(self.features.shape[1])

    def feature_bytes(self) -> int:
        """In-memory footprint of the raw feature matrix."""
        return int(self.features.nbytes)

    def summary(self) -> dict:
        return {
            "name": self.name,
            "num_nodes": self.num_nodes,
            "num_edges": self.graph.num_edges,
            "num_features": self.num_features,
            "num_classes": self.num_classes,
            "train": int(self.split.train.size),
            "valid": int(self.split.valid.size),
            "test": int(self.split.test.size),
        }


# --------------------------------------------------------------------------- #
# Replica recipes: (num_nodes, avg_degree, homophily strength, feature noise)
# Scaled ~100x (medium) to ~1000x (large) below paper size; proportions kept.
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ReplicaRecipe:
    paper_key: str
    num_nodes: int
    avg_degree: float
    intra_ratio: float  # p_in / p_out — controls homophily
    feature_signal: float  # fraction of feature variance explained by the label
    neighbor_signal: float  # extra signal recoverable only by aggregation
    num_classes: int
    num_features: int
    labeled_fraction: float
    split: tuple[float, float, float]


REPLICA_RECIPES: dict[str, ReplicaRecipe] = {
    "products": ReplicaRecipe(
        paper_key="products", num_nodes=24_000, avg_degree=25.0, intra_ratio=14.0,
        feature_signal=0.35, neighbor_signal=0.8, num_classes=47, num_features=100,
        labeled_fraction=1.0, split=(0.08, 0.02, 0.90),
    ),
    "pokec": ReplicaRecipe(
        paper_key="pokec", num_nodes=16_000, avg_degree=18.0, intra_ratio=5.0,
        feature_signal=0.25, neighbor_signal=0.6, num_classes=2, num_features=65,
        labeled_fraction=1.0, split=(0.5, 0.25, 0.25),
    ),
    "wiki": ReplicaRecipe(
        paper_key="wiki", num_nodes=19_000, avg_degree=60.0, intra_ratio=3.0,
        feature_signal=0.2, neighbor_signal=0.5, num_classes=5, num_features=600,
        labeled_fraction=1.0, split=(0.5, 0.25, 0.25),
    ),
    "papers100m": ReplicaRecipe(
        paper_key="papers100m", num_nodes=60_000, avg_degree=14.0, intra_ratio=10.0,
        feature_signal=0.3, neighbor_signal=0.7, num_classes=172, num_features=128,
        labeled_fraction=0.014, split=(0.78, 0.08, 0.14),
    ),
    "igb-medium": ReplicaRecipe(
        paper_key="igb-medium", num_nodes=20_000, avg_degree=12.0, intra_ratio=8.0,
        feature_signal=0.3, neighbor_signal=0.7, num_classes=19, num_features=256,
        labeled_fraction=1.0, split=(0.6, 0.2, 0.2),
    ),
    "igb-large": ReplicaRecipe(
        paper_key="igb-large", num_nodes=40_000, avg_degree=12.0, intra_ratio=8.0,
        feature_signal=0.3, neighbor_signal=0.7, num_classes=19, num_features=256,
        labeled_fraction=1.0, split=(0.6, 0.2, 0.2),
    ),
}


def _planted_features(
    graph: CSRGraph,
    labels: np.ndarray,
    num_classes: int,
    num_features: int,
    feature_signal: float,
    neighbor_signal: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Generate features where part of the label signal lives on neighbors.

    Construction: each class gets a random prototype direction.  A node's raw
    feature is ``feature_signal * prototype[label] + noise``.  We then blend in
    one round of neighbor-averaged prototypes scaled by ``neighbor_signal`` *of
    the neighbors' labels*, so classifiers that aggregate neighborhood
    information (more hops) recover strictly more signal than feature-only
    models — the mechanism behind Figure 2's accuracy-vs-hops trend.
    """
    prototypes = rng.standard_normal((num_classes, num_features))
    prototypes /= np.linalg.norm(prototypes, axis=1, keepdims=True)
    noise = rng.standard_normal((graph.num_nodes, num_features))
    own = prototypes[labels]
    features = feature_signal * own + noise

    if neighbor_signal > 0:
        # Average of neighbor prototypes (exact, sparse matvec).
        operator = normalized_adjacency(graph, add_self_loop=False, make_undirected=False)
        neighbor_proto = operator @ prototypes[labels]
        features = features + neighbor_signal * neighbor_proto
    return features.astype(np.float32)


def make_synthetic_dataset(
    name: str,
    seed: SeedLike = 0,
    num_nodes: Optional[int] = None,
) -> NodeClassificationDataset:
    """Build the named synthetic replica (see :data:`REPLICA_RECIPES`).

    ``num_nodes`` overrides the recipe's node count (useful for quick tests);
    class and feature dimensions stay as in the recipe.
    """
    key = name.lower()
    if key not in REPLICA_RECIPES:
        raise KeyError(f"unknown dataset {name!r}; available: {sorted(REPLICA_RECIPES)}")
    recipe = REPLICA_RECIPES[key]
    rng = new_rng(seed)
    n = int(num_nodes) if num_nodes is not None else recipe.num_nodes
    if n < recipe.num_classes * 4:
        raise ValueError(
            f"num_nodes={n} too small for {recipe.num_classes} classes; need at least "
            f"{recipe.num_classes * 4}"
        )

    # Block sizes: slightly unbalanced classes, as in real benchmarks.
    raw = rng.dirichlet(np.full(recipe.num_classes, 5.0))
    block_sizes = np.maximum((raw * n).astype(int), 2)
    block_sizes[-1] += n - block_sizes.sum()
    if block_sizes[-1] < 2:
        deficit = 2 - block_sizes[-1]
        block_sizes[-1] = 2
        block_sizes[0] -= deficit

    # Edge probabilities from target average degree and intra/inter ratio.
    # avg_degree = p_in * E[intra pairs per node] + p_out * E[inter pairs per node]
    frac_intra = float(np.sum((block_sizes / n) ** 2))
    ratio = recipe.intra_ratio
    p_out = recipe.avg_degree / (n * (ratio * frac_intra + (1 - frac_intra)))
    p_in = ratio * p_out
    p_in = min(p_in, 1.0)
    p_out = min(p_out, 1.0)

    graph, labels = stochastic_block_model(
        block_sizes.tolist(), p_in=p_in, p_out=p_out, seed=rng, name=key
    )
    # The SBM assigns blocks to contiguous node-id ranges; real benchmarks have
    # no such id/label correlation.  Relabel nodes with a random permutation so
    # that contiguous row ranges (the unit of chunk reshuffling) mix classes.
    perm = rng.permutation(graph.num_nodes)
    adjacency = graph.to_scipy()[perm][:, perm]
    graph = CSRGraph.from_scipy(adjacency.tocsr(), name=key)
    labels = labels[perm]
    features = _planted_features(
        graph,
        labels,
        num_classes=recipe.num_classes,
        num_features=recipe.num_features,
        feature_signal=recipe.feature_signal,
        neighbor_signal=recipe.neighbor_signal,
        rng=rng,
    )
    split = random_split(
        graph.num_nodes,
        fractions=recipe.split,
        labeled_fraction=recipe.labeled_fraction,
        seed=rng,
    )
    info = paper_dataset_info(recipe.paper_key)
    return NodeClassificationDataset(
        name=key,
        graph=graph,
        features=features,
        labels=labels,
        split=split,
        num_classes=recipe.num_classes,
        info=info,
        metadata={"recipe": recipe.__dict__, "seed": str(seed)},
    )


def edge_homophily(graph: CSRGraph, labels: np.ndarray) -> float:
    """Fraction of edges whose endpoints share a label.

    High values (e.g. ogbn-products ≈ 0.8) mean neighbor aggregation directly
    reinforces the label signal; the wiki/pokec replicas target lower values.
    """
    labels = np.asarray(labels)
    if labels.shape[0] != graph.num_nodes:
        raise ValueError("labels must have one entry per node")
    coo = graph.to_scipy().tocoo()
    if coo.nnz == 0:
        return float("nan")
    return float(np.mean(labels[coo.row] == labels[coo.col]))
