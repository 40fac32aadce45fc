"""Graph substrate: CSR graphs, propagation operators and generators."""

from repro.graph.csr import CSRGraph
from repro.graph.builders import add_self_loops, from_edge_index, symmetrize
from repro.graph.operators import (
    PartialOperator,
    csr_rows,
    heat_kernel_operator,
    normalized_adjacency,
    operator_radius,
    operator_row_block,
    operator_support,
    personalized_pagerank_operator,
    random_walk_operator,
    OPERATOR_REGISTRY,
    build_operator,
)
from repro.graph.generators import powerlaw_cluster_graph, stochastic_block_model

__all__ = [
    "CSRGraph",
    "from_edge_index",
    "symmetrize",
    "add_self_loops",
    "normalized_adjacency",
    "random_walk_operator",
    "personalized_pagerank_operator",
    "heat_kernel_operator",
    "OPERATOR_REGISTRY",
    "PartialOperator",
    "build_operator",
    "csr_rows",
    "operator_radius",
    "operator_row_block",
    "operator_support",
    "stochastic_block_model",
    "powerlaw_cluster_graph",
]
