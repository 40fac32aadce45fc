"""Graph samplers for MP-GNN training.

Implements the four samplers the paper compares against (Section 2.3 / 6):

* :class:`~repro.sampling.neighbor.NeighborSampler` — GraphSAGE's node-wise
  fanout sampler (Hamilton et al., 2017).
* :class:`~repro.sampling.labor.LaborSampler` — layer-neighbor sampling
  (Balin & Çatalyürek, 2024), which correlates the per-layer draws so fewer
  unique nodes are sampled than with independent node-wise sampling.
* :class:`~repro.sampling.ladies.LadiesSampler` — layer-wise importance
  sampling (Zou et al., 2019).
* :class:`~repro.sampling.graphsaint.GraphSaintNodeSampler` — subgraph
  sampling (Zeng et al., 2020), node-sampler variant.
"""

from repro.sampling.base import MiniBatch, SampledBlock, Sampler
from repro.sampling.neighbor import NeighborSampler
from repro.sampling.labor import LaborSampler
from repro.sampling.ladies import LadiesSampler
from repro.sampling.graphsaint import GraphSaintNodeSampler
from repro.sampling.registry import SAMPLER_REGISTRY, build_sampler

__all__ = [
    "MiniBatch",
    "SampledBlock",
    "Sampler",
    "NeighborSampler",
    "LaborSampler",
    "LadiesSampler",
    "GraphSaintNodeSampler",
    "SAMPLER_REGISTRY",
    "build_sampler",
]
