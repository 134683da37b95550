"""GNN encoders: the paper's baselines and the backbone used by OOD-GNN.

Every encoder maps a :class:`~repro.graph.GraphBatch` to a matrix of
graph-level representations ``(num_graphs, hidden_dim)``; the
:class:`GraphClassifier` adds the prediction head (two-layer MLP, as in the
paper) on top.  The zoo covers all baselines of Tables 2-4:

GCN, GIN, GCN-virtual, GIN-virtual, FactorGCN, PNA, TopKPool, SAGPool.
"""

from repro.encoders.conv import GCNConv, GINConv, PNAConv, FactorGCNConv
from repro.encoders.pooling import TopKPooling, SAGPooling, global_sum_pool, global_mean_pool, global_max_pool
from repro.encoders.base import (
    GraphEncoder,
    StackedEncoder,
    VirtualNodeEncoder,
    HierarchicalPoolEncoder,
)
from repro.encoders.models import (
    GraphClassifier,
    SeedGraphClassifier,
    build_model,
    available_models,
    compute_pna_degree_scale,
)

__all__ = [
    "GCNConv",
    "GINConv",
    "PNAConv",
    "FactorGCNConv",
    "TopKPooling",
    "SAGPooling",
    "global_sum_pool",
    "global_mean_pool",
    "global_max_pool",
    "GraphEncoder",
    "StackedEncoder",
    "VirtualNodeEncoder",
    "HierarchicalPoolEncoder",
    "GraphClassifier",
    "SeedGraphClassifier",
    "build_model",
    "available_models",
    "compute_pna_degree_scale",
]
