"""Graph data structures and primitives (the PyG-equivalent substrate).

* :class:`Graph` — a single attributed graph in COO edge-index form.
* :class:`GraphBatch` — disjoint union of graphs with a node→graph map.
* segment reductions — differentiable scatter ops for message passing.
* utilities — degrees, self-loops, GCN normalisation, triangle counting.
* generators — networkx random graph families for tests and benchmarks.
"""

from repro.graph.data import Graph, GraphBatch
from repro.graph.segment import segment_sum, segment_mean, segment_max, segment_softmax
from repro.graph.utils import (
    degrees,
    add_self_loops,
    gcn_norm_coefficients,
    count_triangles,
    to_networkx,
    from_networkx,
    is_undirected,
    coalesce_edges,
)
from repro.graph import generators

__all__ = [
    "Graph",
    "GraphBatch",
    "segment_sum",
    "segment_mean",
    "segment_max",
    "segment_softmax",
    "degrees",
    "add_self_loops",
    "gcn_norm_coefficients",
    "count_triangles",
    "to_networkx",
    "from_networkx",
    "is_undirected",
    "coalesce_edges",
    "generators",
]
