"""Graph utilities: degrees, self loops, GCN normalisation, triangles.

These are the small deterministic helpers the encoders and the synthetic
dataset generators share.  ``count_triangles`` is the label function of the
TRIANGLES dataset and is validated against networkx in the test suite.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.graph.data import Graph, OperatorMemo

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "degrees",
    "add_self_loops",
    "gcn_norm_coefficients",
    "count_triangles",
    "to_networkx",
    "from_networkx",
    "is_undirected",
    "coalesce_edges",
    "undirected_edge_index",
    "SeedEdgeIndex",
]


def degrees(edge_index: np.ndarray, num_nodes: int) -> np.ndarray:
    """In-degree of every node (== out-degree for undirected graphs)."""
    if edge_index.size == 0:
        return np.zeros(num_nodes, dtype=np.int64)
    return np.bincount(edge_index[1], minlength=num_nodes)


def add_self_loops(edge_index: np.ndarray, num_nodes: int) -> np.ndarray:
    """Append one self loop per node to ``edge_index``."""
    loops = np.arange(num_nodes, dtype=np.int64)
    loops = np.stack([loops, loops])
    if edge_index.size == 0:
        return loops
    return np.concatenate([edge_index, loops], axis=1)


def gcn_norm_coefficients(edge_index: np.ndarray, num_nodes: int) -> np.ndarray:
    """Symmetric GCN normalisation ``1 / sqrt(d_u * d_v)`` per edge.

    ``edge_index`` is expected to already include self loops (the Kipf &
    Welling renormalisation trick).
    """
    deg = degrees(edge_index, num_nodes).astype(np.float64)
    deg_inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.maximum(deg, 1e-12)), 0.0)
    src, dst = edge_index
    return deg_inv_sqrt[src] * deg_inv_sqrt[dst]


class SeedEdgeIndex(OperatorMemo):
    """Per-seed connectivity over the flattened ``(K * num_nodes)`` node space.

    A seed-stacked pooling encoder keeps node state rectangular —
    ``(K, n, h)`` with a shared per-graph assignment, because top-k keeps
    ``ceil(ratio * n_g)`` nodes per graph regardless of the scores — but
    each seed selects *different* nodes, so the surviving edge lists
    diverge per seed.  This container represents those K edge lists as one
    flat seed-major ``(2, sum_k E_k)`` index into the ``K * n`` node space
    (seed ``k``'s node ``v`` lives at flat row ``k * n + v``), which lets
    a stacked conv's :func:`~repro.encoders.conv.aggregate` run a single
    2-D gather/scatter over the reshaped ``(K * n, h)`` activations
    (the convs that declare ``supports_seed_edges``).  The ladder starts
    a stack on one built by :meth:`from_shared`, and each stacked pool
    returns one built by :meth:`from_per_seed`.  Per-bucket scatter order
    matches the per-seed runs (each seed's edges keep their original order
    and never interleave), so flat message passing stays bitwise equal to
    K sequential forwards.

    It memoises its operators like :class:`~repro.graph.data.Topology`;
    each one acts on the flat ``K * num_nodes`` rows of this container's
    own seeds, whatever ``num_seeds`` the caller keys it with.
    """

    __slots__ = ("flat", "counts", "num_nodes", "num_seeds", "_operators")

    def __init__(self, flat: np.ndarray, counts: np.ndarray, num_nodes: int):
        self.flat = flat
        self.counts = counts
        self.num_nodes = int(num_nodes)
        self.num_seeds = len(counts)
        self._operators: dict = {}

    @classmethod
    def from_shared(cls, edge_index: np.ndarray, num_seeds: int, num_nodes: int) -> "SeedEdgeIndex":
        """Replicate a shared edge list for every seed (offset per seed)."""
        edge_index = np.asarray(edge_index, dtype=np.int64)
        num_edges = edge_index.shape[1] if edge_index.size else 0
        if num_edges == 0:
            flat = np.zeros((2, 0), dtype=np.int64)
        else:
            offsets = (np.arange(num_seeds, dtype=np.int64) * num_nodes)[:, None, None]
            flat = np.ascontiguousarray(
                (edge_index[None, :, :] + offsets).transpose(1, 0, 2).reshape(2, -1)
            )
        return cls(flat, np.full(num_seeds, num_edges, dtype=np.int64), num_nodes)

    @classmethod
    def from_per_seed(cls, edge_lists: list[np.ndarray], num_nodes: int) -> "SeedEdgeIndex":
        """Concatenate per-seed local edge lists (each ``(2, E_k)``), seed-major."""
        counts = np.array([edges.shape[1] for edges in edge_lists], dtype=np.int64)
        parts = [
            np.asarray(edges, dtype=np.int64) + k * num_nodes
            for k, edges in enumerate(edge_lists)
        ]
        flat = np.concatenate(parts, axis=1) if parts else np.zeros((2, 0), dtype=np.int64)
        return cls(flat, counts, num_nodes)

    def seed_edges(self, k: int) -> np.ndarray:
        """Seed ``k``'s edges in its local ``[0, num_nodes)`` space."""
        start = int(self.counts[:k].sum())
        stop = start + int(self.counts[k])
        return self.flat[:, start:stop] - k * self.num_nodes

    @property
    def num_edges(self) -> int:
        """Edges summed over every seed."""
        return self.flat.shape[1]

    def _build(self, norm, dtype, num_seeds):
        # Deferred: repro.graph.segment imports this module.
        from repro.graph.segment import message_pass_operator

        return message_pass_operator(self.flat, self.num_seeds * self.num_nodes, norm, dtype)


def undirected_edge_index(pairs: list[tuple[int, int]]) -> np.ndarray:
    """Build a symmetric ``(2, 2m)`` edge index from undirected pairs."""
    if not pairs:
        return np.zeros((2, 0), dtype=np.int64)
    arr = np.asarray(pairs, dtype=np.int64).T
    return np.concatenate([arr, arr[::-1]], axis=1)


def coalesce_edges(edge_index: np.ndarray) -> np.ndarray:
    """Remove duplicate directed edges and self loops; sort lexically."""
    if edge_index.size == 0:
        return edge_index.reshape(2, 0)
    mask = edge_index[0] != edge_index[1]
    edge_index = edge_index[:, mask]
    if edge_index.size == 0:
        return edge_index.reshape(2, 0)
    unique = np.unique(edge_index.T, axis=0)
    return unique.T.astype(np.int64)


def is_undirected(edge_index: np.ndarray) -> bool:
    """Check that every directed edge has its reverse present."""
    if edge_index.size == 0:
        return True
    forward = set(map(tuple, edge_index.T.tolist()))
    return all((v, u) in forward for u, v in forward)


def count_triangles(edge_index: np.ndarray, num_nodes: int) -> int:
    """Exact triangle count via trace(A^3) / 6 on a dense boolean matrix."""
    adj = np.zeros((num_nodes, num_nodes), dtype=np.float64)
    if edge_index.size:
        adj[edge_index[0], edge_index[1]] = 1.0
        adj[edge_index[1], edge_index[0]] = 1.0
    np.fill_diagonal(adj, 0.0)
    cubed = adj @ adj @ adj
    return int(round(np.trace(cubed) / 6.0))


def to_networkx(graph: Graph) -> nx.Graph:
    """Convert to an undirected networkx graph (features dropped)."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(graph.num_nodes))
    g.add_edges_from(map(tuple, graph.edge_index.T.tolist()))
    return g


def from_networkx(g: nx.Graph, x: np.ndarray | None = None, y=None, meta: dict | None = None) -> Graph:
    """Convert a networkx graph; default features are all-ones."""
    nodes = sorted(g.nodes())
    relabel = {node: i for i, node in enumerate(nodes)}
    pairs = [(relabel[u], relabel[v]) for u, v in g.edges()]
    edge_index = undirected_edge_index(pairs)
    if x is None:
        x = np.ones((len(nodes), 1), dtype=np.float64)
    return Graph(x=x, edge_index=edge_index, y=y, meta=meta or {})
