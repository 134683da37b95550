"""Graph pooling: global readouts and hierarchical TopK / SAG pooling.

The hierarchical pooling layers implement the per-graph top-k selection
shared by TopKPool (Gao & Ji, 2019) and SAGPool (Lee et al., 2019): nodes
are scored, the best ``ceil(ratio * n)`` nodes of every graph survive, the
induced subgraph is kept and surviving features are gated by the score.
A pool takes the level's :class:`~repro.graph.data.Topology` (or
:class:`~repro.graph.utils.SeedEdgeIndex`) and returns a new one.
"""

from __future__ import annotations

import numpy as np

from repro.autograd.tensor import Tensor
from repro.autograd import functional as F
from repro.graph.data import Topology
from repro.graph.segment import segment_sum, segment_mean, segment_max
from repro.graph.utils import SeedEdgeIndex
from repro.nn.module import Module, Parameter
from repro.nn.layers import SeedStackingError, register_seed_stacker, stack_seed_modules
from repro.nn import init
from repro.encoders.conv import GCNConv

__all__ = [
    "global_sum_pool",
    "global_mean_pool",
    "global_max_pool",
    "topk_select",
    "filter_edges",
    "TopKPooling",
    "SAGPooling",
    "SeedTopKPooling",
    "SeedSAGPooling",
]


def global_sum_pool(x: Tensor, batch: np.ndarray, num_graphs: int) -> Tensor:
    """Sum node features per graph: ``(n, d) -> (num_graphs, d)``, per seed for ``(K, n, d)``."""
    if x.ndim == 3:
        return F.seed_segment_sum(x, batch, num_graphs)
    return segment_sum(x, batch, num_graphs)


def global_mean_pool(x: Tensor, batch: np.ndarray, num_graphs: int) -> Tensor:
    """Average node features per graph: ``(n, d) -> (num_graphs, d)``, per seed for ``(K, n, d)``."""
    if x.ndim == 3:
        return F.seed_segment_mean(x, batch, num_graphs)
    return segment_mean(x, batch, num_graphs)


def global_max_pool(x: Tensor, batch: np.ndarray, num_graphs: int) -> Tensor:
    """Max node features per graph: ``(n, d) -> (num_graphs, d)``, per seed for ``(K, n, d)``."""
    if x.ndim == 3:
        return F.seed_segment_max(x, batch, num_graphs)
    return segment_max(x, batch, num_graphs)


def topk_select(scores: np.ndarray, batch: np.ndarray, num_graphs: int, ratio: float) -> np.ndarray:
    """Indices of the top ``ceil(ratio * n_g)`` nodes per graph.

    Selection is a discrete (non-differentiable) choice, mirroring PyG:
    gradients flow through the gathered features and gates, not the
    selection itself.
    """
    keep: list[np.ndarray] = []
    order = np.lexsort((-scores, batch))  # grouped by graph, descending score
    sorted_batch = batch[order]
    boundaries = np.searchsorted(sorted_batch, np.arange(num_graphs + 1))
    for g in range(num_graphs):
        start, stop = boundaries[g], boundaries[g + 1]
        n = stop - start
        if n == 0:
            continue
        k = max(1, int(np.ceil(ratio * n)))
        keep.append(order[start : start + k])
    selected = np.concatenate(keep) if keep else np.zeros(0, dtype=np.int64)
    return np.sort(selected)


def filter_edges(edge_index: np.ndarray, kept_nodes: np.ndarray, num_nodes: int) -> np.ndarray:
    """Induced-subgraph connectivity after keeping ``kept_nodes``.

    Returns a re-indexed ``(2, e')`` edge index over the surviving nodes
    (which are renumbered ``0..len(kept_nodes)-1`` in sorted order).
    """
    position = np.full(num_nodes, -1, dtype=np.int64)
    position[kept_nodes] = np.arange(len(kept_nodes))
    if edge_index.size == 0:
        return edge_index.reshape(2, 0)
    src, dst = position[edge_index[0]], position[edge_index[1]]
    mask = (src >= 0) & (dst >= 0)
    return np.stack([src[mask], dst[mask]])


class TopKPooling(Module):
    """TopK pooling: score ``s = X p / ||p||``, keep top nodes, gate by tanh(s)."""

    def __init__(self, in_dim: int, rng: np.random.Generator, ratio: float = 0.5):
        super().__init__()
        if not 0 < ratio <= 1:
            raise ValueError(f"ratio must be in (0, 1], got {ratio}")
        self.ratio = ratio
        self.projection = Parameter(init.xavier_uniform((in_dim, 1), rng), name="projection")

    def forward(self, x: Tensor, edges: Topology, batch: np.ndarray, num_graphs: int):
        """Score, select, gate; returns (features, topology, batch) of survivors."""
        norm = float(np.linalg.norm(self.projection.data)) + 1e-12
        scores = (x @ self.projection).squeeze(1) * (1.0 / norm)
        return _topk(x, scores, edges, batch, num_graphs, self.ratio)


class SAGPooling(Module):
    """Self-attention pooling: scores from a GCN conv over the graph."""

    def __init__(self, in_dim: int, rng: np.random.Generator, ratio: float = 0.5):
        super().__init__()
        if not 0 < ratio <= 1:
            raise ValueError(f"ratio must be in (0, 1], got {ratio}")
        self.ratio = ratio
        self.score_conv = GCNConv(in_dim, 1, rng)

    def forward(self, x: Tensor, edges: Topology, batch: np.ndarray, num_graphs: int):
        """GCN-scored top-k selection; returns the surviving subgraph."""
        scores = self.score_conv(x, edges).squeeze(1)
        return _topk(x, scores, edges, batch, num_graphs, self.ratio)


def _topk(x: Tensor, scores: Tensor, edges: Topology, batch: np.ndarray,
          num_graphs: int, ratio: float):
    """Select, gate and filter: the tail of :class:`TopKPooling` and :class:`SAGPooling`."""
    kept = topk_select(scores.data, batch, num_graphs, ratio)
    gate = scores[kept].tanh().unsqueeze(1)
    new_x = x[kept] * gate
    new_edges = Topology(filter_edges(edges.edge_index, kept, edges.num_nodes), len(kept))
    return new_x, new_edges, batch[kept]


def _seed_topk(x: Tensor, scores: Tensor, edges: SeedEdgeIndex, batch: np.ndarray,
               num_graphs: int, ratio: float):
    """Shared select/gate/filter tail of the seed-stacked pooling layers.

    Per-seed scores diverge, so each seed keeps *different* nodes — but
    :func:`topk_select` keeps ``ceil(ratio * n_g)`` nodes per graph, a
    count that depends only on the shared graph sizes.  Surviving node
    state therefore stays rectangular ``(K, n', h)`` with one shared
    per-graph assignment (``batch[kept_k]`` is identical for every seed
    since kept indices are sorted within the block-sorted batch), and only
    the connectivity becomes per-seed (:class:`SeedEdgeIndex`).
    """
    num_seeds, num_nodes = x.shape[0], x.shape[1]
    kept = np.stack(
        [topk_select(scores.data[k], batch, num_graphs, ratio) for k in range(num_seeds)]
    )
    gate = F.seed_gather(scores, kept).tanh().unsqueeze(2)
    new_x = F.seed_gather(x, kept) * gate
    new_edges = SeedEdgeIndex.from_per_seed(
        [filter_edges(edges.seed_edges(k), kept[k], num_nodes) for k in range(num_seeds)],
        kept.shape[1],
    )
    return new_x, new_edges, batch[kept[0]]


class SeedTopKPooling(Module):
    """Seed-stacked :class:`TopKPooling` over ``(K, n, h)`` activations.

    Scores are one batched ``(K, in, 1)`` projection (a GEMM on both the
    per-seed and the batched path, so bitwise-safe) scaled by each seed's
    own ``1 / ||p_k||``; selection, gating and edge filtering run per seed
    via :func:`_seed_topk`.
    """

    def __init__(self, projection: np.ndarray, ratio: float):
        super().__init__()
        self.ratio = ratio
        self.num_seeds = projection.shape[0]
        self.projection = Parameter(projection, name="projection")

    @classmethod
    def from_layers(cls, pools: list[TopKPooling]) -> "SeedTopKPooling":
        template = pools[0]
        if any(p.ratio != template.ratio for p in pools[1:]):
            raise SeedStackingError("cannot stack TopKPooling layers with differing ratios")
        return cls(np.stack([p.projection.data for p in pools]), template.ratio)

    def forward(self, x: Tensor, edges: SeedEdgeIndex, batch: np.ndarray, num_graphs: int):
        # Per-seed norms computed exactly as the per-seed layer does
        # (np.linalg.norm over each contiguous (in, 1) slice).
        norms = np.array(
            [float(np.linalg.norm(self.projection.data[k])) for k in range(self.num_seeds)]
        ) + 1e-12
        scores = F.seed_linear(x, self.projection).squeeze(2) * Tensor((1.0 / norms)[:, None])
        return _seed_topk(x, scores, edges, batch, num_graphs, self.ratio)


class SeedSAGPooling(Module):
    """Seed-stacked :class:`SAGPooling`: scores from a seed-stacked GCN."""

    def __init__(self, score_conv, ratio: float):
        super().__init__()
        self.ratio = ratio
        self.score_conv = score_conv

    @classmethod
    def from_layers(cls, pools: list[SAGPooling]) -> "SeedSAGPooling":
        template = pools[0]
        if any(p.ratio != template.ratio for p in pools[1:]):
            raise SeedStackingError("cannot stack SAGPooling layers with differing ratios")
        return cls(stack_seed_modules([p.score_conv for p in pools]), template.ratio)

    def forward(self, x: Tensor, edges: SeedEdgeIndex, batch: np.ndarray, num_graphs: int):
        scores = self.score_conv(x, edges).squeeze(2)
        return _seed_topk(x, scores, edges, batch, num_graphs, self.ratio)


register_seed_stacker(TopKPooling)(SeedTopKPooling.from_layers)
register_seed_stacker(SAGPooling)(SeedSAGPooling.from_layers)
