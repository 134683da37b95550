"""Encoder assemblies: stacked message passing, virtual nodes, pooling.

A :class:`GraphEncoder` turns a :class:`~repro.graph.GraphBatch` into one
representation vector per graph.  Three assemblies cover the whole zoo:

* :class:`StackedEncoder` — embed, L conv layers (ReLU between), readout.
* :class:`VirtualNodeEncoder` — the OGB virtual-node augmentation wrapped
  around a stacked encoder (GCN-virtual / GIN-virtual baselines).
* :class:`HierarchicalPoolEncoder` — conv/pool ladders used by TopKPool
  and SAGPool, with jumping-knowledge style summed readouts per level.
"""

from __future__ import annotations

import numpy as np

from repro.autograd.tensor import Tensor, is_grad_enabled
from repro.autograd import functional as F
from repro.graph.data import GraphBatch
from repro.graph.segment import segment_sum
from repro.graph.utils import SeedEdgeIndex
from repro.nn.module import Module, ModuleList
from repro.nn.layers import (
    Linear,
    MLP,
    BatchNorm1d,
    Dropout,
    ReLU,
    SeedLinear,
    SeedStackingError,
    fused_sequential_forward,
    register_seed_stacker,
    stack_seed_modules,
)
from repro.encoders.pooling import (
    global_sum_pool,
    global_mean_pool,
    global_max_pool,
)

# Shared stateless ReLU for the conv epilogues below (activations carry
# no parameters, so one instance serves every encoder).
_RELU = ReLU()


def _fused_conv_epilogue(norm, dropout, x):
    """Serving fast path for the post-conv chain of every encoder.

    Runs eval batch-norm (when present) + ReLU (+ inactive dropout)
    through :func:`fused_sequential_forward`: the first stage writes one
    new array and the rest run in place on it, bitwise equal to the
    op-by-op chain.  Tape-free callers only.
    """
    layers = ([norm] if norm is not None else []) + [_RELU]
    if dropout is not None:
        layers.append(dropout)
    return fused_sequential_forward(layers, x)

__all__ = [
    "GraphEncoder",
    "StackedEncoder",
    "VirtualNodeEncoder",
    "HierarchicalPoolEncoder",
    "SeedStackedEncoder",
    "SeedVirtualNodeEncoder",
    "SeedHierarchicalPoolEncoder",
]

_READOUTS = {
    "sum": global_sum_pool,
    "mean": global_mean_pool,
    "max": global_max_pool,
}


class GraphEncoder(Module):
    """Interface: ``forward(batch) -> (num_graphs, out_dim)`` representations."""

    out_dim: int

    def forward(self, batch: GraphBatch) -> Tensor:
        """Graph-level representations for the batch."""
        raise NotImplementedError


def _make_readout(name: str):
    try:
        return _READOUTS[name]
    except KeyError:
        raise ValueError(f"unknown readout {name!r}; choose from {sorted(_READOUTS)}") from None


class StackedEncoder(GraphEncoder):
    """Input embedding + a stack of convolution layers + global readout.

    Parameters
    ----------
    conv_factory:
        Callable ``(in_dim, out_dim) -> Module`` building one conv layer.
    num_layers:
        Number of message-passing rounds (paper sweeps 2..6).
    readout:
        ``"sum"`` (GIN default), ``"mean"`` or ``"max"``.
    """

    def __init__(
        self,
        in_dim: int,
        hidden_dim: int,
        num_layers: int,
        conv_factory,
        rng: np.random.Generator,
        readout: str = "sum",
        dropout: float = 0.0,
        batch_norm: bool = True,
    ):
        super().__init__()
        if num_layers < 1:
            raise ValueError("need at least one message-passing layer")
        self.embed = Linear(in_dim, hidden_dim, rng)
        self.convs = ModuleList([conv_factory(hidden_dim, hidden_dim) for _ in range(num_layers)])
        self.norms = ModuleList(
            [BatchNorm1d(hidden_dim) if batch_norm else None for _ in range(num_layers)]
        ) if batch_norm else None
        self.dropout = Dropout(dropout, rng) if dropout > 0 else None
        self._readout = _make_readout(readout)
        self.out_dim = hidden_dim

    def node_embeddings(self, batch: GraphBatch) -> Tensor:
        """Node-level representations after all conv layers."""
        x = self.embed(Tensor(batch.x))
        fused_epilogue = not is_grad_enabled()
        for i, conv in enumerate(self.convs):
            x = conv(x, batch.edge_index, batch.num_nodes)
            if fused_epilogue:
                x = _fused_conv_epilogue(
                    self.norms[i] if self.norms is not None else None, self.dropout, x
                )
                continue
            if self.norms is not None:
                x = self.norms[i](x)
            x = x.relu()
            if self.dropout is not None:
                x = self.dropout(x)
        return x

    def forward(self, batch: GraphBatch) -> Tensor:
        x = self.node_embeddings(batch)
        return self._readout(x, batch.batch, batch.num_graphs)


_SEED_READOUTS = {
    "sum": F.seed_segment_sum,
    "mean": F.seed_segment_mean,
    "max": F.seed_segment_max,
}


class SeedStackedEncoder(GraphEncoder):
    """Seed-stacked :class:`StackedEncoder`: K encoders in one forward pass.

    Node activations use the seed-leading ``(K, n, h)`` layout of the
    multi-seed engine (``docs/ARCHITECTURE.md``): per-seed slices stay
    contiguous, so every linear map is one batched GEMM and every
    gather/scatter runs K fast 2-D passes.  Built from K per-seed encoders
    by :meth:`from_encoders`, with bitwise parameter copies.
    """

    def __init__(self, embed, convs, norms, dropout, readout_name: str, out_dim: int, num_seeds: int):
        super().__init__()
        self.embed = embed
        self.convs = convs
        self.norms = norms
        self.dropout = dropout
        if readout_name not in _SEED_READOUTS:
            raise SeedStackingError(
                f"no seed-stacked readout for {readout_name!r}; supported: {sorted(_SEED_READOUTS)}"
            )
        self.readout_name = readout_name
        self._readout = _SEED_READOUTS[readout_name]
        self.out_dim = out_dim
        self.num_seeds = num_seeds

    @classmethod
    def from_encoders(cls, encoders: list["StackedEncoder"]) -> "SeedStackedEncoder":
        template = encoders[0]
        readout_names = {name for name, fn in _READOUTS.items() if fn is template._readout}
        embed = SeedLinear.from_layers([e.embed for e in encoders])
        convs = ModuleList(
            [stack_seed_modules([e.convs[i] for e in encoders]) for i in range(len(template.convs))]
        )
        norms = (
            ModuleList(
                [stack_seed_modules([e.norms[i] for e in encoders]) for i in range(len(template.norms))]
            )
            if template.norms is not None
            else None
        )
        return cls(
            embed,
            convs,
            norms,
            template.dropout,
            next(iter(readout_names)),
            template.out_dim,
            len(encoders),
        )

    def node_embeddings(self, batch: GraphBatch) -> Tensor:
        x = self.embed(Tensor(batch.x))  # (K, total_nodes, h)
        fused_epilogue = not is_grad_enabled()
        for i, conv in enumerate(self.convs):
            x = conv(x, batch.edge_index, batch.num_nodes)
            if fused_epilogue:
                # Seed-stacked serving fast path: same shared epilogue.
                x = _fused_conv_epilogue(
                    self.norms[i] if self.norms is not None else None, self.dropout, x
                )
                continue
            if self.norms is not None:
                x = self.norms[i](x)
            x = x.relu()
            if self.dropout is not None:
                x = self.dropout(x)
        return x

    def forward(self, batch: GraphBatch) -> Tensor:
        x = self.node_embeddings(batch)
        return self._readout(x, batch.batch, batch.num_graphs)


register_seed_stacker(StackedEncoder)(SeedStackedEncoder.from_encoders)


class VirtualNodeEncoder(GraphEncoder):
    """Stacked encoder augmented with a per-graph virtual node.

    Before every conv layer each node receives its graph's virtual-node
    embedding; after the layer the virtual node is updated from the sum of
    its graph's node features through an MLP — the OGB reference recipe
    for the GCN-virtual / GIN-virtual baselines.
    """

    def __init__(
        self,
        in_dim: int,
        hidden_dim: int,
        num_layers: int,
        conv_factory,
        rng: np.random.Generator,
        readout: str = "sum",
        dropout: float = 0.0,
    ):
        super().__init__()
        self.embed = Linear(in_dim, hidden_dim, rng)
        self.convs = ModuleList([conv_factory(hidden_dim, hidden_dim) for _ in range(num_layers)])
        self.norms = ModuleList([BatchNorm1d(hidden_dim) for _ in range(num_layers)])
        self.vn_updates = ModuleList(
            [MLP([hidden_dim, hidden_dim, hidden_dim], rng, batch_norm=True) for _ in range(num_layers - 1)]
        )
        self.dropout = Dropout(dropout, rng) if dropout > 0 else None
        self._readout = _make_readout(readout)
        self.out_dim = hidden_dim
        self.hidden_dim = hidden_dim

    def node_embeddings(self, batch: GraphBatch) -> Tensor:
        x = self.embed(Tensor(batch.x))
        virtual = Tensor(np.zeros((batch.num_graphs, self.hidden_dim)))
        fused_epilogue = not is_grad_enabled()
        for i, conv in enumerate(self.convs):
            x = x + virtual[batch.batch]
            x = conv(x, batch.edge_index, batch.num_nodes)
            if fused_epilogue:
                x = _fused_conv_epilogue(self.norms[i], None, x)
            else:
                x = self.norms[i](x).relu()
            if self.dropout is not None:
                x = self.dropout(x)
            if i < len(self.vn_updates):
                pooled = segment_sum(x, batch.batch, batch.num_graphs)
                virtual = self.vn_updates[i](virtual + pooled)
        return x

    def forward(self, batch: GraphBatch) -> Tensor:
        x = self.node_embeddings(batch)
        return self._readout(x, batch.batch, batch.num_graphs)


class SeedVirtualNodeEncoder(GraphEncoder):
    """Seed-stacked :class:`VirtualNodeEncoder`: K encoders in one forward.

    Virtual-node state is ``(K, num_graphs, h)``; the broadcast into node
    features and the per-graph pooling both run through the seed-axis
    gather/scatter primitives, and the update MLPs are seed-stacked —
    bitwise equal to K sequential per-seed forwards.  Attribute order
    mirrors the per-seed class so batch-norm statistics sync by module
    traversal (see ``SeedGraphClassifier.sync_into``).
    """

    def __init__(self, embed, convs, norms, vn_updates, dropout, readout_name: str,
                 out_dim: int, hidden_dim: int, num_seeds: int):
        super().__init__()
        self.embed = embed
        self.convs = convs
        self.norms = norms
        self.vn_updates = vn_updates
        self.dropout = dropout
        if readout_name not in _SEED_READOUTS:
            raise SeedStackingError(
                f"no seed-stacked readout for {readout_name!r}; supported: {sorted(_SEED_READOUTS)}"
            )
        self.readout_name = readout_name
        self._readout = _SEED_READOUTS[readout_name]
        self.out_dim = out_dim
        self.hidden_dim = hidden_dim
        self.num_seeds = num_seeds

    @classmethod
    def from_encoders(cls, encoders: list["VirtualNodeEncoder"]) -> "SeedVirtualNodeEncoder":
        template = encoders[0]
        readout_names = {name for name, fn in _READOUTS.items() if fn is template._readout}
        embed = SeedLinear.from_layers([e.embed for e in encoders])
        convs = ModuleList(
            [stack_seed_modules([e.convs[i] for e in encoders]) for i in range(len(template.convs))]
        )
        norms = ModuleList(
            [stack_seed_modules([e.norms[i] for e in encoders]) for i in range(len(template.norms))]
        )
        vn_updates = ModuleList(
            [
                stack_seed_modules([e.vn_updates[i] for e in encoders])
                for i in range(len(template.vn_updates))
            ]
        )
        return cls(
            embed,
            convs,
            norms,
            vn_updates,
            template.dropout,
            next(iter(readout_names)),
            template.out_dim,
            template.hidden_dim,
            len(encoders),
        )

    def node_embeddings(self, batch: GraphBatch) -> Tensor:
        x = self.embed(Tensor(batch.x))  # (K, total_nodes, h)
        virtual = Tensor(np.zeros((self.num_seeds, batch.num_graphs, self.hidden_dim)))
        fused_epilogue = not is_grad_enabled()
        for i, conv in enumerate(self.convs):
            x = x + F.seed_gather(virtual, batch.batch)
            x = conv(x, batch.edge_index, batch.num_nodes)
            if fused_epilogue:
                x = _fused_conv_epilogue(self.norms[i], None, x)
            else:
                x = self.norms[i](x).relu()
            if self.dropout is not None:
                x = self.dropout(x)
            if i < len(self.vn_updates):
                pooled = F.seed_segment_sum(x, batch.batch, batch.num_graphs)
                virtual = self.vn_updates[i](virtual + pooled)
        return x

    def forward(self, batch: GraphBatch) -> Tensor:
        x = self.node_embeddings(batch)
        return self._readout(x, batch.batch, batch.num_graphs)


register_seed_stacker(VirtualNodeEncoder)(SeedVirtualNodeEncoder.from_encoders)


class HierarchicalPoolEncoder(GraphEncoder):
    """Conv -> pool ladder with per-level mean+max readouts (summed).

    The architecture used for the TopKPool and SAGPool baselines, matching
    the Graph U-Net / SAGPool classifier setups: after each pooling stage
    the surviving graph is read out, and the level readouts are summed.
    """

    def __init__(
        self,
        in_dim: int,
        hidden_dim: int,
        num_levels: int,
        conv_factory,
        pool_factory,
        rng: np.random.Generator,
    ):
        super().__init__()
        if num_levels < 1:
            raise ValueError("need at least one conv/pool level")
        self.embed = Linear(in_dim, hidden_dim, rng)
        self.convs = ModuleList([conv_factory(hidden_dim, hidden_dim) for _ in range(num_levels)])
        self.pools = ModuleList([pool_factory(hidden_dim) for _ in range(num_levels)])
        self.out_dim = 2 * hidden_dim

    def forward(self, batch: GraphBatch) -> Tensor:
        x = self.embed(Tensor(batch.x))
        edge_index = batch.edge_index
        node_batch = batch.batch
        total = None
        for conv, pool in zip(self.convs, self.pools):
            x = conv(x, edge_index, x.shape[0]).relu()
            x, edge_index, node_batch = pool(x, edge_index, node_batch, batch.num_graphs)
            level = F.concatenate(
                [
                    global_mean_pool(x, node_batch, batch.num_graphs),
                    global_max_pool(x, node_batch, batch.num_graphs),
                ],
                axis=1,
            )
            total = level if total is None else total + level
        return total


class SeedHierarchicalPoolEncoder(GraphEncoder):
    """Seed-stacked :class:`HierarchicalPoolEncoder`.

    Node state stays rectangular ``(K, n', h)`` after every pooling stage
    (top-k keeps a per-graph count that depends only on the shared graph
    sizes); the per-seed surviving connectivity travels as a
    :class:`~repro.graph.utils.SeedEdgeIndex`, which the stacked convs
    consume as one flat disjoint-union scatter (``supports_seed_edges``).
    Stacking is refused for conv types that cannot run on per-seed
    connectivity, falling back to sequential per-seed runs.
    """

    def __init__(self, embed, convs, pools, out_dim: int, num_seeds: int):
        super().__init__()
        self.embed = embed
        self.convs = convs
        self.pools = pools
        self.out_dim = out_dim
        self.num_seeds = num_seeds

    @classmethod
    def from_encoders(cls, encoders: list["HierarchicalPoolEncoder"]) -> "SeedHierarchicalPoolEncoder":
        template = encoders[0]
        embed = SeedLinear.from_layers([e.embed for e in encoders])
        convs = ModuleList(
            [stack_seed_modules([e.convs[i] for e in encoders]) for i in range(len(template.convs))]
        )
        for stacked, per_seed in zip(convs, template.convs):
            if not getattr(stacked, "supports_seed_edges", False):
                raise SeedStackingError(
                    f"stacked {type(per_seed).__name__} cannot run on per-seed pooled connectivity"
                )
        pools = ModuleList(
            [stack_seed_modules([e.pools[i] for e in encoders]) for i in range(len(template.pools))]
        )
        return cls(embed, convs, pools, template.out_dim, len(encoders))

    def forward(self, batch: GraphBatch) -> Tensor:
        x = self.embed(Tensor(batch.x))  # (K, total_nodes, h)
        edge_index = SeedEdgeIndex.from_shared(batch.edge_index, self.num_seeds, batch.num_nodes)
        node_batch = batch.batch
        total = None
        for conv, pool in zip(self.convs, self.pools):
            x = conv(x, edge_index, x.shape[1]).relu()
            x, edge_index, node_batch = pool(x, edge_index, node_batch, batch.num_graphs)
            level = F.concatenate(
                [
                    F.seed_segment_mean(x, node_batch, batch.num_graphs),
                    F.seed_segment_max(x, node_batch, batch.num_graphs),
                ],
                axis=2,
            )
            total = level if total is None else total + level
        return total


register_seed_stacker(HierarchicalPoolEncoder)(SeedHierarchicalPoolEncoder.from_encoders)
