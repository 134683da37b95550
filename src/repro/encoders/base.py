"""Encoder assemblies: stacked message passing, virtual nodes, pooling.

A :class:`GraphEncoder` turns a :class:`~repro.graph.GraphBatch` into one
representation vector per graph.  Three assemblies cover the whole zoo:

* :class:`StackedEncoder` — embed, L conv layers (ReLU between), readout.
* :class:`VirtualNodeEncoder` — the OGB virtual-node augmentation wrapped
  around a stacked encoder (GCN-virtual / GIN-virtual baselines).
* :class:`HierarchicalPoolEncoder` — conv/pool ladders used by TopKPool
  and SAGPool, with jumping-knowledge style summed readouts per level.

Each assembly is also its own seed stack: ``stack_seed_modules`` builds an
instance of the same class over stacked children
(:func:`~repro.nn.layers.stack_instance`), whose embedding turns the
shared node features into ``(K, n, h)`` activations.  The forwards tell
the two apart by rank only where a graph op differs: the readouts, the
virtual-node broadcast and the pool ladder's per-seed connectivity.
"""

from __future__ import annotations

import numpy as np

from repro.autograd.tensor import Tensor, is_grad_enabled
from repro.autograd import functional as F
from repro.graph.data import GraphBatch
from repro.graph.utils import SeedEdgeIndex
from repro.nn.module import Module, ModuleList
from repro.nn.layers import (
    Linear,
    MLP,
    BatchNorm1d,
    Dropout,
    ReLU,
    SeedStackingError,
    fused_sequential_forward,
    register_seed_stacker,
    stack_instance,
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
]

_READOUTS = {
    "sum": global_sum_pool,
    "mean": global_mean_pool,
    "max": global_max_pool,
}


class GraphEncoder(Module):
    """Interface: ``forward(batch) -> (num_graphs, out_dim)`` representations.

    A seed stack returns ``(K, num_graphs, out_dim)``.
    """

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
            x = conv(x, batch.topology)
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


register_seed_stacker(StackedEncoder)(stack_instance)


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
        # One virtual node per graph, and per seed in a stack.
        virtual = Tensor(np.zeros(x.shape[:-2] + (batch.num_graphs, self.hidden_dim)))
        fused_epilogue = not is_grad_enabled()
        for i, conv in enumerate(self.convs):
            if virtual.ndim == 2:
                x = x + virtual[batch.batch]
            else:
                x = x + F.seed_gather(virtual, batch.batch)
            x = conv(x, batch.topology)
            if fused_epilogue:
                x = _fused_conv_epilogue(self.norms[i], None, x)
            else:
                x = self.norms[i](x).relu()
            if self.dropout is not None:
                x = self.dropout(x)
            if i < len(self.vn_updates):
                pooled = global_sum_pool(x, batch.batch, batch.num_graphs)
                virtual = self.vn_updates[i](virtual + pooled)
        return x

    def forward(self, batch: GraphBatch) -> Tensor:
        x = self.node_embeddings(batch)
        return self._readout(x, batch.batch, batch.num_graphs)


register_seed_stacker(VirtualNodeEncoder)(stack_instance)


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
        if x.ndim == 2:
            edges = batch.topology
        else:
            # Each seed of a stack keeps different nodes, so its pooled
            # connectivity is per seed from the first level on.
            edges = SeedEdgeIndex.from_shared(batch.edge_index, x.shape[0], batch.num_nodes)
        node_batch = batch.batch
        total = None
        for conv, pool in zip(self.convs, self.pools):
            x = conv(x, edges).relu()
            x, edges, node_batch = pool(x, edges, node_batch, batch.num_graphs)
            level = F.concatenate(
                [
                    global_mean_pool(x, node_batch, batch.num_graphs),
                    global_max_pool(x, node_batch, batch.num_graphs),
                ],
                axis=-1,
            )
            total = level if total is None else total + level
        return total


def _stack_pool_ladder(encoders: list[HierarchicalPoolEncoder]) -> HierarchicalPoolEncoder:
    """Stack a pool ladder whose convs can run on per-seed connectivity.

    A stack's pooled connectivity is a
    :class:`~repro.graph.utils.SeedEdgeIndex`, which only the convs with
    ``supports_seed_edges`` consume; any other conv raises
    :class:`~repro.nn.layers.SeedStackingError` before anything is built.
    """
    for conv in encoders[0].convs:
        if not getattr(conv, "supports_seed_edges", False):
            raise SeedStackingError(
                f"stacked {type(conv).__name__} cannot run on per-seed pooled connectivity"
            )
    return stack_instance(encoders)


register_seed_stacker(HierarchicalPoolEncoder)(_stack_pool_ladder)
