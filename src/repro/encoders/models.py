"""Complete graph predictors and the model registry.

:class:`GraphClassifier` combines any :class:`~repro.encoders.base.GraphEncoder`
with the paper's two-layer MLP head.  :func:`build_model` constructs every
baseline in Tables 2-4 by name; the OOD-GNN model itself lives in
:mod:`repro.core.ood_gnn` and reuses the same GIN encoder (the paper's
backbone choice).
"""

from __future__ import annotations

import numpy as np

from repro.autograd.tensor import Tensor
from repro.graph.data import Graph, GraphBatch
from repro.graph.utils import degrees
from repro.nn.module import Module
from repro.nn.layers import MLP, register_seed_stacker, stack_seed_modules
from repro.encoders.base import StackedEncoder, VirtualNodeEncoder, HierarchicalPoolEncoder, GraphEncoder
from repro.encoders.conv import GCNConv, GINConv, PNAConv, FactorGCNConv
from repro.encoders.attention import GATConv, SAGEConv
from repro.encoders.pooling import TopKPooling, SAGPooling

__all__ = [
    "GraphClassifier",
    "SeedGraphClassifier",
    "build_model",
    "available_models",
    "compute_pna_degree_scale",
]

# The paper's eight baselines (Tables 2-4) plus the GAT / GraphSAGE
# architectures discussed in its related work.
_MODEL_NAMES = (
    "gcn",
    "gcn-virtual",
    "gin",
    "gin-virtual",
    "factorgcn",
    "pna",
    "topkpool",
    "sagpool",
    "gat",
    "sage",
)


def available_models() -> tuple[str, ...]:
    """Names accepted by :func:`build_model` (the paper's baselines)."""
    return _MODEL_NAMES


def compute_pna_degree_scale(graphs: list[Graph]) -> float:
    """Average ``log(degree + 1)`` over all training nodes (PNA's delta)."""
    logs = []
    for g in graphs:
        deg = degrees(g.edge_index, g.num_nodes).astype(np.float64)
        logs.append(np.log(deg + 1.0))
    if not logs:
        return 1.0
    return float(np.concatenate(logs).mean()) or 1.0


class GraphClassifier(Module):
    """Encoder + two-layer MLP prediction head (the paper's classifier R).

    ``forward`` returns logits ``(num_graphs, out_dim)``; call
    :meth:`representations` for the encoder output Z used by the
    decorrelation machinery.
    """

    def __init__(self, encoder: GraphEncoder, out_dim: int, rng: np.random.Generator, head_hidden: int | None = None):
        super().__init__()
        hidden = head_hidden if head_hidden is not None else encoder.out_dim
        self.encoder = encoder
        self.head = MLP([encoder.out_dim, hidden, out_dim], rng)
        self.out_dim = out_dim

    def representations(self, batch: GraphBatch) -> Tensor:
        """Graph representations Z = Phi(G), shape ``(num_graphs, d)``."""
        return self.encoder(batch)

    def forward(self, batch: GraphBatch) -> Tensor:
        """Logits for every graph in the batch."""
        return self.head(self.representations(batch))


class SeedGraphClassifier(Module):
    """K seed-stacked :class:`GraphClassifier` models sharing one forward.

    A bare ``encoder`` + ``head`` container over the stacked children, so
    dotted parameter and buffer names coincide with the per-seed model's
    (see :func:`~repro.nn.layers.sync_seed`).  Forward returns
    ``(K, num_graphs, out)`` seed-leading stacked logits.  It is a class
    of its own, not a ``GraphClassifier`` built by ``stack_instance``,
    because the repository benchmark's tracer (``perfbench/tracing.py``)
    imports it and patches it by name.  See ``docs/ARCHITECTURE.md`` for
    the engine design.
    """

    def __init__(self, encoder, head):
        super().__init__()
        self.encoder = encoder
        self.head = head

    @classmethod
    def from_models(cls, models: list[GraphClassifier]) -> "SeedGraphClassifier":
        """Stack per-seed classifiers (bitwise parameter copies)."""
        encoder = stack_seed_modules([m.encoder for m in models])
        head = stack_seed_modules([m.head for m in models])
        return cls(encoder, head)

    def representations(self, batch: GraphBatch) -> Tensor:
        """Stacked representations ``(K, num_graphs, d)``."""
        return self.encoder(batch)

    def forward(self, batch: GraphBatch) -> Tensor:
        """Stacked logits ``(K, num_graphs, out_dim)``."""
        return self.head(self.representations(batch))


register_seed_stacker(GraphClassifier)(SeedGraphClassifier.from_models)


def build_model(
    name: str,
    in_dim: int,
    out_dim: int,
    rng: np.random.Generator,
    hidden_dim: int = 64,
    num_layers: int = 3,
    readout: str = "sum",
    dropout: float = 0.0,
    pna_degree_scale: float = 1.0,
    factor_count: int = 4,
    pool_ratio: float = 0.5,
) -> GraphClassifier:
    """Construct a baseline model by name.

    Parameters mirror the paper's search space: ``hidden_dim`` in
    {64, 128, 256, 300}, ``num_layers`` in [2, 6].  ``name`` must be one of
    :func:`available_models`.
    """
    name = name.lower()
    if name == "gcn":
        encoder = StackedEncoder(
            in_dim, hidden_dim, num_layers,
            lambda i, o: GCNConv(i, o, rng), rng, readout=readout, dropout=dropout,
        )
    elif name == "gin":
        encoder = StackedEncoder(
            in_dim, hidden_dim, num_layers,
            lambda i, o: GINConv(i, o, rng), rng, readout=readout, dropout=dropout,
            batch_norm=False,  # GINConv's internal MLP already batch-normalises
        )
    elif name == "gcn-virtual":
        encoder = VirtualNodeEncoder(
            in_dim, hidden_dim, num_layers,
            lambda i, o: GCNConv(i, o, rng), rng, readout=readout, dropout=dropout,
        )
    elif name == "gin-virtual":
        encoder = VirtualNodeEncoder(
            in_dim, hidden_dim, num_layers,
            lambda i, o: GINConv(i, o, rng), rng, readout=readout, dropout=dropout,
        )
    elif name == "pna":
        encoder = StackedEncoder(
            in_dim, hidden_dim, num_layers,
            lambda i, o: PNAConv(i, o, rng, degree_scale=pna_degree_scale),
            rng, readout="mean", dropout=dropout,
        )
    elif name == "factorgcn":
        encoder = StackedEncoder(
            in_dim, hidden_dim, num_layers,
            lambda i, o: FactorGCNConv(i, o, factor_count, rng),
            rng, readout=readout, dropout=dropout,
        )
    elif name == "topkpool":
        encoder = HierarchicalPoolEncoder(
            in_dim, hidden_dim, num_layers,
            lambda i, o: GCNConv(i, o, rng),
            lambda dim: TopKPooling(dim, rng, ratio=pool_ratio),
            rng,
        )
    elif name == "sagpool":
        encoder = HierarchicalPoolEncoder(
            in_dim, hidden_dim, num_layers,
            lambda i, o: GCNConv(i, o, rng),
            lambda dim: SAGPooling(dim, rng, ratio=pool_ratio),
            rng,
        )
    elif name == "gat":
        encoder = StackedEncoder(
            in_dim, hidden_dim, num_layers,
            lambda i, o: GATConv(i, o, rng), rng, readout=readout, dropout=dropout,
        )
    elif name == "sage":
        encoder = StackedEncoder(
            in_dim, hidden_dim, num_layers,
            lambda i, o: SAGEConv(i, o, rng), rng, readout=readout, dropout=dropout,
        )
    else:
        raise ValueError(f"unknown model {name!r}; choose from {available_models()}")
    return GraphClassifier(encoder, out_dim, rng)
