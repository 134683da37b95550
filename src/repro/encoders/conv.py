"""Message-passing convolution layers.

Each layer consumes node features plus the batch's connectivity — a
:class:`~repro.graph.data.Topology`, or for the seed-stacked pooling
ladders a :class:`~repro.graph.utils.SeedEdgeIndex` — and returns new
node features.  All follow their original papers:

* :class:`GCNConv` — Kipf & Welling (2017), symmetric renormalised mean.
* :class:`GINConv` — Xu et al. (2019), sum aggregation + MLP, learnable eps.
* :class:`PNAConv` — Corso et al. (2020), principal neighbourhood
  aggregation: {mean, max, min, std} aggregators x {identity,
  amplification, attenuation} degree scalers.
* :class:`FactorGCNConv` — Yang et al. (2020), factorised edge attention
  producing disentangled factor graphs.

The fixed-weight aggregations (GCN / GIN and their ``Seed*`` stacks, plus
SAGE in :mod:`repro.encoders.attention`) run through the fused
message-passing operator — one normalised-adjacency matmul per layer with
the transpose for the backward, bitwise equal to the eager
gather -> scale -> scatter chain.  A conv asks its connectivity for it
(``edges.operator(norm, dtype, num_seeds)``), which builds it once per
batch and shares it with every other layer; see the "Fused message
passing" section of ``docs/ARCHITECTURE.md``.  Dynamic-weight convs
(GAT's attention, PNA's multi-aggregator grid, FactorGCN's factor
attention) keep the eager segment ops.
"""

from __future__ import annotations

import numpy as np

from repro.autograd.tensor import Tensor, is_grad_enabled
from repro.autograd import functional as F
from repro.graph.segment import segment_sum, segment_mean, segment_max
from repro.graph.utils import degrees
from repro.nn.module import Module, Parameter
from repro.nn.layers import Linear, MLP, SeedLinear, SeedMLP, SeedStackingError, register_seed_stacker
from repro.nn import init

__all__ = [
    "GCNConv",
    "GINConv",
    "PNAConv",
    "FactorGCNConv",
    "SeedGCNConv",
    "SeedGINConv",
    "SeedPNAConv",
]


class GCNConv(Module):
    """Graph convolution: ``H' = D^-1/2 (A + I) D^-1/2 H W + b``."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        super().__init__()
        self.linear = Linear(in_dim, out_dim, rng)

    def forward(self, x: Tensor, edges) -> Tensor:
        """Symmetric-normalised neighbourhood aggregation (with self loops)."""
        h = self.linear(x)
        return F.message_pass(edges.operator("gcn", h.data.dtype), h)


class GINConv(Module):
    """Graph isomorphism convolution: ``H' = MLP((1 + eps) h_v + sum_u h_u)``."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator, train_eps: bool = True):
        super().__init__()
        self.mlp = MLP([in_dim, out_dim, out_dim], rng, batch_norm=True)
        if train_eps:
            self.eps = Parameter(np.zeros(1), name="eps")
        else:
            self.eps = None

    def forward(self, x: Tensor, edges) -> Tensor:
        """Sum-aggregate neighbours and transform with the GIN MLP."""
        if edges.num_edges:
            aggregated = F.message_pass(edges.operator("sum", x.data.dtype), x)
        else:
            # An edge-free graph aggregates nothing: a constant zeros
            # tensor, not a taped full-size multiply by 0.0.
            aggregated = Tensor._wrap(np.zeros_like(x.data))
        if self.eps is not None:
            combined = _eps_combine(x, self.eps, aggregated)
        else:
            combined = x + aggregated
        return self.mlp(combined)


class SeedGCNConv(Module):
    """Seed-stacked :class:`GCNConv` over ``(K, n, h)`` node activations.

    The connectivity (and hence the normalisation coefficients) is shared
    by every seed; only the linear map is per-seed.  Part of the batched
    multi-seed engine (``docs/ARCHITECTURE.md``).

    ``edges`` is the batch's :class:`~repro.graph.data.Topology`, tiled
    block-diagonally over the ``K * n`` flat nodes, or the per-seed
    :class:`~repro.graph.utils.SeedEdgeIndex` of the seed-stacked pooling
    layers (``supports_seed_edges``).  Either way the stack aggregates in
    one fused matmul, bitwise equal to K per-seed :class:`GCNConv` runs.
    """

    supports_seed_edges = True

    def __init__(self, linear: SeedLinear):
        super().__init__()
        self.linear = linear

    @classmethod
    def from_layers(cls, convs: list[GCNConv]) -> "SeedGCNConv":
        return cls(SeedLinear.from_layers([c.linear for c in convs]))

    def forward(self, x: Tensor, edges) -> Tensor:
        h = self.linear(x)
        num_seeds, num_nodes, out_dim = h.shape
        operator = edges.operator("gcn", h.data.dtype, num_seeds)
        flat = h.reshape(num_seeds * num_nodes, out_dim)
        return F.message_pass(operator, flat).reshape(num_seeds, num_nodes, out_dim)


class SeedGINConv(Module):
    """Seed-stacked :class:`GINConv`: shared edges, per-seed MLP and eps.

    ``eps`` is ``(K, 1)`` so each seed's scalar broadcasts over its own
    slice of the ``(K, n, h)`` activations.  ``edges`` is either container,
    as for :class:`SeedGCNConv`.
    """

    supports_seed_edges = True

    def __init__(self, mlp: SeedMLP, eps: np.ndarray | None):
        super().__init__()
        self.mlp = mlp
        self.eps = Parameter(eps, name="eps") if eps is not None else None

    @classmethod
    def from_layers(cls, convs: list[GINConv]) -> "SeedGINConv":
        mlp = SeedMLP.from_layers([c.mlp for c in convs])
        has_eps = convs[0].eps is not None
        eps = np.stack([c.eps.data for c in convs]) if has_eps else None
        return cls(mlp, eps)

    def forward(self, x: Tensor, edges) -> Tensor:
        if edges.num_edges:
            num_seeds, num_nodes, dim = x.shape
            operator = edges.operator("sum", x.data.dtype, num_seeds)
            flat = x.reshape(num_seeds * num_nodes, dim)
            aggregated = F.message_pass(operator, flat).reshape(num_seeds, num_nodes, dim)
        else:
            aggregated = Tensor._wrap(np.zeros_like(x.data))
        if self.eps is not None:
            combined = _eps_combine(x, self.eps, aggregated)
        else:
            combined = x + aggregated
        return self.mlp(combined)


def _eps_combine(x: Tensor, eps: Tensor, aggregated: Tensor) -> Tensor:
    """The GIN combine ``x * (eps + 1) + aggregated`` as one tape node.

    ``eps`` is ``(1,)`` for :class:`GINConv` and ``(K, 1)`` for
    :class:`SeedGINConv`.  The sum is built in place on the product
    buffer, the same two ufuncs as the three-node tensor chain.  The eps
    adjoint reduces ``g * x`` over the sample axis first and the feature
    axis second, the association of the per-seed broadcast adjoint, so
    the taped combine is bitwise equal to that chain and the batched run
    to K sequential :class:`GINConv` runs.
    """
    xd = x.data
    scale = (eps.data + 1.0)[..., None]
    out = xd * scale
    out += aggregated.data
    if not is_grad_enabled():
        return Tensor._wrap(out)
    return Tensor._make(
        out,
        [
            (x, lambda g: g * scale),
            (eps, lambda g: (g * xd).sum(axis=-2).sum(axis=-1, keepdims=True)),
            (aggregated, lambda g: g),
        ],
    )


register_seed_stacker(GCNConv)(SeedGCNConv.from_layers)
register_seed_stacker(GINConv)(SeedGINConv.from_layers)
# PNAConv is defined below; its stacker is registered after the class.


class PNAConv(Module):
    """Principal neighbourhood aggregation.

    Applies mean / max / min / std aggregators, scales each by the three
    degree scalers of the paper (identity, amplification
    ``log(d+1)/delta``, attenuation ``delta/log(d+1)``), concatenates the
    twelve blocks with the central node features, and projects back to
    ``out_dim``.

    Parameters
    ----------
    degree_scale:
        The train-set average of ``log(degree + 1)`` (the paper's delta),
        computed once per dataset via
        :func:`repro.encoders.models.compute_pna_degree_scale`.
    """

    # The train-set delta is dataset state, not architecture: declaring it
    # a buffer makes it travel with checkpoints/artifacts, so a PNA model
    # rebuilt from a spec serves with the exact delta it trained with.
    _buffer_names = ("degree_scale",)

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator, degree_scale: float = 1.0):
        super().__init__()
        self.degree_scale = max(float(degree_scale), 1e-6)
        self.pre = Linear(in_dim, out_dim, rng)
        # 4 aggregators * 3 scalers + self features.
        self.post = Linear(13 * out_dim, out_dim, rng)

    def forward(self, x: Tensor, edges) -> Tensor:
        """Aggregate with the 4x3 aggregator/scaler grid and project."""
        edge_index, num_nodes = edges.edge_index, edges.num_nodes
        h = self.pre(x)
        if edge_index.size:
            src, dst = edge_index
            neigh = h[src]
            mean = segment_mean(neigh, dst, num_nodes)
            maxim = segment_max(neigh, dst, num_nodes)
            minim = -segment_max(-neigh, dst, num_nodes)
            sq_mean = segment_mean(neigh * neigh, dst, num_nodes)
            var = (sq_mean - mean * mean).relu()
            std = (var + 1e-8).sqrt()
        else:
            zeros = h * 0.0
            mean = maxim = minim = std = zeros
        deg = degrees(edge_index, num_nodes).astype(np.float64)
        log_deg = np.log(deg + 1.0)
        amplify = Tensor((log_deg / self.degree_scale)[:, None])
        attenuate = Tensor((self.degree_scale / np.maximum(log_deg, 1e-6))[:, None])
        blocks = [h]
        for agg in (mean, maxim, minim, std):
            blocks.extend([agg, agg * amplify, agg * attenuate])
        return self.post(F.concatenate(blocks, axis=1))


class SeedPNAConv(Module):
    """Seed-stacked :class:`PNAConv`: shared edges and delta, per-seed maps.

    Every aggregator/scaler has a seed-axis counterpart (``seed_gather`` /
    ``seed_segment_mean`` / ``seed_segment_max`` plus elementwise algebra),
    so the 4x3 grid concatenates along the feature axis of the ``(K, n, h)``
    stack exactly as the per-seed op does along axis 1 — bitwise parity per
    slice.  The train-set ``degree_scale`` is dataset state shared by the
    roster; stacking rosters trained against different deltas is refused.
    """

    def __init__(self, pre: SeedLinear, post: SeedLinear, degree_scale: float):
        super().__init__()
        self.degree_scale = degree_scale
        self.pre = pre
        self.post = post

    @classmethod
    def from_layers(cls, convs: list[PNAConv]) -> "SeedPNAConv":
        template = convs[0]
        if any(c.degree_scale != template.degree_scale for c in convs[1:]):
            raise SeedStackingError(
                "cannot stack PNAConv layers with differing degree_scale buffers"
            )
        return cls(
            SeedLinear.from_layers([c.pre for c in convs]),
            SeedLinear.from_layers([c.post for c in convs]),
            template.degree_scale,
        )

    def forward(self, x: Tensor, edges) -> Tensor:
        edge_index, num_nodes = edges.edge_index, edges.num_nodes
        h = self.pre(x)
        if edge_index.size:
            src, dst = edge_index
            neigh = F.seed_gather(h, src)
            mean = F.seed_segment_mean(neigh, dst, num_nodes)
            maxim = F.seed_segment_max(neigh, dst, num_nodes)
            minim = -F.seed_segment_max(-neigh, dst, num_nodes)
            sq_mean = F.seed_segment_mean(neigh * neigh, dst, num_nodes)
            var = (sq_mean - mean * mean).relu()
            std = (var + 1e-8).sqrt()
        else:
            zeros = h * 0.0
            mean = maxim = minim = std = zeros
        deg = degrees(edge_index, num_nodes).astype(np.float64)
        log_deg = np.log(deg + 1.0)
        amplify = Tensor((log_deg / self.degree_scale)[:, None])
        attenuate = Tensor((self.degree_scale / np.maximum(log_deg, 1e-6))[:, None])
        blocks = [h]
        for agg in (mean, maxim, minim, std):
            blocks.extend([agg, agg * amplify, agg * attenuate])
        return self.post(F.concatenate(blocks, axis=2))


register_seed_stacker(PNAConv)(SeedPNAConv.from_layers)


class FactorGCNConv(Module):
    """Factorised graph convolution (FactorGCN).

    Decomposes the input graph into ``num_factors`` latent factor graphs:
    each factor learns a scalar attention per edge (sigmoid of a bilinear
    score of the endpoints), performs mean aggregation on its own weighted
    adjacency, and the factor outputs are concatenated.  The
    disentanglement discriminator of the original paper is left out: it is
    a second, adversarially trained model with its own training loop,
    which the shared trainer here does not run.
    :meth:`disentangle_penalty` reports how much the factor graphs overlap
    instead, as a diagnostic that training does not use.
    """

    def __init__(self, in_dim: int, out_dim: int, num_factors: int, rng: np.random.Generator):
        super().__init__()
        if out_dim % num_factors:
            raise ValueError(f"out_dim {out_dim} must be divisible by num_factors {num_factors}")
        self.num_factors = num_factors
        factor_dim = out_dim // num_factors
        self.factor_transforms = [Linear(in_dim, factor_dim, rng) for _ in range(num_factors)]
        for i, lin in enumerate(self.factor_transforms):
            self._modules[f"factor_{i}"] = lin
        self.edge_scores = Parameter(init.xavier_uniform((num_factors, 2 * in_dim), rng), name="edge_scores")
        self._last_attention: np.ndarray | None = None

    def forward(self, x: Tensor, edges) -> Tensor:
        """Run every factor's attention-weighted aggregation; concatenate."""
        edge_index, num_nodes = edges.edge_index, edges.num_nodes
        outputs = []
        attentions = []
        if edge_index.size:
            src, dst = edge_index
            endpoints = F.concatenate([x[src], x[dst]], axis=1)
        else:
            src = dst = np.zeros(0, dtype=np.int64)
            endpoints = None
        for f in range(self.num_factors):
            h = self.factor_transforms[f](x)
            if endpoints is not None:
                score = (endpoints @ self.edge_scores[f]).leaky_relu(0.2).sigmoid()
                attentions.append(score.data)
                messages = h[src] * score.unsqueeze(1)
                agg = segment_sum(messages, dst, num_nodes)
                denom = segment_sum(score.unsqueeze(1), dst, num_nodes) + 1e-9
                outputs.append(h + agg / denom)
            else:
                outputs.append(h)
        if attentions:
            self._last_attention = np.stack(attentions, axis=0)
        return F.concatenate(outputs, axis=1)

    def disentangle_penalty(self) -> float:
        """Mean pairwise cosine similarity of the factor attention vectors.

        Lower is more disentangled; surfaced for diagnostics and tests.
        """
        if self._last_attention is None or self._last_attention.shape[1] == 0:
            return 0.0
        a = self._last_attention
        norms = np.linalg.norm(a, axis=1, keepdims=True) + 1e-12
        unit = a / norms
        sim = unit @ unit.T
        upper = sim[np.triu_indices(len(a), k=1)]
        return float(upper.mean()) if upper.size else 0.0
