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

The fixed-weight aggregations (GCN / GIN here, SAGE in
:mod:`repro.encoders.attention`) run through :func:`aggregate`: the fused
message-passing operator, one normalised-adjacency matmul per layer with
the transpose for the backward, bitwise equal to the eager
gather -> scale -> scatter chain.  It asks the connectivity for the
operator (``edges.operator(norm, dtype, num_seeds)``), which builds it
once per batch and shares it with every other layer; see the "Fused
message passing" section of ``docs/ARCHITECTURE.md``.  These three convs
are their own seed stacks: a stack holds stacked parameters, takes
``(K, n, h)`` activations, and :func:`aggregate` runs its K seeds as one
block-diagonal matmul.  Dynamic-weight convs (GAT's attention, PNA's
multi-aggregator grid, FactorGCN's factor attention) keep the eager
segment ops and a ``Seed*`` twin each.
"""

from __future__ import annotations

import numpy as np

from repro.autograd.tensor import Tensor, is_grad_enabled
from repro.autograd import functional as F
from repro.graph.segment import segment_sum, segment_mean, segment_max
from repro.graph.utils import degrees
from repro.nn.module import Module, Parameter
from repro.nn.layers import Linear, MLP, SeedLinear, SeedStackingError, register_seed_stacker, stack_instance
from repro.nn import init

__all__ = [
    "GCNConv",
    "GINConv",
    "PNAConv",
    "FactorGCNConv",
    "SeedPNAConv",
    "SeedFactorGCNConv",
]


def aggregate(edges, norm: str, x: Tensor) -> Tensor:
    """``A_norm @ x`` through the connectivity's fused operator for ``norm``.

    ``x`` is ``(n, h)``, or a seed stack's ``(K, n, h)``, which is
    flattened to ``K * n`` rows for the block-diagonal operator: the batch's
    :class:`~repro.graph.data.Topology` tiled K times, or the per-seed
    :class:`~repro.graph.utils.SeedEdgeIndex` of a stacked pool ladder.
    Either way each seed's rows come out bitwise equal to its own plain run.
    """
    if x.ndim == 2:
        return F.message_pass(edges.operator(norm, x.data.dtype), x)
    num_seeds, num_nodes, dim = x.shape
    operator = edges.operator(norm, x.data.dtype, num_seeds)
    flat = x.reshape(num_seeds * num_nodes, dim)
    return F.message_pass(operator, flat).reshape(num_seeds, num_nodes, dim)


class GCNConv(Module):
    """Graph convolution: ``H' = D^-1/2 (A + I) D^-1/2 H W + b``."""

    supports_seed_edges = True

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        super().__init__()
        self.linear = Linear(in_dim, out_dim, rng)

    def forward(self, x: Tensor, edges) -> Tensor:
        """Symmetric-normalised neighbourhood aggregation (with self loops)."""
        return aggregate(edges, "gcn", self.linear(x))


class GINConv(Module):
    """Graph isomorphism convolution: ``H' = MLP((1 + eps) h_v + sum_u h_u)``."""

    supports_seed_edges = True

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
            aggregated = aggregate(edges, "sum", x)
        else:
            # An edge-free graph aggregates nothing: a constant zeros
            # tensor, not a taped full-size multiply by 0.0.
            aggregated = Tensor._wrap(np.zeros_like(x.data))
        if self.eps is not None:
            combined = _eps_combine(x, self.eps, aggregated)
        else:
            combined = x + aggregated
        return self.mlp(combined)


def _eps_combine(x: Tensor, eps: Tensor, aggregated: Tensor) -> Tensor:
    """The GIN combine ``x * (eps + 1) + aggregated`` as one tape node.

    ``eps`` is ``(1,)`` for a plain :class:`GINConv` and ``(K, 1)`` for
    its seed stack.  The sum is built in place on the product
    buffer, the same two ufuncs as the three-node tensor chain.  The eps
    adjoint reduces ``g * x`` over the sample axis first and the feature
    axis second, the association of the per-seed broadcast adjoint, so
    the taped combine is bitwise equal to that chain and the batched run
    to K sequential plain runs.
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


register_seed_stacker(GCNConv)(stack_instance)
register_seed_stacker(GINConv)(stack_instance)
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
        It reads the attention of this conv's last plain forward, 0.0
        before one.  Training and its validation run on a seed stack
        (:class:`SeedFactorGCNConv` records nothing), so after
        ``Trainer.fit`` that is the last plain evaluation, such as
        ``Trainer.evaluate``, not the last training batch.
        """
        if self._last_attention is None or self._last_attention.shape[1] == 0:
            return 0.0
        a = self._last_attention
        norms = np.linalg.norm(a, axis=1, keepdims=True) + 1e-12
        unit = a / norms
        sim = unit @ unit.T
        upper = sim[np.triu_indices(len(a), k=1)]
        return float(upper.mean()) if upper.size else 0.0


class SeedFactorGCNConv(Module):
    """Seed-stacked :class:`FactorGCNConv`: shared edges, per-seed factors.

    Each factor's edge scores are one ``(K, E, 2h) @ (K, 2h, 1)`` matmul,
    which numpy runs as K GEMVs over contiguous slices, the GEMV the plain
    conv calls; gathers and scatters are the seed-axis primitives.  So the
    stack is bitwise equal to K sequential :class:`FactorGCNConv` forwards
    and backwards.  ``edge_scores`` is ``(K, num_factors, 2h)``.
    """

    def __init__(self, factor_transforms: list[SeedLinear], edge_scores: np.ndarray):
        super().__init__()
        self.num_factors = len(factor_transforms)
        self.factor_transforms = factor_transforms
        for i, lin in enumerate(factor_transforms):
            self._modules[f"factor_{i}"] = lin
        self.edge_scores = Parameter(edge_scores, name="edge_scores")

    @classmethod
    def from_layers(cls, convs: list[FactorGCNConv]) -> "SeedFactorGCNConv":
        transforms = [
            SeedLinear.from_layers([c.factor_transforms[f] for c in convs])
            for f in range(convs[0].num_factors)
        ]
        return cls(transforms, np.stack([c.edge_scores.data for c in convs]))

    def forward(self, x: Tensor, edges) -> Tensor:
        edge_index, num_nodes = edges.edge_index, edges.num_nodes
        if edge_index.size:
            src, dst = edge_index
            endpoints = F.concatenate([F.seed_gather(x, src), F.seed_gather(x, dst)], axis=2)
        else:
            endpoints = None
        outputs = []
        for f in range(self.num_factors):
            h = self.factor_transforms[f](x)
            if endpoints is not None:
                weights = self.edge_scores[:, f].unsqueeze(2)
                score = (endpoints @ weights).leaky_relu(0.2).sigmoid()  # (K, E, 1)
                agg = F.seed_segment_sum(F.seed_gather(h, src) * score, dst, num_nodes)
                denom = F.seed_segment_sum(score, dst, num_nodes) + 1e-9
                outputs.append(h + agg / denom)
            else:
                outputs.append(h)
        return F.concatenate(outputs, axis=2)


register_seed_stacker(FactorGCNConv)(SeedFactorGCNConv.from_layers)
