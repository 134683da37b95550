"""Attention and sampling-based convolutions: GAT and GraphSAGE.

Both architectures appear in the paper's related-work discussion (its
references [6] and [35]); they extend the baseline zoo beyond the eight
methods of Tables 2-4 and are exposed through the same
:func:`repro.encoders.build_model` registry (names ``"gat"``, ``"sage"``).
"""

from __future__ import annotations

import numpy as np

from repro.autograd.tensor import Tensor
from repro.autograd import functional as F
from repro.graph.segment import segment_sum, segment_softmax
from repro.graph.utils import add_self_loops
from repro.nn.module import Module, Parameter
from repro.nn.layers import Linear, SeedStackingError, register_seed_stacker, stack_instance, stack_seed_modules
from repro.nn import init
from repro.encoders.conv import aggregate

__all__ = ["GATConv", "SAGEConv", "SeedGATConv"]


class GATConv(Module):
    """Graph attention convolution (Velickovic et al., 2018).

    Multi-head additive attention over the 1-hop neighbourhood (with self
    loops); head outputs are concatenated, so ``out_dim`` must be
    divisible by ``num_heads``.
    """

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator, num_heads: int = 4,
                 negative_slope: float = 0.2):
        super().__init__()
        if out_dim % num_heads:
            raise ValueError(f"out_dim {out_dim} must be divisible by num_heads {num_heads}")
        self.num_heads = num_heads
        self.head_dim = out_dim // num_heads
        self.negative_slope = negative_slope
        self.linear = Linear(in_dim, out_dim, rng, bias=False)
        # Attention vectors a = [a_src || a_dst] per head.
        self.att_src = Parameter(init.xavier_uniform((num_heads, self.head_dim), rng), name="att_src")
        self.att_dst = Parameter(init.xavier_uniform((num_heads, self.head_dim), rng), name="att_dst")
        self.bias = Parameter(init.zeros((out_dim,)), name="bias")

    def forward(self, x: Tensor, edges) -> Tensor:
        """Multi-head attention over the (self-looped) neighbourhood."""
        num_nodes = edges.num_nodes
        looped = add_self_loops(edges.edge_index, num_nodes)
        src, dst = looped
        h = self.linear(x).reshape(num_nodes, self.num_heads, self.head_dim)
        # Additive attention logits per edge and head.
        alpha_src = (h * self.att_src).sum(axis=2)  # (n, heads)
        alpha_dst = (h * self.att_dst).sum(axis=2)
        logits = (alpha_src[src] + alpha_dst[dst]).leaky_relu(self.negative_slope)
        attention = segment_softmax(logits, dst, num_nodes)  # normalised over incoming edges
        messages = h[src] * attention.unsqueeze(2)
        out = segment_sum(messages, dst, num_nodes)
        return out.reshape(num_nodes, self.num_heads * self.head_dim) + self.bias


class SAGEConv(Module):
    """GraphSAGE convolution (Hamilton et al., 2017), mean aggregator.

    ``h' = W_self x + W_neigh mean_{u in N(v)} x_u`` with optional L2
    output normalisation as in the original paper.

    The neighbourhood mean runs through the batch's fused message-passing
    operator (:func:`~repro.encoders.conv.aggregate`) with the per-edge
    ``1/deg(dst)`` weighting baked into the matrix — the
    gather -> scale -> scatter form of the mean, rather than
    sum-then-divide (same scale factors applied per edge instead of per
    bucket; the results agree to rounding).  Like GCN and GIN it is its
    own seed stack over ``(K, n, h)`` activations.
    """

    supports_seed_edges = True

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator, normalise: bool = False):
        super().__init__()
        self.self_linear = Linear(in_dim, out_dim, rng)
        self.neigh_linear = Linear(in_dim, out_dim, rng, bias=False)
        self.normalise = normalise

    def forward(self, x: Tensor, edges) -> Tensor:
        """Combine self features with the neighbourhood mean."""
        if edges.num_edges:
            neigh = aggregate(edges, "mean", x)
        else:
            neigh = Tensor._wrap(np.zeros_like(x.data))
        out = self.self_linear(x) + self.neigh_linear(neigh)
        if self.normalise:
            norms = (out * out).sum(axis=-1, keepdims=True).sqrt() + 1e-12
            out = out / norms
        return out


class SeedGATConv(Module):
    """Seed-stacked :class:`GATConv` over ``(K, n, h)`` node activations.

    The (self-looped) connectivity is shared across seeds; the linear map,
    attention vectors and bias are per-seed.  Attention logits live as
    ``(K, E, heads)`` edge scores normalised per destination segment by
    :func:`~repro.autograd.functional.seed_segment_softmax` — every step
    mirrors the per-seed forward on contiguous seed slices, so the batched
    run is bitwise equal to K sequential :class:`GATConv` forwards.
    """

    def __init__(self, linear: Linear, att_src: np.ndarray, att_dst: np.ndarray,
                 bias: np.ndarray, num_heads: int, negative_slope: float):
        super().__init__()
        self.num_seeds = att_src.shape[0]
        self.num_heads = num_heads
        self.head_dim = att_src.shape[2]
        self.negative_slope = negative_slope
        self.linear = linear
        self.att_src = Parameter(att_src, name="att_src")
        self.att_dst = Parameter(att_dst, name="att_dst")
        self.bias = Parameter(bias, name="bias")

    @classmethod
    def from_layers(cls, convs: list[GATConv]) -> "SeedGATConv":
        template = convs[0]
        for conv in convs[1:]:
            shape = (conv.num_heads, conv.head_dim, conv.negative_slope)
            if shape != (template.num_heads, template.head_dim, template.negative_slope):
                raise SeedStackingError(
                    "cannot stack GATConv layers with differing attention hyper-parameters"
                )
        return cls(
            stack_seed_modules([c.linear for c in convs]),
            np.stack([c.att_src.data for c in convs]),
            np.stack([c.att_dst.data for c in convs]),
            np.stack([c.bias.data for c in convs]),
            template.num_heads,
            template.negative_slope,
        )

    def forward(self, x: Tensor, edges) -> Tensor:
        num_nodes = edges.num_nodes
        looped = add_self_loops(edges.edge_index, num_nodes)
        src, dst = looped
        h = self.linear(x).reshape(self.num_seeds, num_nodes, self.num_heads, self.head_dim)
        alpha_src = (h * self.att_src.unsqueeze(1)).sum(axis=3)  # (K, n, heads)
        alpha_dst = (h * self.att_dst.unsqueeze(1)).sum(axis=3)
        logits = (F.seed_gather(alpha_src, src) + F.seed_gather(alpha_dst, dst)).leaky_relu(
            self.negative_slope
        )
        attention = F.seed_segment_softmax(logits, dst, num_nodes)  # (K, E, heads)
        messages = F.seed_gather(h, src) * attention.unsqueeze(3)
        out = F.seed_segment_sum(messages, dst, num_nodes)
        out = out.reshape(self.num_seeds, num_nodes, self.num_heads * self.head_dim)
        return out + self.bias.unsqueeze(1)


register_seed_stacker(GATConv)(SeedGATConv.from_layers)
register_seed_stacker(SAGEConv)(stack_instance)
