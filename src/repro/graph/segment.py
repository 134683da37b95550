"""Differentiable segment reductions and the message-passing operator builder.

The segment ops are thin re-exports of the autograd implementations so
graph code can import them from the graph substrate, mirroring how PyG
layers import from ``torch_scatter``.

:func:`message_pass_operator` is the norm-aware front of the fused
message-passing path (see
:class:`~repro.autograd.functional.MessagePassOperator`): it resolves a
norm kind ("gcn" / "mean" / "sum") into per-edge weights — self loops
included for GCN — and builds the forward CSR; the transpose CSR follows
on the first backward.  It does not cache.  Convs ask their connectivity
container instead:
:meth:`Topology.operator <repro.graph.data.Topology.operator>` (and the
same memo on :class:`~repro.graph.utils.SeedEdgeIndex`) builds each
operator once per batch, shares it across every layer of the forward and
the backward, and frees it with the batch.
"""

from __future__ import annotations

import numpy as np

from repro.autograd.functional import (
    MessagePassOperator,
    eager_message_pass,
    fused_message_pass_enabled,
    message_pass,
    segment_max,
    segment_mean,
    segment_softmax,
    segment_sum,
)
from repro.graph.utils import add_self_loops, gcn_norm_coefficients
from repro.obs.registry import FLAGS, registry
from repro.obs.trace import span

__all__ = [
    "segment_sum",
    "segment_mean",
    "segment_max",
    "segment_softmax",
    "message_pass",
    "message_pass_operator",
    "eager_message_pass",
    "fused_message_pass_enabled",
    "NORM_KINDS",
]

#: Supported edge-weighting schemes: GCN symmetric ``1/sqrt(d_u d_v)``
#: (self loops added), mean aggregation ``1/deg(dst)``, unweighted sum.
NORM_KINDS = ("gcn", "mean", "sum")

_BUILD_EVENTS = registry.counter(
    "repro_msgpass_builds_total",
    "Message-passing operator builds by norm",
    ("norm",),
)
_BUILD_SECONDS = registry.counter(
    "repro_msgpass_build_seconds_total",
    "Wall seconds spent building message-passing operators",
    ("norm",),
)


def _norm_weights(edge_index: np.ndarray, num_nodes: int, norm: str):
    """Resolve ``norm`` into ``(src, dst, float64 weights)`` for one graph."""
    if norm == "gcn":
        looped = add_self_loops(edge_index, num_nodes)
        return looped[0], looped[1], gcn_norm_coefficients(looped, num_nodes)
    if edge_index.size == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, np.zeros(0, dtype=np.float64)
    src, dst = edge_index
    if norm == "mean":
        counts = np.maximum(np.bincount(dst, minlength=num_nodes).astype(np.float64), 1.0)
        # The same reciprocal segment_mean broadcasts — gathered per edge.
        return src, dst, (1.0 / counts)[dst]
    return src, dst, np.ones(edge_index.shape[1], dtype=np.float64)


def _tile_for_seeds(src, dst, weights, num_nodes: int, num_seeds: int):
    """Seed-major block-diagonal tiling over the ``K * n`` flat node space.

    Each seed's edges keep their original order and never interleave
    (matching :meth:`~repro.graph.utils.SeedEdgeIndex.from_shared`), so
    the flat operator's per-bucket accumulation is bitwise equal to K
    per-seed applications.
    """
    offsets = np.arange(num_seeds, dtype=np.int64)[:, None] * num_nodes
    return (
        (src[None, :] + offsets).reshape(-1),
        (dst[None, :] + offsets).reshape(-1),
        np.tile(weights, num_seeds),
    )


def _build_operator(edge_index, num_nodes: int, norm: str, dtype: np.dtype,
                    num_seeds: int) -> MessagePassOperator:
    src, dst, weights = _norm_weights(edge_index, num_nodes, norm)
    if num_seeds > 1:
        src, dst, weights = _tile_for_seeds(src, dst, weights, num_nodes, num_seeds)
    total = num_seeds * num_nodes
    return MessagePassOperator(src, dst, weights.astype(dtype, copy=False), total, total)


def message_pass_operator(edge_index, num_nodes: int, norm: str = "sum",
                          dtype=np.float64, num_seeds: int = 1) -> MessagePassOperator:
    """Build the :class:`MessagePassOperator` for one (topology, norm, dtype).

    Uncached: every call builds.  Inside a forward, go through the
    connectivity's memo (``edges.operator(norm, dtype, num_seeds)``).

    Parameters
    ----------
    edge_index:
        ``(2, m)`` int64 connectivity, shared by every seed.
    num_nodes:
        Nodes per seed copy; the operator acts on ``num_seeds * num_nodes``
        flat rows.
    norm:
        One of :data:`NORM_KINDS`.  "gcn" adds self loops and bakes the
        symmetric norm; "mean" bakes ``1/deg(dst)``; "sum" is unweighted.
    dtype:
        Float dtype of the activations the operator will multiply; the
        float64 coefficients are cast once at build (exactly the cast the
        eager path applied per forward).
    num_seeds:
        For shared ``(2, m)`` connectivity: replicate the operator
        block-diagonally so a ``(K, n, h)`` stack reshaped to
        ``(K * n, h)`` aggregates every seed in one matmul.
    """
    if norm not in NORM_KINDS:
        raise ValueError(f"unknown norm kind {norm!r}; choose from {NORM_KINDS}")
    dtype = np.dtype(dtype)
    if not FLAGS.metrics:
        return _build_operator(edge_index, num_nodes, norm, dtype, num_seeds)
    with _BUILD_SECONDS.time(norm=norm), span("msgpass.build", norm=norm, seeds=num_seeds):
        operator = _build_operator(edge_index, num_nodes, norm, dtype, num_seeds)
    _BUILD_EVENTS.inc(norm=norm)
    return operator
