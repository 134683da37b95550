"""Differentiable segment reductions and the cached message-passing operator.

The segment ops are thin re-exports of the autograd implementations so
graph code can import them from the graph substrate, mirroring how PyG
layers import from ``torch_scatter``.

:func:`message_pass_operator` is the norm-aware front of the fused
message-passing path (see
:class:`~repro.autograd.functional.MessagePassOperator`): it resolves a
norm kind ("gcn" / "mean" / "sum") into per-edge weights — self loops
included for GCN — builds the forward + transpose CSR pair, and caches the
result keyed on the edge-index *buffer* plus (num_nodes, norm, dtype,
seeds).  Within a mini-batch the same edge buffer drives every conv layer,
and across epochs / serving replays the batch buffers are stable (the
inference engine interns packed topologies), so self loops, degree counts,
norm coefficients and both sparse structures are paid once per distinct
topology instead of once per layer per forward.

Cache discipline matches the scatter-operator cache in
``repro.autograd.functional``: each entry keeps a strong reference to the
keyed array (the buffer cannot be recycled under the key) plus a snapshot
copy; a pointer hit revalidates content against the snapshot, so mutating
a cached edge buffer in place is a rebuild, never a stale operator.
Access is lock-guarded for the serving worker thread, and the table is a
small LRU — pooling ladders materialise fresh coarsened edge lists every
forward and must churn through without evicting the hot batch operators
pathologically.
"""

from __future__ import annotations

import threading

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
from repro.graph.utils import SeedEdgeIndex, add_self_loops, gcn_norm_coefficients
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
    "clear_message_pass_cache",
    "NORM_KINDS",
]

#: Supported edge-weighting schemes: GCN symmetric ``1/sqrt(d_u d_v)``
#: (self loops added), mean aggregation ``1/deg(dst)``, unweighted sum.
NORM_KINDS = ("gcn", "mean", "sum")

_OPERATOR_CACHE: dict = {}
_OPERATOR_CACHE_MAX = 16
_OPERATOR_CACHE_LOCK = threading.Lock()

# Build events only (hit counters ride the pull-time cache collector in
# ``repro.obs.caches`` — the hot hit path carries no registry work).
_BUILD_EVENTS = registry.counter(
    "repro_msgpass_builds_total",
    "Message-passing operator builds by norm and trigger (miss/rebuild)",
    ("norm", "event"),
)
_BUILD_SECONDS = registry.counter(
    "repro_msgpass_build_seconds_total",
    "Wall seconds spent building message-passing operators",
    ("norm",),
)
_OPERATOR_CACHE_STATS = {"hits": 0, "misses": 0, "rebuilds": 0}


def _cache_info() -> dict:
    """Operator-cache counters in the unified ``hits/misses/rebuilds/size``
    shape (the per-cache entry behind ``repro.obs.cache_info()``)."""
    with _OPERATOR_CACHE_LOCK:
        info = dict(_OPERATOR_CACHE_STATS)
        info["size"] = len(_OPERATOR_CACHE)
        return info


def clear_message_pass_cache() -> None:
    """Drop all cached operators and reset the counters (test isolation)."""
    with _OPERATOR_CACHE_LOCK:
        _OPERATOR_CACHE.clear()
        for key in _OPERATOR_CACHE_STATS:
            _OPERATOR_CACHE_STATS[key] = 0


def _buffer_key(array: np.ndarray):
    interface = array.__array_interface__
    return (interface["data"][0], array.shape, array.strides, array.dtype.str)


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
    (matching :meth:`SeedEdgeIndex.from_shared`), so the flat operator's
    per-bucket accumulation is bitwise equal to K per-seed applications.
    """
    offsets = np.arange(num_seeds, dtype=np.int64)[:, None] * num_nodes
    return (
        (src[None, :] + offsets).reshape(-1),
        (dst[None, :] + offsets).reshape(-1),
        np.tile(weights, num_seeds),
    )


def _build_operator(edges, num_nodes: int, norm: str, dtype: np.dtype,
                    num_seeds: int) -> MessagePassOperator:
    if isinstance(edges, SeedEdgeIndex):
        total = edges.num_seeds * edges.num_nodes
        if norm == "gcn":
            looped = edges.with_self_loops()
            src, dst, weights = looped[0], looped[1], gcn_norm_coefficients(looped, total)
        else:
            src, dst, weights = _norm_weights(edges.flat, total, norm)
    else:
        total = num_seeds * num_nodes
        src, dst, weights = _norm_weights(edges, num_nodes, norm)
        if num_seeds > 1:
            src, dst, weights = _tile_for_seeds(src, dst, weights, num_nodes, num_seeds)
    return MessagePassOperator(src, dst, weights.astype(dtype, copy=False), total, total)


def message_pass_operator(edge_index, num_nodes: int, norm: str = "sum",
                          dtype=np.float64, num_seeds: int = 1) -> MessagePassOperator:
    """Cached :class:`MessagePassOperator` for one (topology, norm, dtype).

    Parameters
    ----------
    edge_index:
        ``(2, m)`` int64 connectivity shared by every seed, or a
        :class:`~repro.graph.utils.SeedEdgeIndex` carrying per-seed
        connectivity over the flat ``K * n`` node space (``num_seeds`` is
        then taken from the container).
    num_nodes:
        Nodes per seed copy; the operator acts on ``num_seeds * num_nodes``
        flat rows.
    norm:
        One of :data:`NORM_KINDS`.  "gcn" adds self loops and bakes the
        symmetric norm; "mean" bakes ``1/deg(dst)``; "sum" is unweighted.
    dtype:
        Float dtype of the activations the operator will multiply; the
        float64 coefficients are cast once at build (exactly the cast the
        eager path applied per forward), and float32/float64 callers get
        distinct cached operators.
    num_seeds:
        For shared ``(2, m)`` connectivity: replicate the operator
        block-diagonally so a ``(K, n, h)`` stack reshaped to
        ``(K * n, h)`` aggregates every seed in one matmul.
    """
    if norm not in NORM_KINDS:
        raise ValueError(f"unknown norm kind {norm!r}; choose from {NORM_KINDS}")
    dtype = np.dtype(dtype)
    if isinstance(edge_index, SeedEdgeIndex):
        keyed = edge_index.flat
        num_nodes = edge_index.num_nodes
        num_seeds = edge_index.num_seeds
        kind = "seed"
    else:
        keyed = edge_index
        kind = "shared"
    key = (_buffer_key(keyed), int(num_nodes), int(num_seeds), kind, norm, dtype.str)
    with _OPERATOR_CACHE_LOCK:
        entry = _OPERATOR_CACHE.get(key)
        if entry is not None:
            if np.array_equal(entry[1], keyed):
                _OPERATOR_CACHE_STATS["hits"] += 1
                # LRU touch: re-insert at the back of the eviction order.
                _OPERATOR_CACHE[key] = _OPERATOR_CACHE.pop(key)
                return entry[2]
            _OPERATOR_CACHE_STATS["rebuilds"] += 1
            event = "rebuild"
        else:
            _OPERATOR_CACHE_STATS["misses"] += 1
            event = "miss"
    if FLAGS.metrics:
        # Builds are the expensive path (CSR pair + norm coefficients);
        # hits stay untimed — the counter bridge covers them pull-time.
        with _BUILD_SECONDS.time(norm=norm), span("msgpass.build", norm=norm,
                                                  event=event, seeds=num_seeds):
            operator = _build_operator(edge_index, num_nodes, norm, dtype, num_seeds)
        _BUILD_EVENTS.inc(norm=norm, event=event)
    else:
        operator = _build_operator(edge_index, num_nodes, norm, dtype, num_seeds)
    with _OPERATOR_CACHE_LOCK:
        if key not in _OPERATOR_CACHE and len(_OPERATOR_CACHE) >= _OPERATOR_CACHE_MAX:
            _OPERATOR_CACHE.pop(next(iter(_OPERATOR_CACHE)))
        _OPERATOR_CACHE[key] = (keyed, keyed.copy(), operator)
    return operator
