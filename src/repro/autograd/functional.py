"""Composite differentiable functions built on :class:`~repro.autograd.Tensor`.

Includes the numerically-stable softmax family and the segment reductions
that power message passing and graph pooling (`segment_sum`, `segment_mean`,
`segment_max`).  Segment reductions operate over the leading axis and group
rows by an integer segment id, exactly like ``torch_scatter``.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import threading
from contextlib import contextmanager

import numpy as np

from repro.autograd.tensor import (
    Tensor,
    _matmul_adjoints,
    _unbroadcast,
    as_tensor,
    concatenate,
    is_grad_enabled,
    maximum,
    stack,
    where,
)
from repro.obs.registry import FLAGS as _OBS_FLAGS
from repro.obs.registry import registry as _obs_registry

__all__ = [
    "softmax",
    "log_softmax",
    "logsumexp",
    "scatter_add_rows",
    "MessagePassOperator",
    "message_pass",
    "eager_message_pass",
    "fused_message_pass_enabled",
    "segment_sum",
    "segment_mean",
    "segment_max",
    "segment_softmax",
    "dropout",
    "concatenate",
    "stack",
    "where",
    "maximum",
    "linear",
    "seed_linear",
    "seed_gather",
    "seed_segment_sum",
    "seed_segment_mean",
    "seed_segment_max",
    "seed_segment_softmax",
]


def logsumexp(x: Tensor, axis: int = -1, keepdims: bool = False) -> Tensor:
    """Numerically stable ``log(sum(exp(x)))`` along ``axis``."""
    x = as_tensor(x)
    shift = Tensor(x.data.max(axis=axis, keepdims=True))
    shifted = x - shift
    out = shifted.exp().sum(axis=axis, keepdims=True).log() + shift
    return out if keepdims else out.squeeze(axis)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Log of the softmax along ``axis``, computed stably."""
    x = as_tensor(x)
    return x - logsumexp(x, axis=axis, keepdims=True)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis``, computed via :func:`log_softmax`."""
    return log_softmax(x, axis=axis).exp()


def dropout(x: Tensor, p: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: zero entries with probability ``p`` during training."""
    if not training or p <= 0.0:
        return x
    mask_dtype = x.data.dtype if x.data.dtype.kind == "f" else np.float64
    keep = (rng.random(x.shape) >= p).astype(mask_dtype) / (1.0 - p)
    return x * Tensor(keep)


def _as_segment_ids(segment_ids) -> np.ndarray:
    ids = segment_ids.data if isinstance(segment_ids, Tensor) else segment_ids
    return np.asarray(ids, dtype=np.int64)


def _load_sparsetools():
    """scipy's compiled ``_sparsetools`` extension, or ``None`` without scipy.

    Loads the extension file straight from scipy's package directory and
    registers nothing in ``sys.modules``: importing ``scipy.sparse`` would
    cost ~0.2 s and ~300 modules of start-up (its ``__init__`` also runs
    scipy's array-API shim, which touches every lazy numpy submodule) for
    two C kernels.  A later ``import scipy.sparse`` loads its own copy.
    """
    scipy_spec = importlib.util.find_spec("scipy")  # locates, imports nothing
    if scipy_spec is None:  # pragma: no cover - exercised only without scipy
        return None
    paths = [os.path.join(p, "sparse") for p in scipy_spec.submodule_search_locations]
    spec = importlib.machinery.PathFinder.find_spec("_sparsetools", paths)
    if spec is None:  # pragma: no cover - unusual scipy layouts
        from scipy.sparse import _sparsetools

        return _sparsetools
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_sparsetools = _load_sparsetools()
_csc_matvecs = getattr(_sparsetools, "csc_matvecs", None)
_csr_matvecs = getattr(_sparsetools, "csr_matvecs", None)


def _value_dtype(*arrays) -> np.dtype:
    """Float dtype scatter/segment outputs should use for these operands.

    Float operands keep their precision (float32 stays float32 under the
    serving compute-dtype policy); integer/bool operands accumulate in
    float64, matching the engine-wide default.
    """
    for arr in arrays:
        dtype = getattr(arr, "dtype", None)
        if dtype is not None and dtype.kind == "f":
            return dtype
    return np.dtype(np.float64)


def _checked_ids(ids: np.ndarray, num_rows: int) -> np.ndarray:
    """Bounds-check row indices and resolve negatives, numpy-style.

    The fast scatter/gather kernels below bypass numpy's fancy-index
    bounds checks (``csc_matvecs`` would write out of bounds,
    ``np.take(mode="clip")`` would silently clamp), so the indexing
    semantics of ``x[ids]`` / ``np.add.at`` are enforced here once.
    """
    lo, hi = int(ids.min()), int(ids.max())
    if hi >= num_rows or lo < -num_rows:
        raise IndexError(
            f"index out of bounds for axis 0 with size {num_rows}: range [{lo}, {hi}]"
        )
    if lo < 0:
        return np.where(ids < 0, ids + num_rows, ids)
    return ids


def _scatter_matrix(ids: np.ndarray, num_rows: int, dtype=np.float64):
    """CSC ``(indptr, indices, data)`` of the ``(num_rows, len(ids))``
    one-entry-per-column scatter: it sums rows into their ``ids`` buckets
    in index order, like ``np.add.at``.  ``data`` has the dtype of the
    values it will scatter, as ``csc_matvecs`` requires."""
    n = len(ids)
    indices = np.asarray(_checked_ids(ids, num_rows), dtype=np.intp)
    return np.arange(n + 1), indices, np.ones(n, dtype=dtype)


def _scatter_into(plan, values: np.ndarray, out: np.ndarray) -> None:
    """``out += S @ values`` in place for a :func:`_scatter_matrix` plan.

    Runs scipy's ``csc_matvecs`` kernel directly (no intermediate result
    array); callers check that ``_csc_matvecs`` is bound.  ``values`` and
    ``out`` must be C-contiguous 2-D arrays of the plan's dtype.
    """
    indptr, indices, data = plan
    _csc_matvecs(out.shape[0], len(indices), values.shape[1], indptr, indices, data,
                 values.ravel(), out.ravel())


def _scatter_csc(plan, num_rows: int):
    """The scipy matrix of a :func:`_scatter_matrix` plan, for the scatters
    ``csc_matvecs`` cannot run in place (non-contiguous or mixed-dtype)."""
    from scipy import sparse  # the only scipy.sparse user; kept off start-up

    indptr, indices, data = plan
    return sparse.csc_matrix((data, indices, indptr), shape=(num_rows, len(indices)))


def scatter_add_rows(out: np.ndarray, ids: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``out[ids] += values`` with duplicate ids accumulating, in place.

    Semantically ``np.add.at(out, ids, values)``, but routed through fast
    kernels: ``ufunc.at`` falls back to a slow per-element inner loop for
    multi-dimensional operands, which dominated the profile of batched
    multi-seed training (``(E, K, h)`` messages).  Row scatters go through
    a one-entry-per-column sparse matmul (~10x faster at message-passing
    shapes), 1-D scatters through ``np.bincount``; both accumulate each
    bucket in the same index order as ``add.at``, so the swap preserves
    results and batched/sequential multi-seed parity.
    """
    n = len(ids)
    if n == 0:
        return out
    if values.ndim == 1:
        out += np.bincount(_checked_ids(ids, out.shape[0]), weights=values, minlength=out.shape[0])
        return out
    if _csc_matvecs is not None:
        plan = _scatter_matrix(ids, out.shape[0], out.dtype)
        if out.flags.c_contiguous and values.dtype == out.dtype:
            flat = np.ascontiguousarray(values.reshape(n, -1))
            _scatter_into(plan, flat, out.reshape(out.shape[0], -1))
        else:
            out += (_scatter_csc(plan, out.shape[0]) @ values.reshape(n, -1)).reshape(out.shape)
        return out
    np.add.at(out, ids, values)
    return out


def _csr_arrays(rows: np.ndarray, cols: np.ndarray, weights: np.ndarray, num_rows: int):
    """CSR triplet for ``out[rows] += weights * values[cols]``, edge order kept.

    The stable argsort groups entries by output row while preserving their
    original edge order inside every row bucket, and ``csr_matvecs``
    accumulates a row's entries sequentially in index order — so applying
    the matrix reproduces the eager gather -> scale -> scatter-add chain
    *bitwise* (same products, same per-bucket summation order; scipy's
    axpy kernel does not contract the multiply-add).
    """
    perm = np.argsort(rows, kind="stable")
    indptr = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=num_rows), out=indptr[1:])
    return indptr, cols[perm], weights[perm]


class MessagePassOperator:
    """A fixed weighted-adjacency matmul and its transpose, each built once.

    Represents ``out[dst_j] += w_j * values[src_j]`` — the aggregate step
    of every message-passing conv — as one sparse matrix whose ``data``
    array carries the per-edge weighting (GCN symmetric norm, mean ``1/deg``,
    or plain ones for sum aggregation).  Applying it is a single
    ``csr_matvecs`` call: no ``(m, h)`` gathered-messages intermediate and
    no separate norm-multiply pass, yet bitwise equal to the eager chain
    (see :func:`_csr_arrays`).

    The transpose operator serves the backward: the adjoint of a fixed
    sparse matmul is the transposed matmul, and the transposed CSR
    (entries stable-grouped by ``src``) accumulates exactly like the eager
    adjoint ``scatter_add(src, w * g[dst])`` — multiplication commutes
    bitwise and per-bucket edge order is preserved — so fused training
    gradients match the eager tape bit for bit.  It is built on the first
    :meth:`t_matmul`, so tape-free forwards (serving, eval) never build it.

    Instances may be shared across layers and threads.  The lazy
    transpose is their only mutable state: it is published as one
    ``t_csr`` triple, and two threads that race to build it build the same
    arrays, so either result is correct.
    :func:`repro.graph.segment.message_pass_operator` builds them; a
    batch's :class:`~repro.graph.data.Topology` (or
    :class:`~repro.graph.utils.SeedEdgeIndex`) holds one per (norm kind,
    dtype, seeds) for the batch's lifetime.  Without scipy the operator
    degrades to the reference three-pass apply.
    """

    __slots__ = (
        "src", "dst", "weights", "num_src", "num_dst",
        "indptr", "indices", "data", "t_csr",
    )

    def __init__(self, src, dst, weights, num_src: int, num_dst: int):
        src = np.ascontiguousarray(src, dtype=np.int64)
        dst = np.ascontiguousarray(dst, dtype=np.int64)
        weights = np.ascontiguousarray(weights)
        if src.shape != dst.shape or src.shape != weights.shape or src.ndim != 1:
            raise ValueError(
                f"src/dst/weights must be matching 1-D arrays, got "
                f"{src.shape}/{dst.shape}/{weights.shape}"
            )
        if src.size:
            src = _checked_ids(src, num_src)
            dst = _checked_ids(dst, num_dst)
        self.src, self.dst, self.weights = src, dst, weights
        self.num_src, self.num_dst = int(num_src), int(num_dst)
        if _csr_matvecs is None:  # pragma: no cover - exercised only without scipy
            self.indptr = self.indices = self.data = None
            self.t_csr = (None, None, None)
        else:
            self.indptr, self.indices, self.data = _csr_arrays(dst, src, weights, self.num_dst)
            self.t_csr = None  # (t_indptr, t_indices, t_data), built by t_matmul

    @property
    def dtype(self) -> np.dtype:
        return self.weights.dtype

    def _apply(self, indptr, indices, data, values: np.ndarray, num_rows: int,
               num_cols: int, gather_ids: np.ndarray, scatter_ids: np.ndarray) -> np.ndarray:
        if values.ndim != 2:
            raise ValueError(f"expected 2-D node values, got shape {values.shape}")
        if values.shape[0] != num_cols:
            raise ValueError(
                f"operator expects {num_cols} input rows, got {values.shape[0]}"
            )
        out = np.zeros((num_rows, values.shape[1]), dtype=values.dtype)
        if indptr is not None and values.dtype == self.weights.dtype:
            values = np.ascontiguousarray(values)
            _csr_matvecs(num_rows, num_cols, values.shape[1],
                         indptr, indices, data, values.ravel(), out.ravel())
            return out
        # Reference three-pass apply (scipy-less installs / foreign dtypes).
        if self.src.size:  # pragma: no cover - fallback mirrors the fused kernel
            messages = values[gather_ids] * self.weights.astype(values.dtype, copy=False)[:, None]
            scatter_add_rows(out, scatter_ids, messages)
        return out

    def matmul(self, values: np.ndarray) -> np.ndarray:
        """``A_norm @ values``: aggregate ``(num_src, h)`` into ``(num_dst, h)``."""
        return self._apply(self.indptr, self.indices, self.data, values,
                           self.num_dst, self.num_src, self.src, self.dst)

    def t_matmul(self, grad: np.ndarray) -> np.ndarray:
        """``A_norm^T @ grad``: the backward adjoint, ``(num_dst, h) -> (num_src, h)``."""
        t_csr = self.t_csr
        if t_csr is None:
            t_csr = self.t_csr = _csr_arrays(self.src, self.dst, self.weights, self.num_src)
        return self._apply(*t_csr, grad, self.num_src, self.num_dst, self.dst, self.src)


_MSGPASS_STATE = threading.local()


def fused_message_pass_enabled() -> bool:
    """Whether :func:`message_pass` routes through the fused CSR kernel."""
    return getattr(_MSGPASS_STATE, "fused", True) and _csr_matvecs is not None


@contextmanager
def eager_message_pass():
    """Route :func:`message_pass` through the reference three-pass chain.

    The parity harness runs every conv under this context to pin the fused
    kernel bitwise against the taped gather -> scale -> scatter-add path it
    replaced; it is also the semantics scipy-less installs fall back to.
    """
    prev = getattr(_MSGPASS_STATE, "fused", True)
    _MSGPASS_STATE.fused = False
    try:
        yield
    finally:
        _MSGPASS_STATE.fused = prev


def _message_pass_reference(operator: MessagePassOperator, x: Tensor) -> Tensor:
    """The eager three-pass aggregate the fused operator replaces."""
    gathered = x[operator.src]
    messages = gathered * Tensor._wrap(operator.weights[:, None])
    return segment_sum(messages, operator.dst, operator.num_dst)


def message_pass(operator: MessagePassOperator, x) -> Tensor:
    """Differentiable ``A_norm @ x`` through a :class:`MessagePassOperator`.

    One tape node; the backward closure is the transpose operator (built
    by the first backward), so fused forwards and backwards are each a
    single sparse matmul.
    """
    x = as_tensor(x)
    if not fused_message_pass_enabled():
        return _message_pass_reference(operator, x)
    out_data = operator.matmul(x.data)
    if not (is_grad_enabled() and (x.requires_grad or x._parents)):
        return Tensor._wrap(out_data)
    return Tensor._make(out_data, [(x, operator.t_matmul)])


def segment_sum(x: Tensor, segment_ids, num_segments: int) -> Tensor:
    """Sum rows of ``x`` into ``num_segments`` buckets given by ``segment_ids``.

    ``x`` has shape ``(n, ...)`` and ``segment_ids`` shape ``(n,)``; the
    result has shape ``(num_segments, ...)``.  Empty segments are zero.
    """
    x = as_tensor(x)
    ids = _as_segment_ids(segment_ids)
    out_shape = (num_segments,) + x.shape[1:]
    out_data = np.zeros(out_shape, dtype=_value_dtype(x.data))
    scatter_add_rows(out_data, ids, x.data)
    if not (is_grad_enabled() and (x.requires_grad or x._parents)):
        return Tensor._wrap(out_data)
    return Tensor._make(out_data, [(x, lambda g: g[ids])])


def segment_mean(x: Tensor, segment_ids, num_segments: int) -> Tensor:
    """Mean-reduce rows per segment; empty segments yield zeros."""
    ids = _as_segment_ids(segment_ids)
    counts = np.bincount(ids, minlength=num_segments).astype(np.float64)
    counts = np.maximum(counts, 1.0)
    total = segment_sum(x, ids, num_segments)
    shape = (num_segments,) + (1,) * (total.ndim - 1)
    return total * Tensor(1.0 / counts.reshape(shape))


def segment_max(x: Tensor, segment_ids, num_segments: int, empty_value: float = 0.0) -> Tensor:
    """Max-reduce rows per segment; empty segments yield ``empty_value``.

    Gradient is routed to the (first-encountered) argmax element of each
    segment, matching the convention of ``scatter_max``.
    """
    x = as_tensor(x)
    ids = _as_segment_ids(segment_ids)
    out_shape = (num_segments,) + x.shape[1:]
    out_data = np.full(out_shape, -np.inf, dtype=_value_dtype(x.data))
    np.maximum.at(out_data, ids, x.data)
    empty = ~np.isfinite(out_data)
    out_data[empty] = empty_value
    if not (is_grad_enabled() and (x.requires_grad or x._parents)):
        return Tensor._wrap(out_data)

    def grad_fn(g):
        # A row contributes iff it equals its segment's max; split gradient
        # evenly among ties for symmetry.
        winners = (x.data == out_data[ids]).astype(np.float64)
        tie_counts = np.zeros(out_shape, dtype=np.float64)
        np.add.at(tie_counts, ids, winners)
        tie_counts = np.maximum(tie_counts, 1.0)
        return winners * g[ids] / tie_counts[ids]

    return Tensor._make(out_data, [(x, grad_fn)])


def linear(x, weight, bias=None) -> Tensor:
    """Affine map ``x @ weight + bias`` as one tape node (taped ``nn.Linear``).

    The bias is added into the matmul output in place, as in
    :func:`seed_linear`, so the forward allocates one array where the
    two-node ``x @ weight + bias`` chain allocates two.  Output and
    gradients are bitwise those of that chain: the same matmul, the same
    elementwise add, and the same adjoints (``_matmul_adjoints`` plus the
    broadcast-sum of the bias).
    """
    xt, wt = as_tensor(x), as_tensor(weight)
    out_data = xt.data @ wt.data
    bt = None
    if bias is not None:
        bt = as_tensor(bias)
        out_data += bt.data
    tracked = [t for t in (xt, wt, bt) if t is not None and (t.requires_grad or t._parents)]
    if not (is_grad_enabled() and tracked):
        return Tensor._wrap(out_data)
    grad_x, grad_w = _matmul_adjoints(xt.data, wt.data)
    parents = [(xt, grad_x), (wt, grad_w)]
    if bt is not None:
        bias_shape = bt.shape
        parents.append((bt, lambda g: _unbroadcast(g, bias_shape)))
    return Tensor._make(out_data, parents)


# Per forward-call samples for the seed-batched GEMM engine ("shared"
# broadcasts one (n, f) input across seeds; "stacked" is (K, n, f)).
_SEED_GEMM_CALLS = _obs_registry.counter(
    "repro_seed_gemm_total",
    "seed_linear batched GEMM dispatches by input layout",
    ("layout",),
)
_SEED_GEMM_ELEMENTS = _obs_registry.counter(
    "repro_seed_gemm_out_elements_total",
    "Output elements produced by seed_linear batched GEMMs",
    ("layout",),
)


def seed_linear(x, weight, bias=None) -> Tensor:
    """Per-seed affine map over a stacked parameter bank, as one tape node.

    The multi-seed training engine (see ``docs/ARCHITECTURE.md``) stacks K
    independently initialised copies of a layer along a leading seed axis
    and evaluates all of them in one batched matmul: activations use the
    seed-leading layout ``(K, n, f)``, so forward and backward are plain
    ``(K, n, f) @ (K, f, h)`` batched GEMMs on contiguous slices — no
    transposed copies, and one BLAS dispatch instead of K (measured ~2x
    faster than K sequential GEMMs at GIN shapes).

    Parameters
    ----------
    x:
        ``(n, f)`` shared input (every seed sees the same rows, e.g. raw
        node features) or ``(K, n, f)`` per-seed activations.
    weight:
        ``(K, f, h)`` stacked weight matrices.
    bias:
        Optional ``(K, h)`` stacked biases.

    Returns
    -------
    Tensor
        ``(K, n, h)`` with ``out[k] = x_k @ weight[k] + bias[k]``.
    """
    xt, wt = as_tensor(x), as_tensor(weight)
    xd, wd = xt.data, wt.data
    if wd.ndim != 3:
        raise ValueError(f"expected (K, f, h) stacked weights, got shape {wd.shape}")
    shared = xd.ndim == 2
    if not shared and (xd.ndim != 3 or xd.shape[0] != wd.shape[0]):
        raise ValueError(
            f"expected (n, f) or (K, n, f) input for K={wd.shape[0]}, got shape {xd.shape}"
        )
    out_data = np.matmul(xd, wd)                                    # (K, n, h)
    if _OBS_FLAGS.metrics:
        layout = "shared" if shared else "stacked"
        _SEED_GEMM_CALLS.inc(layout=layout)
        _SEED_GEMM_ELEMENTS.inc(out_data.size, layout=layout)
    bt = None
    if bias is not None:
        bt = as_tensor(bias)
        if bt.data.shape != (wd.shape[0], wd.shape[2]):
            raise ValueError(
                f"expected (K, h) stacked bias, got shape {bt.data.shape}"
            )
        out_data += bt.data[:, None, :]

    tracked = [t for t in (xt, wt, bt) if t is not None and (t.requires_grad or t._parents)]
    if not (is_grad_enabled() and tracked):
        return Tensor._wrap(out_data)

    def grad_x(g):
        # g: (K, n, h).  Shared inputs accumulate over the seed axis.
        gx = np.matmul(g, wd.transpose(0, 2, 1))                     # (K, n, f)
        return gx.sum(axis=0) if shared else gx

    def grad_w(g):
        if shared:
            return np.matmul(xd.T[None, :, :], g)                    # (K, f, h)
        return np.matmul(xd.transpose(0, 2, 1), g)

    parents = [(xt, grad_x), (wt, grad_w)]
    if bt is not None:
        parents.append((bt, lambda g: g.sum(axis=1)))
    return Tensor._make(out_data, parents)


def seed_gather(x: Tensor, index: np.ndarray) -> Tensor:
    """Row gather along axis 1 of seed-leading ``(K, n, ...)`` activations.

    ``index`` is either a shared ``(m,)`` row index (every seed gathers the
    same rows, e.g. a common edge list) or a per-seed ``(K, m)`` index
    (e.g. the survivors of per-seed top-k pooling).  Returns
    ``(K, m, ...)``.  Both directions run one contiguous per-seed slice at
    a time — numpy's fancy indexing (and ``ufunc.at``) over a middle axis
    is markedly slower than K leading-axis operations.
    """
    x = as_tensor(x)
    index = np.asarray(index, dtype=np.int64)
    xd = x.data
    num_seeds = xd.shape[0]
    per_seed = index.ndim == 2
    if per_seed and index.shape[0] != num_seeds:
        raise ValueError(
            f"expected (m,) or (K, m) index for K={num_seeds}, got shape {index.shape}"
        )
    if index.size:
        index = _checked_ids(index, xd.shape[1])
    num_gathered = index.shape[-1]
    out_data = np.empty((num_seeds, num_gathered) + xd.shape[2:], dtype=xd.dtype)
    for k in range(num_seeds):
        # mode="clip" skips ufunc buffering — ~3x faster than the default
        # bounds-checked path; _checked_ids validated the indices above.
        np.take(xd[k], index[k] if per_seed else index, axis=0, out=out_data[k], mode="clip")
    if not (is_grad_enabled() and (x.requires_grad or x._parents)):
        return Tensor._wrap(out_data)
    shape = x.shape

    def grad_fn(g):
        full = np.zeros(shape, dtype=_value_dtype(g))
        if per_seed:
            for k in range(num_seeds):
                scatter_add_rows(full[k], index[k], g[k])
        elif _csc_matvecs is not None and num_gathered and g.ndim == 3:
            onehot = _scatter_matrix(index, shape[1], full.dtype)  # built once, applied K times
            g = np.ascontiguousarray(g)
            for k in range(num_seeds):
                _scatter_into(onehot, g[k], full[k])
        else:
            for k in range(num_seeds):
                scatter_add_rows(full[k], index, g[k])
        return full

    return Tensor._make(out_data, [(x, grad_fn)])


def seed_segment_sum(x: Tensor, segment_ids, num_segments: int) -> Tensor:
    """:func:`segment_sum` over axis 1 of seed-leading ``(K, n, f)`` stacks.

    Segments are shared across seeds (same graph batch); each seed's slice
    is scattered independently so every row-scatter runs on a contiguous
    2-D block.  Returns ``(K, num_segments, f)``.
    """
    x = as_tensor(x)
    ids = _as_segment_ids(segment_ids)
    if len(ids):
        ids = _checked_ids(ids, num_segments)
    xd = x.data
    num_seeds = xd.shape[0]
    out_data = np.zeros((num_seeds, num_segments) + xd.shape[2:], dtype=_value_dtype(xd))
    if _csc_matvecs is not None and len(ids) and xd.ndim == 3 and xd.dtype == out_data.dtype:
        onehot = _scatter_matrix(ids, num_segments, out_data.dtype)  # built once, applied K times
        xc = np.ascontiguousarray(xd)
        for k in range(num_seeds):
            _scatter_into(onehot, xc[k], out_data[k])
    else:
        for k in range(num_seeds):
            scatter_add_rows(out_data[k], ids, xd[k])
    if not (is_grad_enabled() and (x.requires_grad or x._parents)):
        return Tensor._wrap(out_data)

    def grad_fn(g):
        full = np.empty(x.shape, dtype=g.dtype)
        for k in range(num_seeds):
            np.take(g[k], ids, axis=0, out=full[k], mode="clip")
        return full

    return Tensor._make(out_data, [(x, grad_fn)])


def seed_segment_mean(x: Tensor, segment_ids, num_segments: int) -> Tensor:
    """Per-segment mean over axis 1 of ``(K, n, f)``; empty segments zero."""
    ids = _as_segment_ids(segment_ids)
    counts = np.maximum(np.bincount(ids, minlength=num_segments).astype(np.float64), 1.0)
    total = seed_segment_sum(x, ids, num_segments)
    return total * Tensor((1.0 / counts)[None, :, None])


def seed_segment_max(x: Tensor, segment_ids, num_segments: int, empty_value: float = 0.0) -> Tensor:
    """:func:`segment_max` over axis 1 of seed-leading ``(K, n, ...)`` stacks.

    Segments are shared across seeds; each seed's slice is reduced
    independently with the same ``np.maximum.at`` kernel (and the same
    tie-splitting gradient) as the per-seed op, so the batched result is
    bitwise equal to K sequential :func:`segment_max` calls.
    """
    x = as_tensor(x)
    ids = _as_segment_ids(segment_ids)
    xd = x.data
    num_seeds = xd.shape[0]
    out_shape = (num_seeds, num_segments) + xd.shape[2:]
    out_data = np.full(out_shape, -np.inf, dtype=_value_dtype(xd))
    for k in range(num_seeds):
        np.maximum.at(out_data[k], ids, xd[k])
    empty = ~np.isfinite(out_data)
    out_data[empty] = empty_value
    if not (is_grad_enabled() and (x.requires_grad or x._parents)):
        return Tensor._wrap(out_data)

    def grad_fn(g):
        grads = np.empty(xd.shape, dtype=np.float64)
        for k in range(num_seeds):
            winners = (xd[k] == out_data[k][ids]).astype(np.float64)
            tie_counts = np.zeros(out_shape[1:], dtype=np.float64)
            np.add.at(tie_counts, ids, winners)
            tie_counts = np.maximum(tie_counts, 1.0)
            grads[k] = winners * g[k][ids] / tie_counts[ids]
        return grads

    return Tensor._make(out_data, [(x, grad_fn)])


def seed_segment_softmax(x: Tensor, segment_ids, num_segments: int) -> Tensor:
    """:func:`segment_softmax` over axis 1 of ``(K, n, ...)`` stacks.

    Composed from the seed-axis primitives exactly as the per-seed op is
    composed from its 2-D counterparts — shifted by the per-segment max,
    exponentiated, normalised by the per-segment sum — so every
    elementwise step runs the same arithmetic per seed slice and the
    result is bitwise equal to K sequential :func:`segment_softmax` calls.
    """
    x = as_tensor(x)
    ids = _as_segment_ids(segment_ids)
    seg_max = seed_segment_max(x.detach(), ids, num_segments)
    shifted = x - seed_gather(seg_max, ids)
    exp = shifted.exp()
    denominator = seed_segment_sum(exp, ids, num_segments)
    return exp / (seed_gather(denominator, ids) + 1e-16)


def segment_softmax(x: Tensor, segment_ids, num_segments: int) -> Tensor:
    """Softmax of ``x`` computed independently within each segment.

    Used by attention-based pooling; ``x`` may be ``(n,)`` or ``(n, d)``.
    """
    x = as_tensor(x)
    ids = _as_segment_ids(segment_ids)
    seg_max = segment_max(x.detach(), ids, num_segments)
    shifted = x - seg_max[ids]
    exp = shifted.exp()
    denominator = segment_sum(exp, ids, num_segments)
    return exp / (denominator[ids] + 1e-16)
