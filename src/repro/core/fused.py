"""Fused closed-form decorrelation engine (no autograd tape).

This module is the engine of the inner reweighting loop (Algorithm 1,
lines 6-8).  The taped objective
(:func:`repro.core.hsic.pairwise_decorrelation_loss`) would re-trace the
full computation graph of the pairwise decorrelation loss for every inner
epoch; here both the loss *and its analytical gradient w.r.t. the sample
weights* are evaluated in pure vectorised numpy.

Notation: random features ``F`` of shape ``(n, d, Q)`` flatten to
``X (n, p)`` with ``p = d*Q``; ``W = diag(w) X``; ``A = C W`` with the
centring matrix ``C = I - 11^T/n``; ``G = A^T A / (n-1)``; ``M`` the 0/1
block-off-diagonal mask.  The loss (Eq. (7)) is
``L = 0.5 ||M o G||_F^2`` and, writing ``S = M o G``, its exact gradient is

    dL/dw_n = 2/(n-1)^2 * sum_a [A S_raw]_{na} X_{na},   S_raw = M o (A^T A),

using that ``C (A S) = A S`` because the columns of ``A`` are already
centred.  Two evaluation strategies are implemented:

* **primal** — form ``A`` and the masked feature-space Gram directly; two
  ``O(n p^2)`` matmuls per evaluation.  Optimal when ``n >> p``.
* **dual** — precompute the *constant* sample-space Gram ``K = X X^T``
  once per batch.  Every quantity then reduces to elementwise
  ``O(n^2)`` arithmetic on ``K`` plus tiny per-dimension ``(Q, Q)``
  batched products: with ``mu = X^T w / n``, ``v = X mu``, ``c = mu.mu``,

      P = A A^T = (w w^T) o K - (w o v) 1^T - 1 (w o v)^T + c
      R = X A^T = K diag(w) - v 1^T
      ||G||_F^2 = ||P||_F^2                (trace identity)
      rowdot(A (A^T A), X)_n = sum_m P_{nm} R_{nm}

  and the block-diagonal correction uses ``G_ii = sum_n w_n^2 F_ni F_ni^T
  - n mu_i mu_i^T``.  No ``O(n p^2)`` work is left inside the inner loop —
  the Section 3.2 linearity claim with a 20x-amortised constant.

The dual evaluation uses the *moment form* in both engines: everything
feature-dependent is cached once per batch — the Gram ``K``, its
elementwise square ``K o K`` and the per-dimension feature pair-products —
after which each inner-loop evaluation collapses to matvecs against those
caches (``s1 = (K o K) w^2``, ``s3 = K (w^2 v)``, ``s2 = K w = n v``; see
:class:`SeedFusedDecorrelation` for the full expansion).  ``P`` and ``R``
are never materialised, not even block-wise: no ``O(n^2)`` or ``O(n p^2)``
intermediate survives inside the loop.  The per-epoch matvecs against the
cached Grams stream over row blocks (:attr:`FusedDecorrelation.block_rows`);
every output element is an independent full-row dot product, so results
are bitwise independent of the block size — the same invariant the former
blocked P/R evaluation guaranteed, asserted by
``tests/test_seed_batched_reweight.py``.  Explicit dual mode is never
size-capped (n = 4096+ runs fine, paying only the ``O(n^2)`` cache
storage that buys the amortisation); batches whose feature rows are all
identical take an exact rank-one path in both engines, keeping the
gradient bitwise zero at uniform weights (Adam would amplify the moment
expansion's roundoff residue into weight drift).

:class:`SeedFusedDecorrelation` is the seed-batched variant of the same
engine: it evaluates K independent inner loops over a ``(K, n, d, Q)``
feature stack as batched GEMMs/einsums — one numpy dispatch per quantity
instead of K — sharing the block-off-diagonal mask.  It is what makes the
multi-seed OOD-GNN trainer's Algorithm 1 vectorise end-to-end
(``docs/ARCHITECTURE.md``).

The engines are exercised against the taped objective by
``tests/test_fused_decorrelation.py`` and against K scalar engines by
``tests/test_seed_batched_reweight.py`` (parity to 1e-8 plus a
finite-difference check of the analytical gradient).
"""

from __future__ import annotations

import numpy as np

from repro.core.hsic import cached_block_offdiagonal_mask

__all__ = [
    "FusedDecorrelation",
    "SeedFusedDecorrelation",
    "InPlaceAdam",
    "DUAL_GRAM_BLOCK_ELEMENTS",
    "DUAL_MODE_AUTO_MAX_GRAM_ELEMENTS",
]

# Scratch budget for one evaluation block: at most this many elements per
# (rows, n) buffer (32 MB of doubles).  Bounds peak memory of the blocked
# dual evaluation independently of the batch size.
DUAL_GRAM_BLOCK_ELEMENTS = 1 << 22

# "auto" only *prefers* dual below this Gram size (512 MB of doubles);
# explicit mode="dual" always works — the evaluation is blocked, so only
# the cached Gram itself scales with n^2.
DUAL_MODE_AUTO_MAX_GRAM_ELEMENTS = 1 << 26


def _pick_mode(mode: str, n: int, p: int, gram_elements: int | None = None) -> str:
    """Resolve ``"auto"``; ``gram_elements`` is the total size of the
    engine's Gram-shaped caches (defaults to one ``(n, n)`` Gram)."""
    if gram_elements is None:
        gram_elements = n * n
    if mode == "auto":
        return "dual" if (n <= 8 * p and gram_elements <= DUAL_MODE_AUTO_MAX_GRAM_ELEMENTS) else "primal"
    if mode not in ("primal", "dual"):
        raise ValueError(f"mode must be 'auto', 'primal' or 'dual', got {mode!r}")
    return mode


def _block_rows(n: int, block_rows: int | None) -> int:
    if block_rows is None:
        block_rows = max(1, DUAL_GRAM_BLOCK_ELEMENTS // max(n, 1))
    if block_rows < 1:
        raise ValueError(f"block_rows must be >= 1, got {block_rows}")
    return min(n, block_rows)


class FusedDecorrelation:
    """Closed-form loss/gradient evaluator for one batch of RFF features.

    Parameters
    ----------
    features:
        ``(n, d, Q)`` random features of the (z-scored) representations,
        fixed for the lifetime of the engine — one engine per inner loop.
    mode:
        ``"auto"`` picks ``"dual"`` (sample-space moment caches) when the
        batch is small relative to the feature width and the Gram-shaped
        caches are within the auto-mode memory preference, else
        ``"primal"``.  Explicit ``"dual"`` is never size-capped: the
        per-epoch moment matvecs stream over row blocks of the caches.
    block_rows:
        Rows per streamed matvec block.  Defaults to whatever fits the
        :data:`DUAL_GRAM_BLOCK_ELEMENTS` scratch budget; results are
        bitwise identical for any value.
    """

    def __init__(self, features: np.ndarray, mode: str = "auto", block_rows: int | None = None):
        feats = np.ascontiguousarray(np.asarray(features, dtype=np.float64))
        if feats.ndim != 3:
            raise ValueError(f"expected (n, d, Q) features, got shape {feats.shape}")
        n, d, q = feats.shape
        if n < 2:
            raise ValueError("need at least two samples to decorrelate")
        if d < 2:
            raise ValueError("need at least two representation dimensions to decorrelate")
        self.n, self.num_dims, self.q = n, d, q
        self.p = d * q
        # Auto-mode memory preference accounts for every dual-mode cache:
        # two Gram-shaped arrays (K and K o K), the pair-product cache and
        # the transposed-feature scratch (the moment-form layout ported
        # from SeedFusedDecorrelation).
        num_pairs = q * (q + 1) // 2
        cache_elements = n * (2 * n + d * num_pairs + d * q)
        self.mode = _pick_mode(mode, n, self.p, gram_elements=cache_elements)
        if self.mode == "dual":
            pair_a, pair_b = np.triu_indices(q)
            self._pair_a, self._pair_b = pair_a, pair_b
            self._pair_coef = np.where(pair_a == pair_b, 1.0, 2.0)
            self._k = np.empty((n, n))
            self._k2 = np.empty((n, n))
            self._ppt = np.empty((d * len(pair_a), n))
            self._ft = np.empty((d, q, n))
            # Row-block size for streaming the cached Grams during the
            # per-epoch moment matvecs; every row's dot product is
            # independent, so results are bitwise identical for any value.
            self.block_rows = _block_rows(n, block_rows)
        else:
            self._mask = cached_block_offdiagonal_mask(d, q)
        self._install(feats)

    def _install(self, feats: np.ndarray) -> None:
        n, d = self.n, self.num_dims
        self.x3 = feats
        self.x = feats.reshape(n, self.p)
        if self.mode == "dual":
            # The once-per-batch feature-dependent caches (O(n^2 p) work,
            # amortised over the loop): the Gram, its elementwise square
            # and the per-dimension feature pair products, all written
            # into the persistent buffers.
            np.matmul(self.x, self.x.T, out=self._k)
            np.multiply(self._k, self._k, out=self._k2)
            ft = self._ft
            np.copyto(ft, feats.transpose(1, 2, 0))
            ppt = self._ppt.reshape(d, len(self._pair_a), self.n)
            for s, (a, b) in enumerate(zip(self._pair_a, self._pair_b)):
                np.multiply(ft[:, a, :], ft[:, b, :], out=ppt[:, s, :])
            # Constant-feature batches (all rows identical) take the exact
            # rank-one path in _dual — the moment expansion's cancellation
            # residue is ~1e-13 there while the true gradient at uniform
            # weights is *exactly* zero, and Adam amplifies any nonzero
            # residue into weight drift (same guard as the seed engine).
            self._const_rows = bool(
                (self.x[1] == self.x[0]).all() and (self.x == self.x[:1]).all()
            )

    def refresh(self, features: np.ndarray) -> "FusedDecorrelation":
        """Swap in fresh same-shape features, reusing every cached buffer.

        Only the feature-dependent state is recomputed — in dual mode the
        Gram/moment caches (written into the existing buffers).  The pair
        index vectors, mask and mode decision are feature-independent and
        survive, so a learner's next same-shape batch pays one cache
        rebuild instead of a full engine rebuild.  Returns ``self`` for
        chaining.
        """
        feats = np.ascontiguousarray(np.asarray(features, dtype=np.float64))
        if feats.shape != (self.n, self.num_dims, self.q):
            raise ValueError(
                f"refresh features shape {feats.shape} != engine shape {(self.n, self.num_dims, self.q)}"
            )
        self._install(feats)
        return self

    # ------------------------------------------------------------------
    # Primal (feature-space) evaluation
    # ------------------------------------------------------------------
    def _primal(self, w: np.ndarray, with_grad: bool):
        n, nm1 = self.n, self.n - 1.0
        a = self.x * w[:, None]
        a -= a.mean(axis=0)
        g = a.T @ a
        g *= self._mask  # S_raw = M o (A^T A)
        loss = 0.5 / nm1**2 * np.einsum("ab,ab->", g, g)
        if not with_grad:
            return float(loss), None
        b = a @ g
        grad = np.einsum("np,np->n", b, self.x)
        grad *= 2.0 / nm1**2
        return float(loss), grad

    # ------------------------------------------------------------------
    # Dual (sample-space) evaluation in moment form (ported from the
    # seed-batched engine): per-epoch work = two streamed matvecs against
    # the cached Grams plus pair-product contractions — no O(n^2)
    # intermediate is materialised inside the loop.
    # ------------------------------------------------------------------
    def _moment_matvec(self, mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
        """Row-blocked ``mat @ vec`` streamed over the cached Gram.

        Each output element is an independent full-row dot product
        (einsum's sequential per-element accumulation), so the result is
        bitwise identical for every ``block_rows`` — the same invariant
        the former blocked P/R evaluation guaranteed.
        """
        out = np.empty(mat.shape[0])
        for lo in range(0, mat.shape[0], self.block_rows):
            hi = min(lo + self.block_rows, mat.shape[0])
            np.einsum("bm,m->b", mat[lo:hi], vec, out=out[lo:hi])
        return out

    def _dual(self, w: np.ndarray, with_grad: bool):
        n, d, q, nm1 = self.n, self.num_dims, self.q, self.n - 1.0
        if self._const_rows:
            return self._constant_rows_eval(w, with_grad)
        w2 = w * w
        mu = (self.x.T @ w) / n           # (p,) column means of diag(w) X
        v = self.x @ mu                   # (n,)
        wv = w * v
        c = mu @ mu
        # The cached-moment matvecs: s1 against K o K, s3 against K, and
        # s2 = K w = n v needs no work at all.
        s1 = self._moment_matvec(self._k2, w2)
        s3 = self._moment_matvec(self._k, w2 * v)
        s2 = n * v
        sum_wv = wv.sum()
        sum_wv2 = wv @ wv
        beta = c - wv
        rowloss = (
            w2 * s1 + sum_wv2 + n * beta * beta - 2.0 * w * s3
            + 2.0 * (w * beta) * s2 - 2.0 * beta * sum_wv
        )
        # Block diagonal G_ii = F_i^T diag(w^2) F_i - n mu_i mu_i^T via the
        # pair-product cache: one matvec, then the rank-one part.
        num_pairs = len(self._pair_a)
        bd = (self._ppt @ w2).reshape(d, num_pairs)
        mu3 = mu.reshape(d, q)
        bd -= n * (mu3[:, self._pair_a] * mu3[:, self._pair_b])
        loss = 0.5 / nm1**2 * (
            rowloss.sum() - np.einsum("is,is,s->", bd, bd, self._pair_coef)
        )
        if not with_grad:
            return float(loss), None
        rowmain = w * s1 - s3 + beta * s2 - v * (w * s2 - sum_wv + n * beta)
        # Correction row-dots sum_i f_ni^T B_i f_ni and sum_i f_ni^T B_i mu_i
        # as matvecs against the pair-product cache / the flat features.
        t1 = (bd * self._pair_coef).reshape(-1) @ self._ppt
        bd_full = np.empty((d, q, q))
        bd_full[:, self._pair_a, self._pair_b] = bd
        bd_full[:, self._pair_b, self._pair_a] = bd
        e = np.einsum("iq,iqr->ir", mu3, bd_full)
        t2 = self.x @ e.reshape(self.p)
        grad = (rowmain - (w * t1 - t2)) * (2.0 / nm1**2)
        return float(loss), grad

    def _constant_rows_eval(self, w: np.ndarray, with_grad: bool):
        """Exact rank-one evaluation when every feature row is identical.

        With every row equal to ``x``, ``A = (w - mean(w)) x^T`` so, with
        ``s = sum (w - mean(w))^2``, ``t = ||x||^2`` and ``b_i = ||x_i||^2``,

            L = s^2 (t^2 - sum_i b_i^2) / (2 (n-1)^2)
            dL/dw_n = 2 s (t^2 - sum_i b_i^2) (w_n - mean(w)) / (n-1)^2

        which is exactly zero at uniform weights — bitwise, because the
        deviations themselves are — matching the seed engine's guard
        against Adam amplifying the moment expansion's roundoff residue.
        """
        nm1 = self.n - 1.0
        xv = self.x3[0]                                # (d, q) shared row
        blocks = np.einsum("iq,iq->i", xv, xv)         # b_i = ||x_i||^2
        total = blocks.sum()
        q_val = total * total - blocks @ blocks
        dev = w - w.mean()
        s = dev @ dev
        loss = float(0.5 / nm1**2 * s * s * q_val)
        if not with_grad:
            return loss, None
        grad = (2.0 / nm1**2) * (s * q_val) * dev
        return loss, grad

    # ------------------------------------------------------------------
    # Public surface
    # ------------------------------------------------------------------
    def _evaluate(self, weights, with_grad: bool):
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (self.n,):
            raise ValueError(f"weights must have shape ({self.n},), got {w.shape}")
        if self.mode == "dual":
            return self._dual(w, with_grad)
        return self._primal(w, with_grad)

    def loss(self, weights) -> float:
        """Decorrelation loss of Eq. (7) for the given sample weights."""
        return self._evaluate(weights, with_grad=False)[0]

    def loss_and_grad(self, weights):
        """Loss plus its exact analytical gradient w.r.t. the weights."""
        return self._evaluate(weights, with_grad=True)


class SeedFusedDecorrelation:
    """Seed-batched closed-form evaluator: K inner loops as one stacked job.

    The batched analogue of :class:`FusedDecorrelation` over a
    ``(K, n, d, Q)`` feature stack — one feature batch per seed, all the
    same shape (the multi-seed trainer's configuration).  Losses are
    returned as ``(K,)`` vectors and gradients as ``(K, n)`` stacks; every
    per-seed quantity of the scalar derivation gains a leading seed axis
    and is evaluated as one batched GEMM/GEMV/einsum, so the K seeds pay
    one numpy dispatch per step instead of K.

    The dual mode additionally restructures the Gram path into *moment
    form*.  Everything feature-dependent is cached per batch — the Gram
    ``K``, its elementwise square ``K o K`` and the per-dimension feature
    pair-products ``PP[n, i, (q, r)] = F_niq F_nir`` (upper triangle,
    symmetric blocks, stored sample-minor) — after which each evaluation
    collapses to batched matvecs against those caches.  With
    ``a_m = w_m K_nm``, ``b_n = c - (w o v)_n`` and the moments

        s1_n = sum_m w_m^2 (K o K)_nm        (matvec on the K o K cache)
        s3_n = sum_m w_m^2 v_m K_nm          (matvec on the K cache)
        s2_n = sum_m w_m K_nm = n v_n        (free: K w = X X^T w = n X mu)

    the row quantities of the scalar derivation expand exactly to

        sum_m P_nm^2    = w_n^2 s1_n + sum(wv^2) + n b_n^2 - 2 w_n s3_n
                          + 2 w_n b_n s2_n - 2 b_n sum(wv)
        sum_m P_nm R_nm = w_n s1_n - s3_n + b_n s2_n
                          - v_n (w_n s2_n - sum(wv) + n b_n)

    and the block-diagonal corrections become two more matvecs against
    ``PP`` (``G_ii`` row and its gradient row-dot).  No ``O(n^2)`` or
    ``O(n p^2)`` intermediate is ever materialised inside the loop — the
    per-epoch traffic is a handful of streamed passes over the caches,
    which is what turns K stacked inner loops into a >= 2x win over K
    sequential fused loops (``benchmarks/bench_reweight_speed.py``).

    Each seed's arithmetic is independent (no cross-seed reduction), so
    the results match K scalar engines to 1e-8
    (``tests/test_seed_batched_reweight.py``).
    """

    def __init__(self, features: np.ndarray, mode: str = "auto"):
        feats = np.ascontiguousarray(np.asarray(features, dtype=np.float64))
        if feats.ndim != 4:
            raise ValueError(f"expected (K, n, d, Q) features, got shape {feats.shape}")
        k, n, d, q = feats.shape
        if n < 2:
            raise ValueError("need at least two samples to decorrelate")
        if d < 2:
            raise ValueError("need at least two representation dimensions to decorrelate")
        self.num_seeds, self.n, self.num_dims, self.q = k, n, d, q
        self.p = d * q
        # Auto-mode memory preference accounts for every per-seed cache
        # this engine allocates: two Gram-shaped (K and K o K), the
        # pair-product cache and the transposed-feature scratch.
        num_pairs = q * (q + 1) // 2
        cache_elements = k * n * (2 * n + d * num_pairs + d * q)
        self.mode = _pick_mode(mode, n, self.p, gram_elements=cache_elements)
        if self.mode == "dual":
            # Pair products are stored for the upper triangle only (the
            # blocks are symmetric); off-diagonal pairs carry weight 2 in
            # every full-matrix contraction.  40% less cache traffic on
            # the two dominant per-epoch matvecs at Q = 5.  The cache is
            # laid out sample-minor, (K, d*pairs, n), so both the build
            # and the two matvecs stream contiguous memory.
            pair_a, pair_b = np.triu_indices(q)
            self._pair_a, self._pair_b = pair_a, pair_b
            self._pair_coef = np.where(pair_a == pair_b, 1.0, 2.0)
            self._k = np.empty((k, n, n))
            self._k2 = np.empty((k, n, n))
            self._ppt = np.empty((k, d * len(pair_a), n))
            self._ft = np.empty((k, d, q, n))
        else:
            self._mask = cached_block_offdiagonal_mask(d, q)
        self._install(feats)

    def _install(self, feats: np.ndarray) -> None:
        k, n, d = self.num_seeds, self.n, self.num_dims
        self.x4 = feats
        self.x = feats.reshape(k, n, self.p)
        if self.mode == "dual":
            # The once-per-batch feature-dependent caches the moment-form
            # evaluation streams against (see class docstring): the squared
            # Gram (built in place) and the per-block feature pair products
            # (built from a transposed feature copy, contiguous per pair).
            np.matmul(self.x, self.x.transpose(0, 2, 1), out=self._k)
            np.multiply(self._k, self._k, out=self._k2)
            ft = self._ft
            np.copyto(ft, feats.transpose(0, 2, 3, 1))
            ppt = self._ppt.reshape(k, d, len(self._pair_a), n)
            for s, (a, b) in enumerate(zip(self._pair_a, self._pair_b)):
                np.multiply(ft[:, :, a, :], ft[:, :, b, :], out=ppt[:, :, s, :])
            # Seeds whose feature rows are all identical (constant
            # representations) take the exact rank-one path in _dual: the
            # moment expansion's cancellation residue is ~1e-13 there while
            # the true gradient at uniform weights is *exactly* zero, and
            # Adam amplifies any nonzero residue into weight drift.  A
            # two-row probe short-circuits the full scan in the common case.
            candidates = (self.x[:, 1] == self.x[:, 0]).all(axis=1)
            if candidates.any():
                candidates = (self.x == self.x[:, :1]).all(axis=(1, 2))
            self._const_rows = candidates

    def refresh(self, features: np.ndarray) -> "SeedFusedDecorrelation":
        """Swap in a fresh same-shape feature stack, reusing all buffers."""
        feats = np.ascontiguousarray(np.asarray(features, dtype=np.float64))
        shape = (self.num_seeds, self.n, self.num_dims, self.q)
        if feats.shape != shape:
            raise ValueError(f"refresh features shape {feats.shape} != engine shape {shape}")
        self._install(feats)
        return self

    # ------------------------------------------------------------------
    # Primal (feature-space) evaluation, batched over seeds
    # ------------------------------------------------------------------
    def _primal(self, w: np.ndarray, with_grad: bool):
        nm1 = self.n - 1.0
        a = self.x * w[:, :, None]
        a -= a.mean(axis=1, keepdims=True)
        g = np.matmul(a.transpose(0, 2, 1), a)                # (K, p, p)
        g *= self._mask
        loss = 0.5 / nm1**2 * np.einsum("kab,kab->k", g, g)
        if not with_grad:
            return loss, None
        b = np.matmul(a, g)
        grad = np.einsum("knp,knp->kn", b, self.x)
        grad *= 2.0 / nm1**2
        return loss, grad

    # ------------------------------------------------------------------
    # Dual (sample-space) evaluation in moment form, batched over seeds
    # ------------------------------------------------------------------
    def _dual(self, w: np.ndarray, with_grad: bool):
        n, d, q, nm1 = self.n, self.num_dims, self.q, self.n - 1.0
        ks = self.num_seeds
        w2 = w * w
        mu = np.matmul(w[:, None, :], self.x)[:, 0, :] / n    # (K, p)
        v = np.matmul(self._k, w[:, :, None])[:, :, 0] / n    # (K, n) = X mu
        wv = w * v
        c = np.einsum("kp,kp->k", mu, mu)
        # The cached-moment matvecs: s1 against K o K, s3 against K, and
        # s2 = K w = n v needs no work at all.
        s1 = np.matmul(self._k2, w2[:, :, None])[:, :, 0]
        s3 = np.matmul(self._k, (w2 * v)[:, :, None])[:, :, 0]
        s2 = n * v
        sum_wv = wv.sum(axis=1)[:, None]
        sum_wv2 = (wv * wv).sum(axis=1)[:, None]
        beta = c[:, None] - wv
        rowloss = (
            w2 * s1 + sum_wv2 + n * beta * beta - 2.0 * w * s3
            + 2.0 * (w * beta) * s2 - 2.0 * beta * sum_wv
        )
        # Block diagonal G_ii = F_i^T diag(w^2) F_i - n mu_i mu_i^T via the
        # pair-product cache: one batched matvec, then the rank-one part.
        num_pairs = len(self._pair_a)
        bd = np.matmul(self._ppt, w2[:, :, None])[:, :, 0].reshape(ks, d, num_pairs)
        mu4 = mu.reshape(ks, d, q)
        bd -= n * (mu4[:, :, self._pair_a] * mu4[:, :, self._pair_b])
        loss = 0.5 / nm1**2 * (
            rowloss.sum(axis=1) - np.einsum("kis,kis,s->k", bd, bd, self._pair_coef)
        )
        if not with_grad:
            if self._const_rows.any():
                self._constant_row_overwrite(w, loss, None)
            return loss, None
        rowmain = w * s1 - s3 + beta * s2 - v * (w * s2 - sum_wv + n * beta)
        # Correction row-dots sum_i f_ni^T B_i f_ni and sum_i f_ni^T B_i mu_i
        # as matvecs against the pair-product cache / the flat features.
        coef_bd = (bd * self._pair_coef).reshape(ks, 1, d * num_pairs)
        t1 = np.matmul(coef_bd, self._ppt)[:, 0, :]
        bd_full = np.empty((ks, d, q, q))
        bd_full[:, :, self._pair_a, self._pair_b] = bd
        bd_full[:, :, self._pair_b, self._pair_a] = bd
        e = np.einsum("kiq,kiqr->kir", mu4, bd_full)
        t2 = np.matmul(self.x, e.reshape(ks, self.p, 1))[:, :, 0]
        grad = (rowmain - (w * t1 - t2)) * (2.0 / nm1**2)
        if self._const_rows.any():
            self._constant_row_overwrite(w, loss, grad)
        return loss, grad

    def _constant_row_overwrite(self, w, loss, grad) -> None:
        """Exact rank-one evaluation for seeds with identical feature rows.

        With every row equal to ``x``, ``A = (w - mean(w)) x^T`` so, with
        ``s = sum (w - mean(w))^2`` and ``t = ||x||^2``, ``b_i = ||x_i||^2``,

            L = s^2 (t^2 - sum_i b_i^2) / (2 (n-1)^2)
            dL/dw_n = 2 s (t^2 - sum_i b_i^2) (w_n - mean(w)) / (n-1)^2

        which is exactly zero at uniform weights — bitwise, because the
        deviations themselves are — matching the scalar engine's exact
        cancellation instead of the moment expansion's roundoff residue.
        """
        idx = np.flatnonzero(self._const_rows)
        nm1 = self.n - 1.0
        xv = self.x4[idx, 0]                           # (m, d, q) shared row
        blocks = np.einsum("miq,miq->mi", xv, xv)      # b_i = ||x_i||^2
        total = blocks.sum(axis=1)
        q_val = total * total - np.einsum("mi,mi->m", blocks, blocks)
        dev = w[idx] - w[idx].mean(axis=1, keepdims=True)
        s = np.einsum("mn,mn->m", dev, dev)
        loss[idx] = 0.5 / nm1**2 * s * s * q_val
        if grad is not None:
            grad[idx] = (2.0 / nm1**2) * (s * q_val)[:, None] * dev

    # ------------------------------------------------------------------
    # Public surface
    # ------------------------------------------------------------------
    def _evaluate(self, weights, with_grad: bool):
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (self.num_seeds, self.n):
            raise ValueError(
                f"weights must have shape ({self.num_seeds}, {self.n}), got {w.shape}"
            )
        if self.mode == "dual":
            return self._dual(w, with_grad)
        return self._primal(w, with_grad)

    def loss(self, weights) -> np.ndarray:
        """Per-seed decorrelation losses ``(K,)`` for ``(K, n)`` weights."""
        return self._evaluate(weights, with_grad=False)[0]

    def loss_and_grad(self, weights):
        """Per-seed losses ``(K,)`` and analytical gradients ``(K, n)``."""
        return self._evaluate(weights, with_grad=True)


class InPlaceAdam:
    """Adam on a weight array of any shape, updated in place.

    Bitwise-faithful to :class:`repro.nn.optim.Adam` (same betas, epsilon
    and bias correction) but without Tensor/parameter-list indirection, so
    the fused inner loop never touches the tape machinery.  The update is
    elementwise, so a ``(K, n)`` seed-stacked weight matrix steps exactly
    like K independent per-seed optimisers.
    """

    def __init__(self, size, lr: float, betas=(0.9, 0.999), eps: float = 1e-8):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._m = np.zeros(size)
        self._v = np.zeros(size)
        self._t = 0

    def step(self, param: np.ndarray, grad: np.ndarray) -> None:
        """One bias-corrected Adam update of ``param`` (modified in place)."""
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        m, v = self._m, self._v
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        v += (1.0 - self.beta2) * grad * grad
        param -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)
