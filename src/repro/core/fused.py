"""Closed-form decorrelation engine of the inner reweighting loop (no tape).

This module is the engine of Algorithm 1's inner loop (lines 6-8).  The
taped objective (:func:`repro.core.hsic.pairwise_decorrelation_loss`)
would re-trace the full computation graph of the pairwise decorrelation
loss for every inner epoch; here both the loss *and its analytical
gradient w.r.t. the sample weights* are evaluated in pure vectorised
numpy.

:class:`SeedFusedDecorrelation` evaluates K independent inner loops over
a ``(K, n, d, Q)`` feature stack, one feature batch per seed, as batched
GEMMs/einsums: one numpy dispatch per quantity instead of K.  A
single-seed loop is the K = 1 case of the same engine, so there is one
implementation of the math and it serves ``fit``, the warmup
diagnostics and the multi-seed trainer alike.

Notation (per seed): random features ``F`` of shape ``(n, d, Q)`` flatten
to ``X (n, p)`` with ``p = d*Q``; ``W = diag(w) X``; ``A = C W`` with the
centring matrix ``C = I - 11^T/n``; ``G = A^T A / (n-1)``; ``M`` the 0/1
block-off-diagonal mask.  The loss (Eq. (7)) is ``L = 0.5 ||M o G||_F^2``
and, writing ``S = M o G``, its exact gradient is

    dL/dw_n = 2/(n-1)^2 * sum_a [A S_raw]_{na} X_{na},   S_raw = M o (A^T A),

using that ``C (A S) = A S`` because the columns of ``A`` are already
centred.  Two evaluation strategies are implemented:

* **primal** — form ``A`` and the masked feature-space Gram directly; two
  ``O(n p^2)`` matmuls per evaluation.  Optimal when ``n >> p``.
* **dual** — precompute the *constant* sample-space Gram ``K = X X^T``
  once per batch.  With ``mu = X^T w / n``, ``v = X mu``, ``c = mu.mu``,

      P = A A^T = (w w^T) o K - (w o v) 1^T - 1 (w o v)^T + c
      R = X A^T = K diag(w) - v 1^T
      ||G||_F^2 = ||P||_F^2                (trace identity)
      rowdot(A (A^T A), X)_n = sum_m P_{nm} R_{nm}

  and the block-diagonal correction uses ``G_ii = sum_n w_n^2 F_ni F_ni^T
  - n mu_i mu_i^T``.  The dual evaluation works in *moment form* (see
  :class:`SeedFusedDecorrelation`): the Gram ``K``, its elementwise
  square ``K o K`` and the per-dimension feature pair-products are cached
  once per batch, after which each inner-loop evaluation collapses to
  matvecs against those caches.  ``P`` and ``R`` are never materialised:
  no ``O(n^2)`` or ``O(n p^2)`` intermediate survives inside the loop, and
  no ``O(n p^2)`` work is left in it — the Section 3.2 linearity claim
  with a 20x-amortised constant.
  Explicit dual mode is never size-capped (n = 4096+ runs fine, paying
  only the ``O(n^2)`` cache storage that buys the amortisation).

Seed ``k`` of a K-stack gives the same bytes as its own K = 1 run, so the
seed-batched trainer and K single-seed runs agree exactly.  Each seed's
arithmetic is independent (no cross-seed reduction), the matmuls run one
BLAS call per seed, and every reduction is one whose summation order does
not depend on K: ``sum(axis=...)`` reductions, and einsum contractions
over at most 8192 elements per seed (einsum's iterator buffer; beyond it
the K = 1 call splits the reduction differently).  The primal loss sums
``p^2`` elements, so it uses ``sum``.

The engine is held to the taped objective by
``tests/test_fused_decorrelation.py`` (1e-8, plus a finite-difference
check of the analytical gradient), and ``tests/test_seed_batched_reweight.py``
and ``tests/test_properties.py`` hold every seed of a stack to its K = 1
run byte for byte.
"""

from __future__ import annotations

import numpy as np

from repro.core.hsic import cached_block_offdiagonal_mask

__all__ = ["SeedFusedDecorrelation", "InPlaceAdam", "DUAL_MODE_AUTO_MAX_GRAM_ELEMENTS"]

# "auto" only *prefers* dual below this per-seed cache size (512 MB of
# doubles); explicit mode="dual" always works.
DUAL_MODE_AUTO_MAX_GRAM_ELEMENTS = 1 << 26


def _pick_mode(mode: str, n: int, p: int, cache_elements: int) -> str:
    """Resolve ``"auto"`` from one seed's shape and dual-mode cache size.

    The decision is per seed, so a seed evaluates in the same mode
    whatever the size of the stack it runs in.
    """
    if mode == "auto":
        return "dual" if (n <= 8 * p and cache_elements <= DUAL_MODE_AUTO_MAX_GRAM_ELEMENTS) else "primal"
    if mode not in ("primal", "dual"):
        raise ValueError(f"mode must be 'auto', 'primal' or 'dual', got {mode!r}")
    return mode


class SeedFusedDecorrelation:
    """Closed-form loss/gradient evaluator for K stacked inner loops.

    Takes a ``(K, n, d, Q)`` feature stack — one feature batch per seed,
    all the same shape, fixed for the lifetime of the engine (or until
    :meth:`refresh`).  Losses are returned as ``(K,)`` vectors and
    gradients as ``(K, n)`` stacks; every per-seed quantity gains a
    leading seed axis and is evaluated as one batched GEMM/GEMV/einsum.
    A single inner loop is the ``K = 1`` stack.

    ``mode="auto"`` picks ``"dual"`` when the batch is small relative to
    the feature width and one seed's Gram-shaped caches are within the
    auto-mode memory preference, else ``"primal"``.

    The dual mode restructures the Gram path into *moment form*.
    Everything feature-dependent is cached per batch — the Gram ``K``,
    its elementwise square ``K o K`` and the per-dimension feature
    pair-products ``PP[n, i, (q, r)] = F_niq F_nir`` (upper triangle,
    symmetric blocks, stored sample-minor) — after which each evaluation
    collapses to batched matvecs against those caches.  With
    ``a_m = w_m K_nm``, ``b_n = c - (w o v)_n`` and the moments

        s1_n = sum_m w_m^2 (K o K)_nm        (matvec on the K o K cache)
        s3_n = sum_m w_m^2 v_m K_nm          (matvec on the K cache)
        s2_n = sum_m w_m K_nm = n v_n        (free: K w = X X^T w = n X mu)

    the row quantities of the derivation expand exactly to

        sum_m P_nm^2    = w_n^2 s1_n + sum(wv^2) + n b_n^2 - 2 w_n s3_n
                          + 2 w_n b_n s2_n - 2 b_n sum(wv)
        sum_m P_nm R_nm = w_n s1_n - s3_n + b_n s2_n
                          - v_n (w_n s2_n - sum(wv) + n b_n)

    and the block-diagonal corrections become two more matvecs against
    ``PP`` (``G_ii`` row and its gradient row-dot).  The per-epoch traffic
    is a handful of streamed passes over the caches.  Seeds whose feature
    rows are all identical take an exact rank-one path, keeping the
    gradient bitwise zero at uniform weights (Adam would amplify the
    moment expansion's roundoff residue into weight drift).
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
        # Auto-mode memory preference accounts for every cache one seed
        # allocates: two Gram-shaped (K and K o K), the pair-product cache
        # and the transposed-feature scratch.
        num_pairs = q * (q + 1) // 2
        cache_elements = n * (2 * n + d * num_pairs + d * q)
        self.mode = _pick_mode(mode, n, self.p, cache_elements)
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
        # A pairwise sum, not einsum: the reduction covers p^2 elements, past
        # einsum's buffer, where a K = 1 call would sum in other chunks.
        loss = 0.5 / nm1**2 * (g * g).sum(axis=(1, 2))
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
        deviations themselves are — instead of the moment expansion's
        roundoff residue.
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
