"""Independence measures: HSIC and the weighted partial cross-covariance.

:func:`hsic_gaussian` is the classic finite-sample HSIC estimator (Gretton
et al., 2005) used as the ground-truth dependence measure in tests; the
training objective itself uses :func:`pairwise_decorrelation_loss`, the
RFF-based Frobenius-norm analogue of Eqs. (3)/(5) which scales linearly
with sample size.

The taped loss is the *reference* implementation of the objective — the
ground truth that the closed-form engine in :mod:`repro.core.fused` is
verified against.  It is built from generic tape ops only (multiply,
mean, subtract, transpose, matmul, sum), so every step is an
independently grad-checked primitive rather than a hand-written adjoint.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.autograd.tensor import Tensor, as_tensor

__all__ = [
    "hsic_gaussian",
    "weighted_cross_covariance",
    "pairwise_decorrelation_loss",
    "block_offdiagonal_mask",
    "cached_block_offdiagonal_mask",
]


def _gaussian_gram(x: np.ndarray, sigma: float) -> np.ndarray:
    sq = (x[:, None] - x[None, :]) ** 2
    return np.exp(-sq / (2.0 * sigma**2))


def hsic_gaussian(x: np.ndarray, y: np.ndarray, sigma: float = 1.0) -> float:
    """Biased finite-sample HSIC between scalar samples ``x`` and ``y``.

    ``HSIC = (n-1)^-2 * trace(K H L H)`` with Gaussian kernels; zero iff
    the variables are independent (for characteristic kernels, Prop. 1 of
    the paper).  Evaluated in the centred elementwise-sum form
    ``sum((H K H) o L)`` — identical value (``H`` is idempotent and the
    trace is cyclic) at ``O(n^2)`` cost instead of the ``O(n^3)`` matrix
    products of the textbook expression.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if x.shape != y.shape:
        raise ValueError("x and y must have the same length")
    n = x.size
    if n < 2:
        raise ValueError("need at least two samples")
    k = _gaussian_gram(x, sigma)
    l = _gaussian_gram(y, sigma)
    kc = k - k.mean(axis=0, keepdims=True) - k.mean(axis=1, keepdims=True) + k.mean()
    return float(np.vdot(kc, l) / (n - 1) ** 2)


def weighted_cross_covariance(features_i, features_j, weights) -> Tensor:
    """Weighted partial cross-covariance matrix of Eq. (5).

    Parameters
    ----------
    features_i, features_j:
        ``(n, Q)`` random-feature matrices for dimensions i and j —
        ``f(Z_{*i})`` and ``g(Z_{*j})`` in the paper.
    weights:
        ``(n,)`` sample weights (Tensor to differentiate through them).

    Returns
    -------
    Tensor
        The ``(Q, Q)`` matrix ``C^W_{Z_i, Z_j} = A_i^T A_j / (n - 1)``,
        where ``A`` is the weighted features ``w * f`` centred per column.
    """
    w = as_tensor(weights).unsqueeze(1)
    a_i = as_tensor(features_i) * w
    a_j = as_tensor(features_j) * w
    a_i = a_i - a_i.mean(axis=0, keepdims=True)
    a_j = a_j - a_j.mean(axis=0, keepdims=True)
    return a_i.transpose() @ a_j * (1.0 / (a_i.shape[0] - 1))


def block_offdiagonal_mask(num_dims: int, q: int) -> np.ndarray:
    """``(d*q, d*q)`` mask that is 1 off the block diagonal, 0 on it.

    Zeroing the ``q x q`` diagonal blocks of the flattened Gram matrix
    leaves exactly the i != j cross-covariance blocks used in the loss.
    """
    mask = np.ones((num_dims * q, num_dims * q), dtype=np.float64)
    for i in range(num_dims):
        mask[i * q : (i + 1) * q, i * q : (i + 1) * q] = 0.0
    return mask


@functools.lru_cache(maxsize=64)
def cached_block_offdiagonal_mask(num_dims: int, q: int) -> np.ndarray:
    """Read-only cached variant of :func:`block_offdiagonal_mask`.

    ``(d, Q)`` is fixed across every batch of a training run, so both the
    taped loss and the fused engine share one immutable mask instead of
    rebuilding a ``(dQ, dQ)`` array per step.
    """
    mask = block_offdiagonal_mask(num_dims, q)
    mask.setflags(write=False)
    return mask


def pairwise_decorrelation_loss(rff_features: np.ndarray, weights) -> Tensor:
    """Sum over all dimension pairs i<j of ``||C^W_{Z_i,Z_j}||_F^2`` (Eq. 7).

    Computed in one shot: flatten the ``(n, d, Q)`` random features to
    ``(n, d*Q)``, form the weighted-centred Gram matrix ``G`` and sum the
    squared off-block entries ``0.5 * ||M o G||_F^2`` (each unordered pair
    appears twice, hence the factor 1/2).  Cost is ``O(n (dQ)^2)`` —
    linear in the sample size, the scalability claim of Section 3.2.
    """
    feats = np.asarray(rff_features, dtype=np.float64)
    if feats.ndim != 3:
        raise ValueError(f"expected (n, d, Q) features, got shape {feats.shape}")
    n, d, q = feats.shape
    if d < 2:
        raise ValueError("need at least two representation dimensions to decorrelate")
    w = as_tensor(weights)
    flat = Tensor(feats.reshape(n, d * q))
    weighted = flat * w.unsqueeze(1)
    centred = weighted - weighted.mean(axis=0, keepdims=True)
    gram = centred.transpose() @ centred * (1.0 / (n - 1))
    masked = gram * cached_block_offdiagonal_mask(d, q)
    return (masked * masked).sum() * 0.5
