"""Random Fourier features — the function space ``H_RFF`` of Eq. (4).

The paper measures non-linear dependence between representation dimensions
by mapping each scalar dimension through ``Q`` random functions

    h(z) = sqrt(2) * cos(w * z + phi),   w ~ N(0, 1), phi ~ U(0, 2*pi),

which approximate a Gaussian-kernel feature map (Rahimi & Recht, 2007).
Two ablation knobs from Figure 2 are supported:

* ``num_functions`` > 1 — the "2x / 5x / 10x" settings (Q per dimension);
* ``fraction`` < 1 — the "0.2x ... 0.8x" settings, where only a random
  subset of representation dimensions enters the dependence measure;
* ``linear=True`` — the "no RFF" variant: the identity map, reducing the
  criterion to plain (linear) cross-covariance decorrelation.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RandomFourierFeatures", "map_features_many"]


class RandomFourierFeatures:
    """Sampler applying ``Q`` random cosine features to every column of Z.

    Parameters
    ----------
    num_functions:
        Q in Eq. (4); the paper's default is 1, with up to 10 in ablations.
    fraction:
        If < 1, a random ``fraction`` of the representation dimensions is
        selected (fresh per call) and only those are decorrelated —
        the paper's low-budget variant.
    linear:
        Use the identity feature map instead (the "no RFF" ablation).
    rng:
        Source of randomness; features are resampled on every call, as in
        StableNet, so the dependence estimate is unbiased across steps.
    """

    def __init__(
        self,
        num_functions: int = 1,
        fraction: float = 1.0,
        linear: bool = False,
        rng: np.random.Generator | None = None,
    ):
        if num_functions < 1:
            raise ValueError(f"num_functions must be >= 1, got {num_functions}")
        if not 0 < fraction <= 1:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        self.num_functions = int(num_functions)
        self.fraction = float(fraction)
        self.linear = bool(linear)
        self.rng = rng if rng is not None else np.random.default_rng()

    def select_dimensions(self, dim: int) -> np.ndarray:
        """Columns of Z participating in this round of decorrelation."""
        if self.fraction >= 1.0:
            return np.arange(dim)
        keep = max(2, int(round(self.fraction * dim)))
        return np.sort(self.rng.choice(dim, size=min(keep, dim), replace=False))

    def __call__(self, z: np.ndarray) -> np.ndarray:
        """Map ``(n, d)`` representations to ``(n, d', Q)`` random features.

        ``d'`` is ``d`` unless ``fraction`` < 1.  With ``linear=True`` the
        output is the selected columns with ``Q = 1``.
        """
        z = np.asarray(z, dtype=np.float64)
        if z.ndim != 2:
            raise ValueError(f"expected (n, d) representations, got shape {z.shape}")
        return map_features_many([self], z[None])[0]


def map_features_many(rffs, z: np.ndarray) -> np.ndarray:
    """Apply K samplers to a ``(K, n, d)`` stack with one fused cosine map.

    Per-seed randomness is untouched — sampler ``k`` draws its column
    selection, frequencies and phases from its own rng in exactly the
    order ``rffs[k](z[k])`` would — but the expensive part, the cosine
    feature map, ``sqrt(2) cos(w_dq * z_nd + phi_dq)``, runs once over the
    whole stack.  Since the map is purely elementwise, the result is
    bitwise identical to stacking K separate calls (a single call is the
    ``K = 1`` stack).  All samplers must share ``num_functions``,
    ``fraction`` and ``linear`` so the per-seed feature blocks stack.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 3 or z.shape[0] != len(rffs):
        raise ValueError(f"expected ({len(rffs)}, n, d) representations, got shape {z.shape}")
    lead = rffs[0]
    for rff in rffs:
        if (rff.num_functions, rff.fraction, rff.linear) != (
            lead.num_functions, lead.fraction, lead.linear
        ):
            raise ValueError("all samplers must share num_functions/fraction/linear")
    dim = z.shape[2]
    if lead.fraction >= 1.0:
        # select_dimensions is the identity and draws nothing: share the
        # input stack instead of materialising K column copies.
        selected = z
    else:
        selected = np.stack([z[k][:, rff.select_dimensions(dim)] for k, rff in enumerate(rffs)])
    if lead.linear:
        return selected[:, :, :, None]
    d = selected.shape[2]
    w = np.empty((len(rffs), d, lead.num_functions))
    phi = np.empty_like(w)
    for k, rff in enumerate(rffs):
        w[k] = rff.rng.normal(0.0, 1.0, size=(d, rff.num_functions))
        phi[k] = rff.rng.uniform(0.0, 2.0 * np.pi, size=(d, rff.num_functions))
    # The per-seed map, fused in place over the stack.
    out = np.empty(selected.shape + (lead.num_functions,))
    np.multiply(selected[:, :, :, None], w[:, None, :, :], out=out)
    out += phi[:, None, :, :]
    np.cos(out, out=out)
    out *= np.sqrt(2.0)
    return out
