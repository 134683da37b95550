"""Energy-based OOD scoring for served predictions.

OOD-GNN's reweighting removes spurious correlations at *training* time;
this module adds the complementary *inference*-time signal in the spirit
of "Energy-based Out-of-Distribution Detection for Graph Neural Networks"
(Wu et al., see ``PAPERS.md``): the free energy of a logit vector,

    E(x) = -T * logsumexp_c(f_c(x) / T),

is lower on in-distribution inputs (one confident logit dominates) and
drifts up under distribution shift, without any retraining — the serving
engine attaches it to every response.  For binary / multi-label heads a
task's single logit ``z`` is expanded into the symmetric two-class logits
``[+z/2, -z/2]`` (the same sigmoid probability) before the logsumexp, so
energy is low for a confident prediction of *either* class and maximal at
``z = 0`` — scoring against an implicit zero logit instead would be
monotone in ``z`` and flag confident negatives as OOD.  Per-task energies
average over tasks; regression heads have no logits and therefore no
energy.

:func:`fit_energy_threshold` turns held-in validation energies into an
:class:`EnergyCalibration`: a threshold at a chosen in-distribution
quantile, so flagged requests are the ones more OOD-looking than all but
``1 - quantile`` of known-good data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["energy_score", "EnergyCalibration", "fit_energy_threshold"]


def energy_score(logits: np.ndarray, task_type: str = "multiclass", temperature: float = 1.0) -> np.ndarray:
    """Per-row free energy ``-T * logsumexp(logits / T)``.

    Parameters
    ----------
    logits:
        ``(n, out_dim)`` raw model outputs (a single row may be passed as
        ``(out_dim,)``).
    task_type:
        ``"multiclass"`` reduces over the class axis; ``"binary"`` scores
        each task's logit ``z`` as the two-class energy of the symmetric
        logits ``[+z/2, -z/2]`` and averages over tasks.  ``"regression"``
        raises — there is no energy without logits.
    temperature:
        The ``T`` of the energy formula (1.0 in the paper's main setup).

    Returns
    -------
    np.ndarray
        ``(n,)`` energies; **higher = more OOD-looking**.
    """
    if not temperature > 0:  # also rejects NaN
        raise ValueError(f"temperature must be > 0, got {temperature}")
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim == 1:
        logits = logits[None, :]
        squeeze = True
    else:
        squeeze = False
    if logits.ndim != 2:
        raise ValueError(f"expected (n, out_dim) logits, got shape {logits.shape}")
    t = float(temperature)
    if task_type == "multiclass":
        scaled = logits / t
        shift = scaled.max(axis=1)
        energies = -t * (shift + np.log(np.exp(scaled - shift[:, None]).sum(axis=1)))
    elif task_type == "binary":
        # logsumexp([a, -a]) = a + log(1 + exp(-2a)) with a = |z| / (2T):
        # symmetric in the predicted class, maximal at z = 0.
        half = np.abs(logits) / (2.0 * t)
        energies = (-t * (half + np.log1p(np.exp(-2.0 * half)))).mean(axis=1)
    elif task_type == "regression":
        raise ValueError("regression outputs have no logits, so no energy score")
    else:
        raise ValueError(f"unknown task_type {task_type!r}")
    return energies[0] if squeeze else energies


@dataclass(frozen=True)
class EnergyCalibration:
    """A fitted OOD decision rule: flag when energy exceeds ``threshold``."""

    threshold: float
    temperature: float = 1.0
    quantile: float = 0.95

    def is_ood(self, energies) -> np.ndarray:
        """Boolean OOD flags for an array of energies."""
        return np.asarray(energies, dtype=np.float64) > self.threshold

    def to_dict(self) -> dict:
        return {
            "threshold": self.threshold,
            "temperature": self.temperature,
            "quantile": self.quantile,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "EnergyCalibration":
        return cls(**payload)


def fit_energy_threshold(
    energies, quantile: float = 0.95, temperature: float = 1.0
) -> EnergyCalibration:
    """Fit the OOD threshold on held-in (validation) energies.

    The threshold is the ``quantile``-th quantile of the in-distribution
    energy distribution: at ``quantile=0.95``, ~5% of known-good data
    would be flagged, and anything scoring above essentially all of the
    validation set is reported as OOD.
    """
    energies = np.asarray(energies, dtype=np.float64)
    if energies.size == 0:
        raise ValueError("cannot calibrate on an empty energy sample")
    if not np.isfinite(energies).all():
        raise ValueError("cannot calibrate on non-finite energies")
    if not 0.0 < quantile < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {quantile}")
    threshold = float(np.quantile(energies, quantile))
    return EnergyCalibration(threshold=threshold, temperature=temperature, quantile=quantile)
