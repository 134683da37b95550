"""The energy score served with every prediction.

OOD-GNN's reweighting removes spurious correlations at *training* time;
serving reports one extra number per response, the free energy of its
logits (after "Energy-based Out-of-Distribution Detection for Graph
Neural Networks", Wu et al., see ``PAPERS.md``):

    E(x) = -logsumexp_c(f_c(x)),

low when one logit dominates and high when the logits are flat.  For
binary / multi-label heads a task's single logit ``z`` is expanded into
the symmetric two-class logits ``[+z/2, -z/2]`` (the same sigmoid
probability) before the logsumexp, so energy is low for a confident
prediction of *either* class and maximal at ``z = 0`` — scoring against
an implicit zero logit instead would be monotone in ``z``.  Per-task
energies average over tasks; regression heads have no logits and
therefore no energy.

The score is reported raw, not thresholded: it is not a shift detector.
Under a sum readout the logit magnitude grows with graph size, so energy
tracks size in a direction that the training seed decides.
"""

from __future__ import annotations

import numpy as np

__all__ = ["energy_score"]


def energy_score(logits: np.ndarray, task_type: str = "multiclass") -> np.ndarray:
    """Per-row free energy ``-logsumexp(logits)``.

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

    Returns
    -------
    np.ndarray
        ``(n,)`` energies; higher means flatter logits.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim == 1:
        logits = logits[None, :]
        squeeze = True
    else:
        squeeze = False
    if logits.ndim != 2:
        raise ValueError(f"expected (n, out_dim) logits, got shape {logits.shape}")
    if task_type == "multiclass":
        shift = logits.max(axis=1)
        energies = -(shift + np.log(np.exp(logits - shift[:, None]).sum(axis=1)))
    elif task_type == "binary":
        # logsumexp([a, -a]) = a + log(1 + exp(-2a)) with a = |z| / 2:
        # symmetric in the predicted class, maximal at z = 0.
        half = np.abs(logits) / 2.0
        energies = (-(half + np.log1p(np.exp(-2.0 * half)))).mean(axis=1)
    elif task_type == "regression":
        raise ValueError("regression outputs have no logits, so no energy score")
    else:
        raise ValueError(f"unknown task_type {task_type!r}")
    return energies[0] if squeeze else energies
