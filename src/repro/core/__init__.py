"""OOD-GNN core: nonlinear representation decorrelation via RFF + reweighting.

This package implements the paper's contribution:

* :mod:`repro.core.rff` — the random-Fourier-feature function space
  ``H_RFF`` of Eq. (4).
* :mod:`repro.core.hsic` — HSIC, the (weighted) partial
  cross-covariance of Eqs. (3) and (5), and the taped decorrelation
  objective over all dimension pairs (Eq. (7)) that the closed-form
  engine is verified against.
* :mod:`repro.core.decorrelation` — the projected sample-weight optimiser
  of Eq. (10) on the closed-form engine; ``learn_many`` runs K seeds'
  inner loops as one stacked job, and ``learn`` is its K = 1 case.
* :mod:`repro.core.fused` — ``SeedFusedDecorrelation``, the closed-form
  loss/gradient engine behind the inner loop over ``(K, n, d, Q)``
  feature stacks: analytical weight gradients, cached sample-space Gram
  moments, cached block masks, and an in-place Adam.
* :mod:`repro.core.global_local` — the global-local weight estimator with
  momentum memory groups (Eqs. (8) and (9)).
* :mod:`repro.core.ood_gnn` — the OOD-GNN model and the Algorithm-1
  training procedure: one seed-stacked epoch loop, of which ``fit`` is
  the K = 1 case and the batched multi-seed ``fit_many`` stacks K seeds.

The closed-form mathematics of the inner loop and the design of the
multi-seed engine are documented in ``docs/ARCHITECTURE.md``.
"""

from repro.core.rff import RandomFourierFeatures
from repro.core.hsic import hsic_gaussian, weighted_cross_covariance, pairwise_decorrelation_loss
from repro.core.fused import SeedFusedDecorrelation, InPlaceAdam
from repro.core.decorrelation import SampleWeightLearner, learn_many, project_weights
from repro.core.global_local import GlobalLocalWeightEstimator
from repro.core.ood_gnn import OODGNN, OODGNNConfig, OODGNNTrainer

__all__ = [
    "RandomFourierFeatures",
    "hsic_gaussian",
    "weighted_cross_covariance",
    "pairwise_decorrelation_loss",
    "SeedFusedDecorrelation",
    "InPlaceAdam",
    "SampleWeightLearner",
    "learn_many",
    "project_weights",
    "GlobalLocalWeightEstimator",
    "OODGNN",
    "OODGNNConfig",
    "OODGNNTrainer",
]
