"""Test-side oracle: the inner reweighting loop run on the autograd tape.

``repro.core.decorrelation.SampleWeightLearner`` runs Algorithm 1's inner
loop (lines 6-8) on the closed-form engine of ``repro.core.fused``.
:class:`TapedWeightLearner` runs the same loop op by op on the tape: the
objective is ``repro.core.hsic.pairwise_decorrelation_loss``, the
gradients come from ``backward()`` and the step from
``repro.nn.optim.Adam``.  Nothing in ``src/`` calls it; the parity suites
(``test_fused_decorrelation.py``, ``test_decorrelation.py``) hold the
engine's loss trajectories, final weights and warmup diagnostics to it.

Both learners z-score the representations with the same ``_prepare`` and
draw random features through the same RFF calls, so identically seeded
samplers give both the same objective.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.autograd.tensor import Tensor, concatenate
from repro.core.decorrelation import SampleWeightLearner, WeightLearningResult, project_weights
from repro.core.hsic import pairwise_decorrelation_loss
from repro.nn.optim import Adam


class TapedWeightLearner(SampleWeightLearner):
    """A :class:`SampleWeightLearner` whose inner loop runs on the tape."""

    def decorrelation_loss(self, representations, weights) -> float:
        # A copy of the sampler, as the engine's diagnostic draws from.
        feats = copy.deepcopy(self.rff)(self._prepare(representations))
        return float(pairwise_decorrelation_loss(feats, Tensor(np.asarray(weights, dtype=np.float64))).data)

    def learn(self, representations, fixed_weights=None) -> WeightLearningResult:
        z = self._prepare(representations)
        n_total = z.shape[0]
        n_fixed = 0 if fixed_weights is None else len(fixed_weights)
        if n_total - n_fixed <= 0:
            raise ValueError("no local rows to optimise")
        local = Tensor(np.ones(n_total - n_fixed), requires_grad=True)
        fixed = Tensor(np.asarray(fixed_weights, dtype=np.float64)) if n_fixed else None
        optimizer = Adam([local], lr=self.lr)

        feats = self.rff(z)
        losses: list[float] = []
        for _epoch in range(self.epochs):
            optimizer.zero_grad()
            raw = concatenate([fixed, local]) if fixed is not None else local
            # Normalise to mean 1 inside the objective: the loss scales
            # with the weight magnitude, so without this the gradient is
            # dominated by the uniform shrink direction that the sum
            # constraint removes anyway, and the optimiser stalls.
            weights = raw / raw.mean()
            loss = pairwise_decorrelation_loss(feats, weights)
            # Penalise spread around the uniform weighting (degenerate
            # solutions concentrate all mass on a few samples).
            deviation = weights - Tensor(np.ones(n_total))
            penalty = (deviation * deviation).mean() * self.l2_penalty
            (loss + penalty).backward()
            optimizer.step()
            local.data = project_weights(local.data, ceiling=self.max_weight)
            losses.append(float(loss.data))
        return WeightLearningResult(
            weights=project_weights(local.data, ceiling=self.max_weight),
            losses=losses,
            initial_loss=losses[0],
            final_loss=losses[-1],
        )
