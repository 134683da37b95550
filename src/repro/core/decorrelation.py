"""Sample-weight learning for representation decorrelation (Eq. (10)).

:class:`SampleWeightLearner` runs the inner optimisation loop of
Algorithm 1 (lines 6-8): given the concatenated global+local graph
representations it learns the local weights that minimise the pairwise
decorrelation loss, under the paper's constraints — weights stay
non-negative, average to one (``sum w = N``), and carry an l2 penalty to
avoid degenerate solutions.

The loop runs on the closed-form engine of :mod:`repro.core.fused`:
analytical gradients in pure numpy, no tape, with the sample-space Gram
precomputed once per batch.  It is held to the taped objective
:func:`repro.core.hsic.pairwise_decorrelation_loss` to 1e-8, per
evaluation and over whole inner-loop trajectories
(``tests/test_fused_decorrelation.py``).

:func:`learn_many` is the seed-batched entry point: K per-seed learners
(each owning its own RFF stream) run their inner loops as one stacked
closed-form job on a :class:`~repro.core.fused.SeedFusedDecorrelation`
engine, matching K sequential :meth:`SampleWeightLearner.learn` calls to
1e-8 (``tests/test_seed_batched_reweight.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.fused import FusedDecorrelation, InPlaceAdam, SeedFusedDecorrelation
from repro.core.rff import RandomFourierFeatures, map_features_many
from repro.obs.registry import registry
from repro.obs.trace import span

__all__ = ["SampleWeightLearner", "learn_many", "project_weights", "WeightLearningResult"]

# One sample per learn() call (not per epoch): the counters live outside
# the inner loop, so a metrics-on run adds two inc() calls per batch.
_REWEIGHT_EPOCHS = registry.counter(
    "repro_reweight_epochs_total",
    "Inner reweighting epochs run, by path (fused or seed_batched)",
    ("path",),
)
_REWEIGHT_SECONDS = registry.counter(
    "repro_reweight_seconds_total",
    "Wall seconds inside inner reweighting loops, by path (fused or seed_batched)",
    ("path",),
)


def project_weights(weights: np.ndarray, floor: float = 0.0, ceiling: float | None = None) -> np.ndarray:
    """Project raw weights onto the paper's constraint set.

    Clips below ``floor`` (weights are sample multiplicities, hence
    non-negative), optionally above ``ceiling`` (bounding how hard a
    single sample can dominate a batch), and rescales so the mean is
    exactly 1, i.e. ``sum_n w_n = N`` as required below Eq. (1).

    Operates over the last axis: a ``(K, n)`` seed stack is projected
    row-wise, each row exactly as the 1-D call would project it.
    """
    clipped = np.maximum(np.asarray(weights, dtype=np.float64), floor)
    if ceiling is not None:
        clipped = np.minimum(clipped, ceiling)
    n = clipped.shape[-1]
    total = clipped.sum(axis=-1, keepdims=True)
    # Degenerate (all ~zero) weight vectors reset to uniform; the epsilon
    # guards against overflow when rescaling subnormal totals.
    degenerate = total <= 1e-12 * n
    safe_total = np.where(degenerate, 1.0, total)
    return np.where(degenerate, 1.0, clipped * (n / safe_total))


@dataclass
class WeightLearningResult:
    """Outcome of one inner reweighting loop."""

    weights: np.ndarray          # optimised local weights, projected
    losses: list                 # decorrelation loss per inner epoch
    initial_loss: float
    final_loss: float


class SampleWeightLearner:
    """Optimises local sample weights to decorrelate representations.

    Representations are z-scored per dimension before the RFF map: the
    random frequencies are drawn from N(0, 1) — a unit-bandwidth Gaussian
    kernel — so inputs must be on unit scale for the dependence estimate
    to be meaningful (sum-pooled GNN outputs can be orders of magnitude
    larger).  Random features are drawn once per :meth:`learn` call, so
    the objective stays fixed within one inner loop.

    Parameters
    ----------
    rff:
        The random-feature sampler (Q, fraction, linear knobs).
    epochs:
        ``Epoch_Reweight`` in Algorithm 1 (paper default 20).
    lr:
        Adam step size for the weight vector.
    l2_penalty:
        Strength of the l2 regulariser on the weights ("the l2-norm is
        adopted on the weights to prevent degenerated solutions").
    max_weight:
        Ceiling on any single local weight (projection bound).
    """

    def __init__(
        self,
        rff: RandomFourierFeatures,
        epochs: int = 20,
        lr: float = 0.1,
        l2_penalty: float = 0.1,
        max_weight: float = 5.0,
    ):
        if epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {epochs}")
        self.rff = rff
        self.epochs = epochs
        self.lr = lr
        self.l2_penalty = l2_penalty
        self.max_weight = max_weight
        self._engine: FusedDecorrelation | None = None
        self._seed_engine: SeedFusedDecorrelation | None = None

    def _fused_engine(self, feats: np.ndarray) -> FusedDecorrelation:
        """Fused engine for ``feats``, reusing cached buffers when possible.

        Consecutive batches of the same shape (the common case: the
        trainer drops smaller trailing batches) hit
        :meth:`FusedDecorrelation.refresh`, which recomputes only the
        feature-dependent Gram and keeps the feature-independent
        scratch/mask state.
        """
        engine = self._engine
        if engine is not None and feats.shape == (engine.n, engine.num_dims, engine.q):
            return engine.refresh(feats)
        self._engine = FusedDecorrelation(feats)
        return self._engine

    def _fused_seed_engine(self, feats: np.ndarray) -> SeedFusedDecorrelation:
        """Seed-batched engine for a ``(K, n, d, Q)`` stack, cache-refreshed.

        Mirrors :meth:`_fused_engine`: same-shape stacks (the multi-seed
        trainer's steady state) reuse the cached Gram/scratch buffers via
        :meth:`SeedFusedDecorrelation.refresh`.  The cache lives on the
        lead learner of a :func:`learn_many` roster.
        """
        engine = self._seed_engine
        if engine is not None and feats.shape == (
            engine.num_seeds, engine.n, engine.num_dims, engine.q
        ):
            return engine.refresh(feats)
        self._seed_engine = SeedFusedDecorrelation(feats)
        return self._seed_engine

    def _prepare(self, representations: np.ndarray) -> np.ndarray:
        """Z-score over the sample axis; accepts ``(n, d)`` or ``(K, n, d)``."""
        z = np.asarray(representations, dtype=np.float64)
        mean = z.mean(axis=-2, keepdims=True)
        std = z.std(axis=-2, keepdims=True)
        return (z - mean) / np.maximum(std, 1e-8)

    def decorrelation_loss(self, representations: np.ndarray, weights: np.ndarray) -> float:
        """Decorrelation objective (Eq. (7)) of ``representations`` under ``weights``.

        Draws fresh random features, as :meth:`learn` does.  Evaluated in
        primal form: the dual mode's cache precomputation only pays off
        over a full inner loop.
        """
        feats = self.rff(self._prepare(representations))
        return FusedDecorrelation(feats, mode="primal").loss(weights)

    def learn(self, representations: np.ndarray, fixed_weights: np.ndarray | None = None) -> WeightLearningResult:
        """Run the inner loop (Algorithm 1, lines 6-8) from uniform weights.

        The per-epoch chain is: normalise the raw weights to mean 1, get
        loss and analytical gradient from the engine, add the l2-penalty
        gradient, push both through the normalisation adjoint

            d/d raw_j = (n/s) * (g_j - <raw, g>/s),   s = sum(raw),

        take one in-place Adam step on the local slice, and re-project.

        Parameters
        ----------
        representations:
            ``(n, d)`` matrix ``hat-Z``: global groups (if any) stacked on
            top of the local mini-batch representations.
        fixed_weights:
            Weights of the global part (first rows), held constant as in
            Eq. (10) where only ``W^(l)`` is optimised.  ``None`` means
            every row is local.

        Returns
        -------
        WeightLearningResult
            Projected optimised local weights plus the loss trajectory.
        """
        z = self._prepare(representations)
        n_total = z.shape[0]
        n_fixed = 0 if fixed_weights is None else len(fixed_weights)
        n_local = n_total - n_fixed
        if n_local <= 0:
            raise ValueError("no local rows to optimise")

        local = np.ones(n_local)
        fixed = np.asarray(fixed_weights, dtype=np.float64) if n_fixed else None
        optimizer = InPlaceAdam(n_local, lr=self.lr)
        engine = self._fused_engine(self.rff(z))
        losses: list[float] = []
        initial_loss = None
        with _REWEIGHT_SECONDS.time(path="fused"):
            for epoch in range(self.epochs):
                with span("reweight.epoch", path="fused", epoch=epoch, n=n_total):
                    raw = np.concatenate([fixed, local]) if fixed is not None else local
                    total = raw.sum()
                    weights = raw * (n_total / total)
                    loss, grad = engine.loss_and_grad(weights)
                    if initial_loss is None:
                        initial_loss = loss
                    grad += (2.0 * self.l2_penalty / n_total) * (weights - 1.0)
                    grad_raw = (grad - (raw @ grad) / total) * (n_total / total)
                    optimizer.step(local, grad_raw[n_fixed:])
                    local = project_weights(local, ceiling=self.max_weight)
                    losses.append(loss)
        _REWEIGHT_EPOCHS.inc(self.epochs, path="fused")

        return WeightLearningResult(
            weights=project_weights(local, ceiling=self.max_weight),
            losses=losses,
            initial_loss=initial_loss,
            final_loss=losses[-1],
        )


# ----------------------------------------------------------------------
# Seed-batched inner loop
# ----------------------------------------------------------------------
def _shared_settings(learner: SampleWeightLearner) -> tuple:
    """The settings one stacked inner loop applies to every seed."""
    rff = learner.rff
    return (
        learner.epochs, learner.lr, learner.l2_penalty, learner.max_weight,
        rff.num_functions, rff.fraction, rff.linear,
    )


def learn_many(
    learners,
    representations: np.ndarray,
    fixed_weights: np.ndarray | None = None,
) -> list[WeightLearningResult]:
    """Run K inner reweighting loops as one seed-batched closed-form job.

    The batched counterpart of K :meth:`SampleWeightLearner.learn` calls —
    the entry point the multi-seed OOD-GNN trainer feeds its seed-stacked
    representations into (see ``docs/ARCHITECTURE.md``).

    Parameters
    ----------
    learners:
        One :class:`SampleWeightLearner` per seed.  Each keeps its own RFF
        sampler, so the per-seed random-feature streams are exactly those
        the sequential path would draw.  The shared settings (epochs, lr,
        l2, projection ceiling and the RFF map's Q, fraction and linear
        switch) must agree across the roster; a ``ValueError`` names the
        learners that differ.
    representations:
        ``(K, n, d)`` stacked representations, one ``hat-Z`` per seed
        (global groups on top of the local mini-batch, all the same size).
    fixed_weights:
        ``(K, m)`` global weights held constant per seed, or ``None`` when
        every row is local (must be uniform across seeds — the multi-seed
        trainer's global memories initialise in lockstep).

    Returns
    -------
    list[WeightLearningResult]
        Per-seed results, index-aligned with ``learners`` and matching K
        sequential ``learn`` calls to 1e-8
        (``tests/test_seed_batched_reweight.py``).
    """
    learners = list(learners)
    if not learners:
        raise ValueError("need at least one learner")
    reps = np.asarray(representations, dtype=np.float64)
    if reps.ndim != 3 or reps.shape[0] != len(learners):
        raise ValueError(
            f"expected ({len(learners)}, n, d) representations, got shape {reps.shape}"
        )
    lead = learners[0]
    shared = _shared_settings(lead)
    mismatched = [k for k, learner in enumerate(learners) if _shared_settings(learner) != shared]
    if mismatched:
        raise ValueError(
            f"learners {mismatched} differ from learner 0 in epochs, lr, l2_penalty, "
            "max_weight or the RFF map; one stacked loop needs shared settings"
        )

    num_seeds, n_total = reps.shape[0], reps.shape[1]
    z = lead._prepare(reps)
    n_fixed = 0 if fixed_weights is None else np.asarray(fixed_weights).shape[1]
    n_local = n_total - n_fixed
    if n_local <= 0:
        raise ValueError("no local rows to optimise")

    local = np.ones((num_seeds, n_local))
    fixed = np.asarray(fixed_weights, dtype=np.float64) if n_fixed else None
    optimizer = InPlaceAdam(local.shape, lr=lead.lr)

    # One set of draws per learner, in seed order — each seed's rng stream
    # advances exactly as its sequential learn() would — with the cosine
    # map fused over the stack (bitwise per-seed).
    engine = lead._fused_seed_engine(map_features_many([learner.rff for learner in learners], z))
    losses = np.empty((lead.epochs, num_seeds))
    initial = None
    with _REWEIGHT_SECONDS.time(path="seed_batched"):
        for epoch in range(lead.epochs):
            with span("reweight.epoch", path="seed_batched", epoch=epoch,
                      n=n_total, K=num_seeds):
                raw = np.concatenate([fixed, local], axis=1) if fixed is not None else local
                total = raw.sum(axis=1)
                weights = raw * (n_total / total)[:, None]
                loss, grad = engine.loss_and_grad(weights)
                if initial is None:
                    initial = loss.copy()
                grad += (2.0 * lead.l2_penalty / n_total) * (weights - 1.0)
                grad_raw = (
                    grad - (np.einsum("kn,kn->k", raw, grad) / total)[:, None]
                ) * (n_total / total)[:, None]
                optimizer.step(local, grad_raw[:, n_fixed:])
                local = project_weights(local, ceiling=lead.max_weight)
                losses[epoch] = loss
    _REWEIGHT_EPOCHS.inc(lead.epochs * num_seeds, path="seed_batched")

    projected = project_weights(local, ceiling=lead.max_weight)
    return [
        WeightLearningResult(
            weights=projected[k],
            losses=[float(l) for l in losses[:, k]],
            initial_loss=float(initial[k]),
            final_loss=float(losses[-1, k]),
        )
        for k in range(num_seeds)
    ]
