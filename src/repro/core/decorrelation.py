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

:func:`learn_many` is the one inner loop: K per-seed learners (each
owning its own RFF stream) run as one stacked job on a
:class:`~repro.core.fused.SeedFusedDecorrelation` engine.
:meth:`SampleWeightLearner.learn` is its K = 1 case, so a seed of a
stack and a single-seed call give the same bytes
(``tests/test_seed_batched_reweight.py``).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from repro.core.fused import InPlaceAdam, SeedFusedDecorrelation
from repro.core.rff import RandomFourierFeatures, map_features_many
from repro.obs.registry import registry
from repro.obs.trace import span

__all__ = ["SampleWeightLearner", "learn_many", "project_weights", "WeightLearningResult"]

# One sample per inner loop (not per epoch): the counters live outside
# the epoch loop, so a metrics-on run adds two inc() calls per batch.
_REWEIGHT_EPOCHS = registry.counter(
    "repro_reweight_epochs_total", "Inner reweighting epochs run, summed over seeds"
)
_REWEIGHT_SECONDS = registry.counter(
    "repro_reweight_seconds_total", "Wall seconds inside inner reweighting loops"
)


def project_weights(weights: np.ndarray, floor: float = 0.0, ceiling: float | None = None) -> np.ndarray:
    """Project raw weights onto the paper's constraint set.

    Clips below ``floor`` (weights are sample multiplicities, hence
    non-negative), optionally above ``ceiling`` (bounding how hard a
    single sample can dominate a batch), and rescales so the mean is
    exactly 1, i.e. ``sum_n w_n = N`` as required below Eq. (1).  When the
    clipped mass is below ``N`` the rescale grows every weight, so entries
    it lifts past ``ceiling`` are pinned there and the rest rescaled
    again.  A mean-one vector fits under the ceiling only if
    ``ceiling >= 1``.

    Operates over the last axis: a ``(K, n)`` seed stack is projected
    row-wise, each row exactly as the 1-D call would project it.
    """
    if ceiling is not None and ceiling < 1.0:
        raise ValueError(f"ceiling must be >= 1 for mean-one weights, got {ceiling}")
    clipped = np.maximum(np.asarray(weights, dtype=np.float64), floor)
    if ceiling is not None:
        clipped = np.minimum(clipped, ceiling)
    n = clipped.shape[-1]
    total = clipped.sum(axis=-1, keepdims=True)
    # Degenerate (all ~zero) weight vectors reset to uniform; the epsilon
    # guards against overflow when rescaling subnormal totals.
    degenerate = total <= 1e-12 * n
    safe_total = np.where(degenerate, 1.0, total)
    projected = np.where(degenerate, 1.0, clipped * (n / safe_total))
    if ceiling is None:
        return projected
    # Pin the entries the rescale lifted past the ceiling and rescale the
    # free ones to the mass left, N - ceiling * pinned.  Each round raises
    # the free entries' scale, so pinned entries stay pinned and the loop
    # ends within N rounds.  Free entries with (almost) no mass left share
    # it evenly, at most 1 each since ceiling >= 1.  Rows without pinned
    # entries recompute exactly the first pass's values.
    lifted = projected > ceiling
    pinned = lifted
    while lifted.any():
        free = np.where(pinned, 0.0, clipped)
        free_total = free.sum(axis=-1, keepdims=True)
        num_pinned = pinned.sum(axis=-1, keepdims=True)
        target = n - ceiling * num_pinned
        empty = free_total <= 1e-12 * n
        rescaled = np.where(
            empty,
            target / np.maximum(n - num_pinned, 1),
            free * (target / np.where(empty, 1.0, free_total)),
        )
        projected = np.where(pinned, ceiling, rescaled)
        lifted = projected > ceiling
        pinned = pinned | lifted
    return projected


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
        if max_weight < 1.0:
            raise ValueError(f"max_weight must be >= 1 (weights average to one), got {max_weight}")
        self.rff = rff
        self.epochs = epochs
        self.lr = lr
        self.l2_penalty = l2_penalty
        self.max_weight = max_weight
        self._seed_engine: SeedFusedDecorrelation | None = None

    def _cached_engine(self, feats: np.ndarray) -> SeedFusedDecorrelation:
        """Engine for a ``(K, n, d, Q)`` stack, reusing cached buffers.

        Consecutive stacks of the same shape (the common case: the
        trainer drops smaller trailing batches) hit
        :meth:`SeedFusedDecorrelation.refresh`, which recomputes only the
        feature-dependent caches and keeps the mask and scratch buffers.
        The cache lives on the lead learner of a :func:`learn_many` roster.
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

        A diagnostic: it draws its random features from a copy of the
        sampler, so the sampler's rng is in the same state after the call
        as before it, and the features of every later :meth:`learn` call
        are the ones they would be without it.  Evaluated in primal form:
        the dual mode's cache precomputation only pays off over a full
        inner loop.
        """
        feats = copy.deepcopy(self.rff)(self._prepare(representations))
        weights = np.asarray(weights, dtype=np.float64)
        return float(SeedFusedDecorrelation(feats[None], mode="primal").loss(weights[None])[0])

    def learn(self, representations: np.ndarray, fixed_weights: np.ndarray | None = None) -> WeightLearningResult:
        """Run the inner loop (Algorithm 1, lines 6-8) from uniform weights.

        The ``K = 1`` case of :func:`learn_many`.

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
        fixed = None if fixed_weights is None else np.asarray(fixed_weights, dtype=np.float64)[None]
        return learn_many([self], np.asarray(representations)[None], fixed)[0]


# ----------------------------------------------------------------------
# The inner loop, over a stack of seeds
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

    The per-epoch chain is: normalise the raw weights to mean 1, get
    loss and analytical gradient from the engine, add the l2-penalty
    gradient, push both through the normalisation adjoint

        d/d raw_j = (n/s) * (g_j - <raw, g>/s),   s = sum(raw),

    take one in-place Adam step on the local slice, and re-project.
    The multi-seed OOD-GNN trainer feeds its seed-stacked representations
    in here (see ``docs/ARCHITECTURE.md``), and
    :meth:`SampleWeightLearner.learn` is the ``K = 1`` call.

    Parameters
    ----------
    learners:
        One :class:`SampleWeightLearner` per seed.  Each keeps its own RFF
        sampler, so the per-seed random-feature streams are exactly those
        its own :meth:`SampleWeightLearner.learn` call would draw.  The shared settings (epochs, lr,
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
        Per-seed results, index-aligned with ``learners``.  Each is byte
        for byte what that learner's own ``learn`` call would return
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
    # advances exactly as its own learn() would — with the cosine map
    # fused over the stack (bitwise per-seed).
    engine = lead._cached_engine(map_features_many([learner.rff for learner in learners], z))
    losses = np.empty((lead.epochs, num_seeds))
    initial = None
    with _REWEIGHT_SECONDS.time():
        for epoch in range(lead.epochs):
            with span("reweight.epoch", epoch=epoch, n=n_total, K=num_seeds):
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
    _REWEIGHT_EPOCHS.inc(lead.epochs * num_seeds)

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
