"""OOD-GNN: model assembly and the Algorithm-1 training procedure.

The model is a GIN encoder (the paper's backbone choice, Section 4.1.3)
with a two-layer MLP classifier.  Training alternates:

1. forward the mini-batch to get local representations ``Z^(l)``;
2. concatenate with the K global memory groups (Eq. (8));
3. inner loop — learn local sample weights minimising the RFF
   decorrelation loss while global weights stay fixed (Eq. (10));
4. back-propagate the *weighted* prediction loss (Eq. (11));
5. momentum-update the global memory (Eq. (9)).

One epoch loop runs these steps on a seed-stacked model (see
``docs/ARCHITECTURE.md``): :meth:`OODGNNTrainer.fit` is its K = 1 case and
:meth:`OODGNNTrainer.fit_many` stacks K seeds.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from repro.autograd.tensor import Tensor
from repro.graph.data import Graph
from repro.nn.layers import stack_seed_modules, sync_seed
# The loop calls its steps through this module's globals, which the
# repository benchmark's tracer (perfbench/tracing.py) replaces by name.
# The tracer also wraps weighted_prediction_loss and clip_grad_norm, which
# nothing here calls; they stay importable so its patches find them.
from repro.nn.losses import weighted_prediction_loss, seed_prediction_loss  # noqa: F401
from repro.nn.optim import Adam, clip_grad_norm, clip_grad_norm_per_seed  # noqa: F401
from repro.encoders.base import StackedEncoder
from repro.encoders.conv import GINConv
from repro.encoders.models import GraphClassifier
from repro.core.rff import RandomFourierFeatures
from repro.core.decorrelation import SampleWeightLearner, learn_many
from repro.core.global_local import GlobalLocalWeightEstimator
from repro.training.loop import iterate_minibatches, evaluate_model, evaluate_model_per_seed
from repro.training.seed import seeded_rng
from repro.training.trainer import MultiSeedResult, record_validation, restore_best

__all__ = ["OODGNN", "OODGNNConfig", "OODGNNTrainer", "OODGNNHistory"]


@dataclass
class OODGNNConfig:
    """Hyper-parameters of OOD-GNN (paper defaults, Section 4.1.3).

    Attributes
    ----------
    hidden_dim:
        Representation dimensionality d ({64, 256} / {128, 300} in paper).
    num_layers:
        GIN message-passing layers (2..6).
    rff_functions:
        Q in Eq. (4).  The paper sets Q = 1 with d = 300; at the smaller
        representation widths used on this substrate the Q = 1 dependence
        estimate is too noisy, so the default follows the paper's cited
        result that Q = 5 "is solid enough" (their reference [66]).
    rff_fraction:
        Fraction of representation dimensions entering the dependence
        measure (< 1 gives the 0.2x..0.8x ablation points of Figure 2).
    linear_decorrelation:
        The "no RFF" ablation: decorrelate linearly only.
    reweight_epochs:
        ``Epoch_Reweight`` (paper default 20); the loop runs on the
        closed-form engine of :mod:`repro.core.fused`.
    weight_lr / weight_l2:
        Inner Adam step size and the l2 penalty against degenerate
        weights.
    max_weight:
        Ceiling on any single sample weight (projection bound).
    warmup_fraction:
        Fraction of the outer epochs trained with uniform weights before
        reweighting activates — weights learned on an untrained encoder's
        representations are noise, so the inner loop waits until the
        representations carry signal.
    global_groups / momentum:
        K memory groups and their gamma (paper: K = 1, gamma = 0.9).
    epochs / batch_size / lr / grad_clip:
        Outer loop settings.
    """

    hidden_dim: int = 64
    num_layers: int = 3
    readout: str = "sum"
    dropout: float = 0.0
    rff_functions: int = 5
    rff_fraction: float = 1.0
    linear_decorrelation: bool = False
    reweight_epochs: int = 20
    weight_lr: float = 0.1
    weight_l2: float = 0.05
    max_weight: float = 5.0
    warmup_fraction: float = 0.3
    global_groups: int = 1
    momentum: float = 0.9
    epochs: int = 30
    batch_size: int = 64
    lr: float = 1e-3
    weight_decay: float = 0.0
    grad_clip: float = 5.0


class OODGNN(GraphClassifier):
    """GIN encoder + MLP head, trained with decorrelating sample weights.

    Structurally identical to the GIN baseline — the paper's point is that
    the gains come from the reweighting objective, not extra capacity
    (Section 4.8 parameter counts).  Other backbones train through the
    ERM :class:`~repro.training.trainer.Trainer`.
    """

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator, config: OODGNNConfig | None = None):
        config = config or OODGNNConfig()
        encoder = StackedEncoder(
            in_dim,
            config.hidden_dim,
            config.num_layers,
            lambda i, o: GINConv(i, o, rng),
            rng,
            readout=config.readout,
            dropout=config.dropout,
            batch_norm=False,  # GINConv MLPs already batch-normalise
        )
        super().__init__(encoder, out_dim, rng)
        self.config = config


@dataclass
class OODGNNHistory:
    """Training records used by the Figure 3/4 reproductions."""

    train_loss: list = field(default_factory=list)          # weighted loss per epoch
    decorrelation_loss: list = field(default_factory=list)  # mean final inner loss per epoch
    valid_metric: list = field(default_factory=list)
    final_weights: np.ndarray | None = None                 # last epoch's learned local weights
    weight_snapshots: list = field(default_factory=list)    # all local weights of the last epoch
    best_state: tuple | None = None                         # (parameters, buffers) of the best epoch
    best_metric: float | None = None


class OODGNNTrainer:
    """Algorithm 1: iterative optimisation of weights, encoder, classifier.

    One epoch loop serves both entry points: :meth:`fit` runs it on this
    trainer's model as a stack of one seed, :meth:`fit_many` on K seeds.
    """

    def __init__(
        self,
        model: OODGNN | None,
        task_type: str,
        rng: np.random.Generator,
        metric: str = "accuracy",
        config: OODGNNConfig | None = None,
    ):
        if model is None and config is None:
            raise ValueError("need an explicit config when no model is given")
        self.model = model
        self.task_type = task_type
        self.rng = rng
        self.metric = metric
        self.config = config or model.config
        # This integers() draw seeds fit's random features; fit_many skips
        # the same draw on its copy of the rng.
        self.weight_learner, self.estimator = self._components(np.random.default_rng(rng.integers(2**31)))

    def _components(self, rff_rng: np.random.Generator):
        """A weight learner drawing its random features from ``rff_rng``, and an empty global memory."""
        cfg = self.config
        rff = RandomFourierFeatures(
            num_functions=cfg.rff_functions,
            fraction=cfg.rff_fraction,
            linear=cfg.linear_decorrelation,
            rng=rff_rng,
        )
        learner = SampleWeightLearner(
            rff,
            epochs=cfg.reweight_epochs,
            lr=cfg.weight_lr,
            l2_penalty=cfg.weight_l2,
            max_weight=cfg.max_weight,
        )
        return learner, GlobalLocalWeightEstimator(cfg.global_groups, cfg.momentum)

    def fit(self, train_graphs: list[Graph], valid_graphs: list[Graph] | None = None, eval_every: int = 0) -> OODGNNHistory:
        """Run Algorithm 1 for ``config.epochs`` epochs.

        The K = 1 case of the seed-stacked loop: this trainer's model, rng,
        weight learner and global memory are its one seed.  Each call
        starts from a fresh Adam state.
        """
        (history,) = self._fit_stacked(
            [self.model], [(self.weight_learner, self.estimator)],
            train_graphs, valid_graphs, eval_every, self.rng,
        )
        return history

    def fit_many(
        self,
        train_graphs: list[Graph],
        valid_graphs: list[Graph] | None = None,
        eval_every: int = 0,
        *,
        seeds,
        model_factory,
        batched: bool = True,
    ) -> MultiSeedResult:
        """Run Algorithm 1 for K seeds over a shared mini-batch stream.

        With ``batched=True`` the K encoders/classifiers train as one
        seed-stacked job: line 3's representations and line 9's weighted
        back-propagation are evaluated once over ``(K, |B|, d)`` stacks,
        and lines 4-8 run as one seed-batched closed-form inner loop over
        the stacked representations
        (:func:`repro.core.decorrelation.learn_many`) — Algorithm 1
        vectorised across seeds end-to-end.  ``batched=False`` is the
        sequential parity reference: K runs of the same loop at K = 1,
        each on a copy of the batched run's shuffle stream and on its
        seed's own RFF stream (``seeded_rng(seed, "multiseed-rff")``) and
        global memory.  Both give the same bytes.  A factory whose models
        have no seed-stacked variant raises
        :class:`~repro.nn.layers.SeedStackingError`.
        """
        seeds = tuple(seeds)
        if not seeds:
            raise ValueError("need at least one seed")
        models = [model_factory(seed) for seed in seeds]
        rng = copy.deepcopy(self.rng)
        # Skip the draw __init__ seeds fit's random features with: the seeds
        # draw theirs from seeded_rng, and the skip keeps every seed group's
        # shuffle stream as it was.
        rng.integers(2**31)
        components = [self._components(seeded_rng(seed, "multiseed-rff")) for seed in seeds]
        if batched:
            histories = self._fit_stacked(models, components, train_graphs, valid_graphs, eval_every, rng)
        else:
            histories = [
                self._fit_stacked(
                    [model], [component], train_graphs, valid_graphs, eval_every, copy.deepcopy(rng)
                )[0]
                for model, component in zip(models, components)
            ]
        return MultiSeedResult(seeds=seeds, models=models, histories=histories)

    def _reweight_many(self, components, z_detached: np.ndarray):
        """Lines 4-8 for all K seeds as one seed-batched inner loop.

        Concatenates each seed's global memory over its local stack row
        (Eq. (8) per seed) and hands the ``(K, n, d)`` stack to
        :func:`learn_many`.  The estimators update in lockstep (same
        batches, same group count), so the fixed global row count is
        uniform across seeds — asserted here because the stacked loop
        cannot express ragged fixed blocks.
        """
        z_hats, w_globals = [], []
        for k, (_learner, estimator) in enumerate(components):
            z_hat, w_global = estimator.concat(z_detached[k], np.ones(len(z_detached[k])))
            z_hats.append(z_hat)
            w_globals.append(w_global)
        if w_globals[0] is None:
            assert all(w is None for w in w_globals), "global memories out of lockstep"
            fixed = None
        else:
            fixed = np.stack(w_globals)
        learners = [learner for learner, _estimator in components]
        return learn_many(learners, np.stack(z_hats), fixed_weights=fixed)

    def _fit_stacked(self, models, components, train_graphs, valid_graphs, eval_every, rng) -> list[OODGNNHistory]:
        """Algorithm 1 on the seed stack of ``models``; one history per seed.

        ``components[k]`` is seed k's (weight learner, global memory) and
        ``rng`` shuffles the shared mini-batch stream.  Each model ends
        with its seed's trained parameters and batch-norm statistics, or
        with its best validation epoch's when ``eval_every`` selects one.
        """
        cfg = self.config
        num_seeds = len(models)
        stacked = stack_seed_modules(models)
        params = stacked.parameters()
        optimizer = Adam(params, lr=cfg.lr, weight_decay=cfg.weight_decay)
        histories = [OODGNNHistory() for _ in models]
        warmup_epochs = int(round(cfg.warmup_fraction * cfg.epochs))
        for epoch in range(cfg.epochs):
            epoch_losses, epoch_decorr, epoch_weights = [], [], []
            last_epoch = epoch == cfg.epochs - 1
            warming_up = epoch < warmup_epochs
            for batch in iterate_minibatches(train_graphs, cfg.batch_size, rng=rng, drop_last=True):
                # Line 3: local representations Z^(l), (K, |B|, d), tape kept for Eq. 11.
                z = stacked.representations(batch)
                # Lines 4-8: learn sample weights on detached representations
                # (uniform during warmup — an untrained encoder's
                # representations carry no dependence structure to remove).
                weights = np.empty((num_seeds, batch.num_graphs))
                decorr = np.empty(num_seeds)
                if warming_up:
                    weights[:] = 1.0
                    for k, (learner, _estimator) in enumerate(components):
                        decorr[k] = learner.decorrelation_loss(z.data[k], weights[k])
                else:
                    results = self._reweight_many(components, z.data)
                    for k, result in enumerate(results):
                        weights[k] = result.weights
                        decorr[k] = result.final_loss
                # Line 9: weighted prediction loss, back-propagation.
                logits = stacked.head(z)
                optimizer.zero_grad()
                total, per_seed = seed_prediction_loss(
                    logits, batch.y, self.task_type, weights=Tensor(weights)
                )
                total.backward()
                clip_grad_norm_per_seed(params, cfg.grad_clip)
                optimizer.step()
                # Line 10: momentum update of the global memories.
                for k, (_learner, estimator) in enumerate(components):
                    estimator.update(z.data[k], weights[k])
                epoch_losses.append(per_seed)
                epoch_decorr.append(decorr)
                if last_epoch:
                    epoch_weights.append(weights)
            loss_means = np.mean(epoch_losses, axis=0)
            decorr_means = np.mean(epoch_decorr, axis=0)
            for k, history in enumerate(histories):
                history.train_loss.append(float(loss_means[k]))
                history.decorrelation_loss.append(float(decorr_means[k]))
            if last_epoch and epoch_weights:
                for k, history in enumerate(histories):
                    history.weight_snapshots = [w[k] for w in epoch_weights]
                    history.final_weights = np.concatenate(history.weight_snapshots)
            if valid_graphs and eval_every and (epoch + 1) % eval_every == 0:
                scores = evaluate_model_per_seed(stacked, valid_graphs, self.metric)
                for k, (model, history) in enumerate(zip(models, histories)):
                    sync_seed(stacked, k, model)
                    record_validation(history, scores[k], self.metric, model)
        for k, (model, history) in enumerate(zip(models, histories)):
            sync_seed(stacked, k, model)
            restore_best(model, history)
        return histories

    def evaluate(self, graphs: list[Graph], metric: str | None = None) -> float:
        """Metric of the trained model (testing stage uses Phi*, R* as-is)."""
        return evaluate_model(self.model, graphs, metric or self.metric)
