"""OOD-GNN: model assembly and the Algorithm-1 training procedure.

The model is a GIN encoder (the paper's backbone choice, Section 4.1.3)
with a two-layer MLP classifier.  Training alternates:

1. forward the mini-batch to get local representations ``Z^(l)``;
2. concatenate with the K global memory groups (Eq. (8));
3. inner loop — learn local sample weights minimising the RFF
   decorrelation loss while global weights stay fixed (Eq. (10));
4. back-propagate the *weighted* prediction loss (Eq. (11));
5. momentum-update the global memory (Eq. (9)).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from repro.autograd.tensor import Tensor
from repro.graph.data import Graph
from repro.nn.layers import try_stack_seed_modules
from repro.nn.losses import weighted_prediction_loss, seed_prediction_loss
from repro.nn.optim import Adam, clip_grad_norm, clip_grad_norm_per_seed
from repro.encoders.base import StackedEncoder, GraphEncoder
from repro.encoders.conv import GINConv
from repro.encoders.models import GraphClassifier
from repro.core.rff import RandomFourierFeatures
from repro.core.decorrelation import SampleWeightLearner, learn_many
from repro.core.global_local import GlobalLocalWeightEstimator
from repro.training.loop import iterate_minibatches, evaluate_model, evaluate_model_per_seed
from repro.training.seed import seeded_rng
from repro.training.trainer import MultiSeedResult

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
        ``Epoch_Reweight`` (paper default 20).
    reweight_backend:
        Engine for the inner weight loop: ``"fused"`` (closed-form numpy,
        default — see :mod:`repro.core.fused`) or ``"autograd"`` (taped
        reference).  Numerically equivalent to ~1e-8 per step; the fused
        engine is several times faster (``benchmarks/bench_reweight_speed``).
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
    reweight_backend: str = "fused"
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
    (Section 4.8 parameter counts).
    """

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        rng: np.random.Generator,
        config: OODGNNConfig | None = None,
        encoder: GraphEncoder | None = None,
    ):
        config = config or OODGNNConfig()
        if encoder is None:
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
    best_state: dict | None = None
    best_metric: float | None = None


class OODGNNTrainer:
    """Algorithm 1: iterative optimisation of weights, encoder, classifier."""

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
        cfg = self.config
        self.optimizer = (
            Adam(model.parameters(), lr=cfg.lr, weight_decay=cfg.weight_decay)
            if model is not None
            else None
        )
        # NOTE: this integers() draw advances the trainer rng; the batched
        # multi-seed path replays it so its shuffle stream stays aligned
        # with sequential trainers built from rng copies.
        rff = RandomFourierFeatures(
            num_functions=cfg.rff_functions,
            fraction=cfg.rff_fraction,
            linear=cfg.linear_decorrelation,
            rng=np.random.default_rng(rng.integers(2**31)),
        )
        self.weight_learner = SampleWeightLearner(
            rff,
            epochs=cfg.reweight_epochs,
            lr=cfg.weight_lr,
            l2_penalty=cfg.weight_l2,
            max_weight=cfg.max_weight,
            backend=cfg.reweight_backend,
        )
        self.estimator = GlobalLocalWeightEstimator(cfg.global_groups, cfg.momentum)

    def _reweight(self, z_local: np.ndarray):
        """Lines 4-8 of Algorithm 1: learn local weights for this batch."""
        z_hat, w_global = self.estimator.concat(z_local, np.ones(len(z_local)))
        return self.weight_learner.learn(z_hat, fixed_weights=w_global)

    def fit(self, train_graphs: list[Graph], valid_graphs: list[Graph] | None = None, eval_every: int = 0) -> OODGNNHistory:
        """Run Algorithm 1 for ``config.epochs`` epochs."""
        cfg = self.config
        history = OODGNNHistory()
        higher_is_better = self.metric != "rmse"
        warmup_epochs = int(round(cfg.warmup_fraction * cfg.epochs))
        for epoch in range(cfg.epochs):
            epoch_losses, epoch_decorr, epoch_weights = [], [], []
            last_epoch = epoch == cfg.epochs - 1
            warming_up = epoch < warmup_epochs
            for batch in iterate_minibatches(train_graphs, cfg.batch_size, rng=self.rng, drop_last=True):
                # Line 3: local representations Z^(l) (tape kept for Eq. 11).
                z = self.model.representations(batch)
                # Lines 4-8: learn sample weights on detached representations
                # (uniform during warmup — an untrained encoder's
                # representations carry no dependence structure to remove).
                if warming_up:
                    weights = np.ones(batch.num_graphs)
                    decorr_loss = float(
                        self.weight_learner.decorrelation_loss(z.data, Tensor(weights)).data
                    )
                else:
                    result = self._reweight(z.data)
                    weights = result.weights
                    decorr_loss = result.final_loss
                # Line 9: weighted prediction loss, back-propagation.
                logits = self.model.head(z)
                self.optimizer.zero_grad()
                loss = weighted_prediction_loss(logits, batch.y, self.task_type, weights=Tensor(weights))
                loss.backward()
                clip_grad_norm(self.model.parameters(), cfg.grad_clip)
                self.optimizer.step()
                # Line 10: momentum update of the global memory.
                self.estimator.update(z.data, weights)
                epoch_losses.append(float(loss.data))
                epoch_decorr.append(decorr_loss)
                if last_epoch:
                    epoch_weights.append(weights)
            history.train_loss.append(float(np.mean(epoch_losses)))
            history.decorrelation_loss.append(float(np.mean(epoch_decorr)))
            if last_epoch and epoch_weights:
                history.weight_snapshots = epoch_weights
                history.final_weights = np.concatenate(epoch_weights)
            if valid_graphs and eval_every and (epoch + 1) % eval_every == 0:
                score = evaluate_model(self.model, valid_graphs, self.metric)
                history.valid_metric.append(score)
                improved = (
                    history.best_metric is None
                    or (higher_is_better and score > history.best_metric)
                    or (not higher_is_better and score < history.best_metric)
                )
                if improved:
                    history.best_metric = score
                    history.best_state = self.model.state_dict()
        if history.best_state is not None:
            self.model.load_state_dict(history.best_state)
        return history

    # ------------------------------------------------------------------
    # Batched multi-seed training (see docs/ARCHITECTURE.md)
    # ------------------------------------------------------------------
    def _seed_components(self, seed: int):
        """Per-seed weight learner + global memory, seeded independently.

        Both the batched and the sequential-parity paths of
        :meth:`fit_many` derive the per-seed RFF streams from
        ``seeded_rng(seed, "multiseed-rff")`` so their inner loops see the
        same random features.
        """
        cfg = self.config
        rff = RandomFourierFeatures(
            num_functions=cfg.rff_functions,
            fraction=cfg.rff_fraction,
            linear=cfg.linear_decorrelation,
            rng=seeded_rng(seed, "multiseed-rff"),
        )
        learner = SampleWeightLearner(
            rff,
            epochs=cfg.reweight_epochs,
            lr=cfg.weight_lr,
            l2_penalty=cfg.weight_l2,
            max_weight=cfg.max_weight,
            backend=cfg.reweight_backend,
        )
        estimator = GlobalLocalWeightEstimator(cfg.global_groups, cfg.momentum)
        return learner, estimator

    def fit_many(
        self,
        train_graphs: list[Graph],
        valid_graphs: list[Graph] | None = None,
        eval_every: int = 0,
        *,
        seeds,
        model_factory,
        batched: bool = True,
        batched_reweight: bool = True,
    ) -> MultiSeedResult:
        """Run Algorithm 1 for K seeds over a shared mini-batch stream.

        With ``batched=True`` the K encoders/classifiers train as one
        seed-stacked job: line 3's representations and line 9's weighted
        back-propagation are evaluated once over ``(K, |B|, d)`` stacks,
        and (with ``batched_reweight=True``, the default) lines 4-8 run
        as one seed-batched closed-form inner loop over the stacked
        representations (:func:`repro.core.decorrelation.learn_many`) —
        Algorithm 1 vectorised across seeds end-to-end.
        ``batched_reweight=False`` is the escape hatch that keeps the
        encoder stacked but runs the K inner weight loops sequentially
        per batch (one fused loop per seed, the pre-vectorisation
        behaviour and the parity reference for the batched inner loop).
        ``batched=False`` is the fully sequential parity reference: K
        plain :meth:`fit` runs whose shuffle streams and per-seed RFF
        streams are copied from the same sources the batched path uses.
        Models without a seed-stacked variant downgrade to the sequential
        path with a one-time ``RuntimeWarning``.
        """
        seeds = tuple(seeds)
        if not seeds:
            raise ValueError("need at least one seed")
        models = [model_factory(seed) for seed in seeds]
        base_rng = copy.deepcopy(self.rng)
        stacked = try_stack_seed_modules(models) if batched else None
        if stacked is None:
            histories = []
            for seed, model in zip(seeds, models):
                sub = OODGNNTrainer(
                    model, self.task_type, copy.deepcopy(base_rng), metric=self.metric, config=self.config
                )
                sub.weight_learner, sub.estimator = self._seed_components(seed)
                histories.append(sub.fit(train_graphs, valid_graphs, eval_every=eval_every))
            return MultiSeedResult(seeds=seeds, models=models, histories=histories)
        return self._fit_many_batched(
            stacked, models, seeds, train_graphs, valid_graphs, eval_every,
            copy.deepcopy(base_rng), batched_reweight,
        )

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

    def _fit_many_batched(
        self, stacked, models, seeds, train_graphs, valid_graphs, eval_every, rng,
        batched_reweight: bool = True,
    ) -> MultiSeedResult:
        cfg = self.config
        num_seeds = len(models)
        # Replay the rff-seeding draw the sequential OODGNNTrainer.__init__
        # makes, so both paths shuffle mini-batches from the same stream.
        rng.integers(2**31)
        components = [self._seed_components(seed) for seed in seeds]
        params = stacked.parameters()
        optimizer = Adam(params, lr=cfg.lr, weight_decay=cfg.weight_decay)
        histories = [OODGNNHistory() for _ in models]
        higher_is_better = self.metric != "rmse"
        warmup_epochs = int(round(cfg.warmup_fraction * cfg.epochs))
        for epoch in range(cfg.epochs):
            epoch_losses, epoch_decorr, epoch_weights = [], [], []
            last_epoch = epoch == cfg.epochs - 1
            warming_up = epoch < warmup_epochs
            for batch in iterate_minibatches(train_graphs, cfg.batch_size, rng=rng, drop_last=True):
                z = stacked.representations(batch)                       # (K, |B|, d)
                weights = np.empty((num_seeds, batch.num_graphs))
                decorr = np.empty(num_seeds)
                if warming_up:
                    weights[:] = 1.0
                    for k, (learner, _estimator) in enumerate(components):
                        decorr[k] = float(
                            learner.decorrelation_loss(z.data[k], Tensor(weights[k])).data
                        )
                elif batched_reweight:
                    results = self._reweight_many(components, z.data)
                    for k, result in enumerate(results):
                        weights[k] = result.weights
                        decorr[k] = result.final_loss
                else:
                    for k, (learner, estimator) in enumerate(components):
                        z_k = z.data[k]
                        z_hat, w_global = estimator.concat(z_k, np.ones(len(z_k)))
                        result = learner.learn(z_hat, fixed_weights=w_global)
                        weights[k] = result.weights
                        decorr[k] = result.final_loss
                logits = stacked.head(z)
                optimizer.zero_grad()
                total, per_seed = seed_prediction_loss(
                    logits, batch.y, self.task_type, weights=Tensor(weights)
                )
                total.backward()
                clip_grad_norm_per_seed(params, cfg.grad_clip)
                optimizer.step()
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
                for k, history in enumerate(histories):
                    history.valid_metric.append(scores[k])
                    improved = (
                        history.best_metric is None
                        or (higher_is_better and scores[k] > history.best_metric)
                        or (not higher_is_better and scores[k] < history.best_metric)
                    )
                    if improved:
                        history.best_metric = scores[k]
                        history.best_state = stacked.seed_state_dict(k)
        for k, (model, history) in enumerate(zip(models, histories)):
            stacked.sync_into(k, model)
            if history.best_state is not None:
                model.load_state_dict(history.best_state)
        return MultiSeedResult(seeds=seeds, models=models, histories=histories)

    def evaluate(self, graphs: list[Graph], metric: str | None = None) -> float:
        """Metric of the trained model (testing stage uses Phi*, R* as-is)."""
        return evaluate_model(self.model, graphs, metric or self.metric)

    def export_artifact(self, path, schema, spec=None, metadata: dict | None = None):
        """Save the trained OOD-GNN as a deployable serving artifact.

        The :class:`~repro.serve.artifact.ModelSpec` is derived from the
        trainer's config when not given explicitly (the architecture is
        fully determined by ``hidden_dim`` / ``num_layers`` / ``readout``
        / ``dropout``); ``schema`` is the dataset's
        :class:`~repro.serve.artifact.FeatureSchema`.  Returns the path
        written.
        """
        from repro.serve.artifact import ModelArtifact, ModelSpec

        if self.model is None:
            raise ValueError("trainer has no model to export (fit_many results export via MultiSeedResult)")
        if spec is None:
            spec = ModelSpec.for_ood_gnn(self.config)
        return ModelArtifact.from_model(self.model, spec, schema, metadata=metadata).save(path)
