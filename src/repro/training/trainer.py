"""Generic supervised trainer for the baseline models.

Trains any :class:`~repro.encoders.models.GraphClassifier` with the plain
(unweighted) prediction loss — the ERM setup every baseline in Tables 2-4
uses.  The OOD-GNN trainer in :mod:`repro.core.ood_gnn` extends this loop
with sample reweighting.

:meth:`Trainer.fit_many` is the batched multi-seed engine (see
``docs/ARCHITECTURE.md``): K independently initialised models train as one
vectorised job — parameters stacked along a leading seed axis, every
forward/backward evaluated once over seed-leading ``(K, n, h)``
activations — with a parity guarantee against K sequential
:meth:`Trainer.fit` runs that share the same mini-batch stream.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace

import numpy as np

from repro.graph.data import Graph
from repro.nn.layers import try_stack_seed_modules
from repro.nn.losses import weighted_prediction_loss, seed_prediction_loss
from repro.nn.optim import Adam, clip_grad_norm, clip_grad_norm_per_seed
from repro.obs.registry import registry
from repro.obs.trace import span
from repro.training.loop import iterate_minibatches, evaluate_model, evaluate_model_per_seed

# Sampled once per epoch / per fit call — far off the per-batch hot path.
_TRAIN_EPOCHS = registry.counter(
    "repro_train_epochs_total",
    "Training epochs completed, by path (sequential / seed_batched)",
    ("path",),
)
_TRAIN_BATCHES = registry.counter(
    "repro_train_batches_total",
    "Mini-batch optimisation steps taken, by path",
    ("path",),
)
_TRAIN_SECONDS = registry.counter(
    "repro_train_seconds_total",
    "Wall seconds inside fit/fit_many epoch loops, by path",
    ("path",),
)

__all__ = ["Trainer", "TrainerConfig", "TrainingHistory", "MultiSeedResult"]


@dataclass
class TrainerConfig:
    """Hyper-parameters of the outer training loop.

    Defaults follow the paper's implementation details scaled to this
    substrate: Adam, lr in {1e-4, 1e-3}, batch size in {64, 128, 256},
    100 epochs (benches use fewer).
    """

    epochs: int = 30
    batch_size: int = 64
    lr: float = 1e-3
    weight_decay: float = 0.0
    grad_clip: float = 5.0
    eval_every: int = 0          # 0 = only record train loss
    patience: int = 0            # 0 = no early stopping
    verbose: bool = False


@dataclass
class TrainingHistory:
    """Per-epoch records produced by a training run."""

    train_loss: list = field(default_factory=list)
    valid_metric: list = field(default_factory=list)
    best_state: dict | None = None
    best_metric: float | None = None


@dataclass
class MultiSeedResult:
    """Outcome of a multi-seed training job (batched or sequential).

    Attributes
    ----------
    seeds:
        The seeds, in order.
    models:
        Per-seed models carrying the final (best, when validation model
        selection ran) parameters — and, for batched runs, the per-seed
        batch-norm statistics synced back from the stacked model.
    histories:
        One per-seed history (:class:`TrainingHistory` or the OOD-GNN
        variant), index-aligned with ``seeds``.
    """

    seeds: tuple
    models: list
    histories: list

    def export_artifact(self, path, spec, schema, metadata: dict | None = None):
        """Save the whole roster as one seed-ensemble serving artifact.

        ``spec``/``schema`` are a :class:`~repro.serve.artifact.ModelSpec`
        and :class:`~repro.serve.artifact.FeatureSchema`; the saved bundle
        serves via :class:`repro.serve.InferenceEngine` (seed-averaged
        predictions).  Returns the path written.
        """
        from repro.serve.artifact import ModelArtifact

        artifact = ModelArtifact.from_models(
            self.models, spec, schema, seeds=self.seeds, metadata=metadata
        )
        return artifact.save(path)


class Trainer:
    """ERM trainer: minimise the unweighted prediction loss.

    Parameters
    ----------
    model:
        A :class:`GraphClassifier` (or anything with the same interface).
        May be ``None`` when the trainer is only used for
        :meth:`fit_many`, which builds its models from a factory.
    task_type:
        ``"multiclass"``, ``"binary"`` or ``"regression"`` (Table 1).
    metric:
        Name for validation tracking (``accuracy`` / ``rocauc`` / ``rmse``).
    """

    def __init__(self, model, task_type: str, config: TrainerConfig, rng: np.random.Generator, metric: str = "accuracy"):
        self.model = model
        self.task_type = task_type
        self.config = config
        self.rng = rng
        self.metric = metric
        self.optimizer = (
            Adam(model.parameters(), lr=config.lr, weight_decay=config.weight_decay)
            if model is not None
            else None
        )

    def _batch_loss(self, batch):
        logits = self.model(batch)
        return weighted_prediction_loss(logits, batch.y, self.task_type)

    def fit(self, train_graphs: list[Graph], valid_graphs: list[Graph] | None = None) -> TrainingHistory:
        """Train for ``config.epochs`` epochs; returns the loss history.

        When validation graphs and ``eval_every`` are provided, tracks the
        best validation metric and snapshots the best parameters (restored
        at the end, the usual model-selection protocol).
        """
        cfg = self.config
        history = TrainingHistory()
        higher_is_better = self.metric != "rmse"
        stale = 0
        for epoch in range(cfg.epochs):
            epoch_losses = []
            with span("train.epoch", path="sequential", epoch=epoch), \
                    _TRAIN_SECONDS.time(path="sequential"):
                for batch in iterate_minibatches(train_graphs, cfg.batch_size, rng=self.rng):
                    self.optimizer.zero_grad()
                    loss = self._batch_loss(batch)
                    loss.backward()
                    clip_grad_norm(self.model.parameters(), cfg.grad_clip)
                    self.optimizer.step()
                    epoch_losses.append(float(loss.data))
            _TRAIN_EPOCHS.inc(path="sequential")
            _TRAIN_BATCHES.inc(len(epoch_losses), path="sequential")
            history.train_loss.append(float(np.mean(epoch_losses)))
            if valid_graphs and cfg.eval_every and (epoch + 1) % cfg.eval_every == 0:
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
                    stale = 0
                else:
                    stale += 1
                    if cfg.patience and stale >= cfg.patience:
                        break
            if cfg.verbose:
                print(f"epoch {epoch + 1:3d}  loss {history.train_loss[-1]:.4f}")
        if history.best_state is not None:
            self.model.load_state_dict(history.best_state)
        return history

    def fit_many(
        self,
        train_graphs: list[Graph],
        valid_graphs: list[Graph] | None = None,
        *,
        seeds,
        model_factory,
        batched: bool = True,
    ) -> MultiSeedResult:
        """Train one model per seed over a shared mini-batch stream.

        Parameters
        ----------
        seeds:
            Iterable of seeds; ``model_factory(seed)`` must build a fresh,
            architecturally identical model for each.
        batched:
            ``True`` (default) stacks the K models along a leading seed
            axis and trains them in one vectorised job; ``False`` runs K
            plain sequential :meth:`fit` calls — the parity reference.
            Architectures without seed-stacked variants (attention,
            virtual-node, hierarchical pooling) downgrade to the
            sequential path with a one-time ``RuntimeWarning`` naming the
            encoder.

        Both paths consume identical copies of this trainer's rng for
        mini-batch shuffling, so under deterministic settings (no dropout)
        the batched run reproduces the K sequential runs bit-for-bit: same
        batches, same per-seed losses, gradients, Adam states and clipping
        decisions.  Early stopping (``config.patience``) is disabled —
        seeds would stop at different epochs, which a single stacked job
        cannot express.
        """
        seeds = tuple(seeds)
        if not seeds:
            raise ValueError("need at least one seed")
        models = [model_factory(seed) for seed in seeds]
        base_rng = copy.deepcopy(self.rng)
        cfg = replace(self.config, patience=0)
        stacked = try_stack_seed_modules(models) if batched else None
        if stacked is None:
            histories = []
            for model in models:
                sub = Trainer(model, self.task_type, cfg, copy.deepcopy(base_rng), metric=self.metric)
                histories.append(sub.fit(train_graphs, valid_graphs))
            return MultiSeedResult(seeds=seeds, models=models, histories=histories)
        return self._fit_many_batched(
            stacked, models, seeds, cfg, train_graphs, valid_graphs, copy.deepcopy(base_rng)
        )

    def _fit_many_batched(self, stacked, models, seeds, cfg, train_graphs, valid_graphs, rng) -> MultiSeedResult:
        params = stacked.parameters()
        optimizer = Adam(params, lr=cfg.lr, weight_decay=cfg.weight_decay)
        histories = [TrainingHistory() for _ in models]
        higher_is_better = self.metric != "rmse"
        num_seeds = len(models)
        for epoch in range(cfg.epochs):
            epoch_losses = []  # one (K,) row per batch
            with span("train.epoch", path="seed_batched", epoch=epoch, K=num_seeds), \
                    _TRAIN_SECONDS.time(path="seed_batched"):
                for batch in iterate_minibatches(train_graphs, cfg.batch_size, rng=rng):
                    optimizer.zero_grad()
                    logits = stacked(batch)
                    total, per_seed = seed_prediction_loss(logits, batch.y, self.task_type)
                    total.backward()
                    clip_grad_norm_per_seed(params, cfg.grad_clip)
                    optimizer.step()
                    epoch_losses.append(per_seed)
            _TRAIN_EPOCHS.inc(path="seed_batched")
            _TRAIN_BATCHES.inc(len(epoch_losses), path="seed_batched")
            epoch_means = np.mean(epoch_losses, axis=0)
            for k, history in enumerate(histories):
                history.train_loss.append(float(epoch_means[k]))
            if valid_graphs and cfg.eval_every and (epoch + 1) % cfg.eval_every == 0:
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
            if cfg.verbose:
                losses = " ".join(f"{m:.4f}" for m in epoch_means)
                print(f"epoch {epoch + 1:3d}  loss [{losses}]")
        for k, (model, history) in enumerate(zip(models, histories)):
            stacked.sync_into(k, model)
            if history.best_state is not None:
                model.load_state_dict(history.best_state)
        return MultiSeedResult(seeds=seeds, models=models, histories=histories)

    def evaluate(self, graphs: list[Graph], metric: str | None = None) -> float:
        """Metric of the current model on ``graphs``."""
        return evaluate_model(self.model, graphs, metric or self.metric)

    def export_artifact(self, path, spec, schema, metadata: dict | None = None):
        """Save the trained model as a deployable serving artifact.

        ``spec`` is the :class:`~repro.serve.artifact.ModelSpec` the model
        was built from, ``schema`` the dataset's
        :class:`~repro.serve.artifact.FeatureSchema` — together they let
        ``python -m repro.serve`` rebuild and serve the model without any
        user code.  Returns the path written.
        """
        from repro.serve.artifact import ModelArtifact

        if self.model is None:
            raise ValueError("trainer has no model to export (fit_many results export via MultiSeedResult)")
        return ModelArtifact.from_model(self.model, spec, schema, metadata=metadata).save(path)
