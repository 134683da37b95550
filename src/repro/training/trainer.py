"""Generic supervised trainer for the baseline models.

Trains any :class:`~repro.encoders.models.GraphClassifier` with the plain
(unweighted) prediction loss — the ERM setup every baseline in Tables 2-4
uses.  The OOD-GNN trainer in :mod:`repro.core.ood_gnn` extends this loop
with sample reweighting.

One epoch loop serves both entry points (see ``docs/ARCHITECTURE.md``):
it trains a seed stack, with parameters stacked along a leading seed axis
and every forward/backward evaluated once over seed-leading ``(K, n, h)``
activations.  :meth:`Trainer.fit` runs it on one model at K = 1 and
:meth:`Trainer.fit_many` on K seeds; seed k of a stack trains bit for
bit as its own :meth:`Trainer.fit` over the same mini-batch stream would.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from repro.graph.data import Graph
from repro.nn.layers import stack_seed_modules
from repro.nn.losses import seed_prediction_loss
from repro.nn.optim import Adam, clip_grad_norm_per_seed
from repro.obs.registry import registry
from repro.obs.trace import span
from repro.training.loop import iterate_minibatches, evaluate_model, evaluate_model_per_seed

# Sampled once per epoch / per fit call — far off the per-batch hot path.
_TRAIN_EPOCHS = registry.counter("repro_train_epochs_total", "Training epochs completed")
_TRAIN_BATCHES = registry.counter("repro_train_batches_total", "Mini-batch optimisation steps taken")
_TRAIN_SECONDS = registry.counter(
    "repro_train_seconds_total", "Wall seconds inside fit/fit_many epoch loops"
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


@dataclass
class TrainingHistory:
    """Per-epoch records produced by a training run."""

    train_loss: list = field(default_factory=list)
    valid_metric: list = field(default_factory=list)
    best_state: tuple | None = None   # (parameters, buffers) of the best validation epoch
    best_metric: float | None = None


def record_validation(history, score: float, metric: str, model) -> None:
    """Append a validation score; snapshot ``model`` if it is the best so far.

    ``rmse`` improves downwards, every other metric upwards.  The snapshot
    holds the buffers as well as the parameters: batch-norm running
    statistics move at every training step, and the restored model must
    be the one that scored ``best_metric``.
    """
    history.valid_metric.append(score)
    best = history.best_metric
    if best is None or (score < best if metric == "rmse" else score > best):
        history.best_metric = score
        history.best_state = (model.state_dict(), model.buffer_dict())


def restore_best(model, history) -> None:
    """Load the snapshot :func:`record_validation` kept, if it kept one."""
    if history.best_state is not None:
        parameters, buffers = history.best_state
        model.load_state_dict(parameters)
        model.load_buffer_dict(buffers)


@dataclass
class MultiSeedResult:
    """Outcome of a ``fit_many`` job (batched or sequential).

    Bundle ``models`` for serving with
    :meth:`~repro.serve.artifact.ModelArtifact.from_models`.

    Attributes
    ----------
    seeds:
        The seeds, in order.
    models:
        Per-seed models carrying the final (best, when validation model
        selection ran) parameters and batch-norm statistics, synced back
        from the seed stack they trained in.
    histories:
        One per-seed history (:class:`TrainingHistory` or the OOD-GNN
        variant), index-aligned with ``seeds``.
    """

    seeds: tuple
    models: list
    histories: list


class Trainer:
    """ERM trainer: minimise the unweighted prediction loss.

    Parameters
    ----------
    model:
        A :class:`GraphClassifier`, or any model
        :func:`~repro.nn.layers.stack_seed_modules` can stack.  May be
        ``None`` when the trainer is only used for :meth:`fit_many`, which
        builds its models from a factory.
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

    def fit(self, train_graphs: list[Graph], valid_graphs: list[Graph] | None = None) -> TrainingHistory:
        """Train for ``config.epochs`` epochs; returns the loss history.

        The K = 1 case of the seed-stacked loop: this trainer's model and
        rng are its one seed.  Each call starts from a fresh Adam state.
        When validation graphs and ``eval_every`` are provided, tracks the
        best validation metric and snapshots the best parameters and
        batch-norm statistics (restored at the end, the usual
        model-selection protocol).
        """
        (history,) = self._fit_stacked([self.model], train_graphs, valid_graphs, self.rng)
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
            :meth:`fit` calls — the sequential parity reference.  A
            model type with no seed stacker raises
            :class:`~repro.nn.layers.SeedStackingError` in both modes, and
            so does a batched roster whose seeds differ in depth or width.

        Both paths consume identical copies of this trainer's rng for
        mini-batch shuffling, so under deterministic settings (no dropout)
        the batched run reproduces the K sequential runs bit-for-bit: same
        batches, same per-seed losses, gradients, Adam states and clipping
        decisions.
        """
        seeds = tuple(seeds)
        if not seeds:
            raise ValueError("need at least one seed")
        models = [model_factory(seed) for seed in seeds]
        if batched:
            histories = self._fit_stacked(models, train_graphs, valid_graphs, copy.deepcopy(self.rng))
        else:
            histories = [
                self._fit_stacked([model], train_graphs, valid_graphs, copy.deepcopy(self.rng))[0]
                for model in models
            ]
        return MultiSeedResult(seeds=seeds, models=models, histories=histories)

    def _fit_stacked(self, models, train_graphs, valid_graphs, rng) -> list[TrainingHistory]:
        """Train the seed stack of ``models``; one history per seed.

        ``rng`` shuffles the shared mini-batch stream.  Each model ends
        with its seed's trained parameters and batch-norm statistics, or
        with its best validation epoch's when ``eval_every`` selects one.
        """
        cfg = self.config
        stacked = stack_seed_modules(models)
        params = stacked.parameters()
        optimizer = Adam(params, lr=cfg.lr, weight_decay=cfg.weight_decay)
        histories = [TrainingHistory() for _ in models]
        for epoch in range(cfg.epochs):
            epoch_losses = []  # one (K,) row per batch
            with span("train.epoch", epoch=epoch, K=len(models)), _TRAIN_SECONDS.time():
                for batch in iterate_minibatches(train_graphs, cfg.batch_size, rng=rng):
                    optimizer.zero_grad()
                    logits = stacked(batch)
                    total, per_seed = seed_prediction_loss(logits, batch.y, self.task_type)
                    total.backward()
                    clip_grad_norm_per_seed(params, cfg.grad_clip)
                    optimizer.step()
                    epoch_losses.append(per_seed)
            _TRAIN_EPOCHS.inc()
            _TRAIN_BATCHES.inc(len(epoch_losses))
            epoch_means = np.mean(epoch_losses, axis=0)
            for k, history in enumerate(histories):
                history.train_loss.append(float(epoch_means[k]))
            if valid_graphs and cfg.eval_every and (epoch + 1) % cfg.eval_every == 0:
                scores = evaluate_model_per_seed(stacked, valid_graphs, self.metric)
                for k, (model, history) in enumerate(zip(models, histories)):
                    stacked.sync_into(k, model)
                    record_validation(history, scores[k], self.metric, model)
        for k, (model, history) in enumerate(zip(models, histories)):
            stacked.sync_into(k, model)
            restore_best(model, history)
        return histories

    def evaluate(self, graphs: list[Graph], metric: str | None = None) -> float:
        """Metric of the current model on ``graphs``."""
        return evaluate_model(self.model, graphs, metric or self.metric)
