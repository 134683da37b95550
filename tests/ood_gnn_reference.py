"""Test-side oracle: Algorithm 1's outer loop on a plain, unstacked model.

``repro.core.ood_gnn.OODGNNTrainer.fit`` runs Algorithm 1 as the K = 1
case of the seed-stacked loop.  :func:`plain_fit` runs the same epochs on
the trainer's own model, step by step: ``weighted_prediction_loss`` on
``(|B|, out)`` logits, ``clip_grad_norm`` over the plain parameters, an
``Adam`` over them, one ``SampleWeightLearner.learn`` per batch and
``evaluate_model`` for model selection.  Nothing in ``src/`` calls it;
``test_ood_gnn.py`` holds ``fit`` to it bit for bit.

It consumes the trainer's rng, weight learner and global memory, so an
identically built trainer gives both sides the same batches and features.
"""

from __future__ import annotations

import numpy as np

from repro.autograd.tensor import Tensor
from repro.core.ood_gnn import OODGNNHistory
from repro.nn.losses import weighted_prediction_loss
from repro.nn.optim import Adam, clip_grad_norm
from repro.training.loop import evaluate_model, iterate_minibatches


def plain_fit(trainer, train_graphs, valid_graphs=None, eval_every=0) -> OODGNNHistory:
    """Algorithm 1 for ``trainer.config.epochs`` epochs on ``trainer.model``."""
    cfg, model = trainer.config, trainer.model
    optimizer = Adam(model.parameters(), lr=cfg.lr, weight_decay=cfg.weight_decay)
    history = OODGNNHistory()
    warmup_epochs = int(round(cfg.warmup_fraction * cfg.epochs))
    for epoch in range(cfg.epochs):
        epoch_losses, epoch_decorr, epoch_weights = [], [], []
        last_epoch = epoch == cfg.epochs - 1
        for batch in iterate_minibatches(train_graphs, cfg.batch_size, rng=trainer.rng, drop_last=True):
            z = model.representations(batch)
            if epoch < warmup_epochs:
                weights = np.ones(batch.num_graphs)
                decorr_loss = trainer.weight_learner.decorrelation_loss(z.data, weights)
            else:
                z_hat, w_global = trainer.estimator.concat(z.data, np.ones(len(z.data)))
                result = trainer.weight_learner.learn(z_hat, fixed_weights=w_global)
                weights, decorr_loss = result.weights, result.final_loss
            logits = model.head(z)
            optimizer.zero_grad()
            loss = weighted_prediction_loss(logits, batch.y, trainer.task_type, weights=Tensor(weights))
            loss.backward()
            clip_grad_norm(model.parameters(), cfg.grad_clip)
            optimizer.step()
            trainer.estimator.update(z.data, weights)
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
            score = evaluate_model(model, valid_graphs, trainer.metric)
            history.valid_metric.append(score)
            best = history.best_metric
            if best is None or (score < best if trainer.metric == "rmse" else score > best):
                history.best_metric = score
                history.best_state = (model.state_dict(), model.buffer_dict())
    if history.best_state is not None:
        parameters, buffers = history.best_state
        model.load_state_dict(parameters)
        model.load_buffer_dict(buffers)
    return history
