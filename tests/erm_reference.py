"""Test-side oracle: the ERM epoch loop on a plain, unstacked model.

``repro.training.trainer.Trainer.fit`` trains as the K = 1 case of the
seed-stacked loop.  :func:`plain_fit` runs the same epochs on the
trainer's own model, step by step: ``weighted_prediction_loss`` on
``(|B|, out)`` logits, ``clip_grad_norm`` over the plain parameters, an
``Adam`` over them and ``evaluate_model`` for model selection.  Nothing in
``src/`` calls it; ``test_trainer.py`` holds ``fit`` to it bit for bit.

It shuffles with the trainer's rng, so an identically built trainer gives
both sides the same batches.
"""

from __future__ import annotations

import numpy as np

from repro.nn.losses import weighted_prediction_loss
from repro.nn.optim import Adam, clip_grad_norm
from repro.training.loop import evaluate_model, iterate_minibatches
from repro.training.trainer import TrainingHistory, record_validation, restore_best


def plain_fit(trainer, train_graphs, valid_graphs=None) -> TrainingHistory:
    """ERM for ``trainer.config.epochs`` epochs on ``trainer.model``."""
    cfg, model = trainer.config, trainer.model
    optimizer = Adam(model.parameters(), lr=cfg.lr, weight_decay=cfg.weight_decay)
    history = TrainingHistory()
    for epoch in range(cfg.epochs):
        epoch_losses = []
        for batch in iterate_minibatches(train_graphs, cfg.batch_size, rng=trainer.rng):
            optimizer.zero_grad()
            loss = weighted_prediction_loss(model(batch), batch.y, trainer.task_type)
            loss.backward()
            clip_grad_norm(model.parameters(), cfg.grad_clip)
            optimizer.step()
            epoch_losses.append(float(loss.data))
        history.train_loss.append(float(np.mean(epoch_losses)))
        if valid_graphs and cfg.eval_every and (epoch + 1) % cfg.eval_every == 0:
            score = evaluate_model(model, valid_graphs, trainer.metric)
            record_validation(history, score, trainer.metric, model)
    restore_best(model, history)
    return history
