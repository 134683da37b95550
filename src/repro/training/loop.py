"""Mini-batch iteration and model evaluation helpers.

Besides the single-model helpers, :func:`predict_per_seed` and
:func:`evaluate_model_per_seed` evaluate a seed-stacked model (the batched
multi-seed engine, see ``docs/ARCHITECTURE.md``) for every seed in one
forward sweep.
"""

from __future__ import annotations

import numpy as np

from repro.autograd.tensor import no_grad
from repro.graph.data import Graph, GraphBatch
from repro.training.metrics import evaluate_metric

__all__ = [
    "iterate_minibatches",
    "predict",
    "evaluate_model",
    "predict_per_seed",
    "evaluate_model_per_seed",
]


def iterate_minibatches(
    graphs: list[Graph],
    batch_size: int,
    rng: np.random.Generator | None = None,
    drop_last: bool = False,
):
    """Yield :class:`GraphBatch` mini-batches, optionally shuffled.

    With ``drop_last=True`` a trailing batch smaller than ``batch_size``
    is skipped — the OOD-GNN trainer requires constant batch sizes for its
    global memory groups — unless the whole dataset is smaller than one
    batch, in which case it is yielded as a single batch.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    order = np.arange(len(graphs))
    if rng is not None:
        rng.shuffle(order)
    if len(graphs) <= batch_size:
        yield GraphBatch.from_graphs([graphs[i] for i in order])
        return
    for start in range(0, len(graphs), batch_size):
        chunk = order[start : start + batch_size]
        if drop_last and len(chunk) < batch_size:
            break
        yield GraphBatch.from_graphs([graphs[i] for i in chunk])


def _eval_outputs(model, graphs: list[Graph], batch_size: int) -> list[np.ndarray]:
    """Per-batch eval-mode outputs; the model ends in the mode it started in."""
    was_training = model.training
    model.eval()
    outputs = []
    try:
        with no_grad():
            for batch in iterate_minibatches(graphs, batch_size):
                outputs.append(model(batch).data)
    finally:
        model.train(was_training)
    return outputs


def predict(model, graphs: list[Graph], batch_size: int = 256) -> np.ndarray:
    """Model outputs (logits / regression values) for a list of graphs."""
    return np.concatenate(_eval_outputs(model, graphs, batch_size), axis=0)


def stack_targets(graphs: list[Graph]) -> np.ndarray:
    """Labels stacked the same way :class:`GraphBatch` does."""
    return GraphBatch._stack_labels([g.y for g in graphs])


def evaluate_model(model, graphs: list[Graph], metric: str, batch_size: int = 256) -> float:
    """Metric value of ``model`` on ``graphs`` (no gradient, eval mode)."""
    outputs = predict(model, graphs, batch_size=batch_size)
    targets = stack_targets(graphs)
    if metric == "accuracy" and outputs.ndim == 2 and outputs.shape[1] == 1:
        outputs = outputs[:, 0]
    return evaluate_metric(metric, outputs, targets)


def predict_per_seed(model, graphs: list[Graph], batch_size: int = 256) -> np.ndarray:
    """Stacked outputs ``(K, n, out)`` of a seed-stacked model."""
    return np.concatenate(_eval_outputs(model, graphs, batch_size), axis=1)


def evaluate_model_per_seed(model, graphs: list[Graph], metric: str, batch_size: int = 256) -> list[float]:
    """Per-seed metric values of a seed-stacked model, one forward sweep.

    Equivalent to calling :func:`evaluate_model` on each of the K per-seed
    models, but the shared graph batching, message passing scatters and
    readouts are paid once.
    """
    outputs = predict_per_seed(model, graphs, batch_size=batch_size)
    if outputs.ndim != 3:
        raise ValueError(f"expected (K, n, out) stacked outputs, got shape {outputs.shape}")
    targets = stack_targets(graphs)
    scores = []
    for out_k in outputs:
        if metric == "accuracy" and out_k.shape[1] == 1:
            out_k = out_k[:, 0]
        scores.append(evaluate_metric(metric, out_k, targets))
    return scores
