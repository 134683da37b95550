"""Shared experiment protocol for the table/figure reproductions.

Every benchmark trains methods under the same protocol the paper uses:
train on the training split, select the best checkpoint by validation
metric (the validation split is drawn from the training distribution),
evaluate once on the OOD test split(s), and report mean ± std over
repeated seeds.

:func:`run_method_multi_seed` is the one path: it trains each group of
seeds through the trainers' ``fit_many`` as one seed-stacked job (the
multi-seed engine of ``docs/ARCHITECTURE.md``) and scores it in one
stacked sweep.  A group is one seed on its own dataset, or, with
``batched=True``, all seeds on the first seed's dataset, so that K
encoder forwards/backwards collapse into one vectorised pass — and for
``ood-gnn`` the K inner reweighting loops run as one seed-batched
closed-form job.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.datasets.base import DatasetSplits
from repro.encoders.models import build_model, compute_pna_degree_scale
from repro.nn.layers import stack_seed_modules
from repro.training.loop import evaluate_model_per_seed
from repro.training.trainer import Trainer, TrainerConfig
from repro.core.ood_gnn import OODGNN, OODGNNConfig, OODGNNTrainer

__all__ = [
    "ExperimentProtocol",
    "MethodResult",
    "run_method_multi_seed",
    "method_spec",
]


@dataclass
class ExperimentProtocol:
    """Training protocol shared by all methods in one experiment."""

    epochs: int = 30
    batch_size: int = 32
    lr: float = 1e-3
    hidden_dim: int = 32
    num_layers: int = 3
    weight_decay: float = 1e-4
    eval_every: int = 2
    ood_overrides: dict = field(default_factory=dict)


@dataclass
class MethodResult:
    """Mean/std of train and per-test-split metrics over seeds.

    ``seeds`` and the trained ``models`` are index-aligned;
    ``repro.run --export-artifact`` bundles them.
    """

    method: str
    train_mean: float
    train_std: float
    test_mean: dict
    test_std: dict
    seeds: tuple = ()
    models: list = field(default_factory=list)

    def row(self, split: str) -> str:
        """``mean±std`` cell for the given test split."""
        return f"{self.test_mean[split]:.3f}±{self.test_std[split]:.3f}"


def _ood_gnn_config(protocol: ExperimentProtocol) -> OODGNNConfig:
    """The OOD-GNN configuration of one experiment."""
    return OODGNNConfig(
        hidden_dim=protocol.hidden_dim,
        num_layers=protocol.num_layers,
        epochs=protocol.epochs,
        batch_size=protocol.batch_size,
        lr=protocol.lr,
        weight_decay=protocol.weight_decay,
        **protocol.ood_overrides,
    )


def _trainer_config(protocol: ExperimentProtocol) -> TrainerConfig:
    """The baseline trainer configuration of one experiment."""
    return TrainerConfig(
        epochs=protocol.epochs,
        batch_size=protocol.batch_size,
        lr=protocol.lr,
        weight_decay=protocol.weight_decay,
        eval_every=protocol.eval_every,
    )


def _model_factory(method: str, dataset: DatasetSplits, protocol: ExperimentProtocol):
    """``seed -> untrained model``, the one constructor of every seed group.

    OOD-GNN models carry the experiment's :func:`_ood_gnn_config`; PNA's
    degree scale is the training split's.
    """
    info = dataset.info
    cfg = _ood_gnn_config(protocol) if method == "ood-gnn" else None
    degree_scale = compute_pna_degree_scale(dataset.train) if method == "pna" else 1.0

    def build(seed: int):
        rng = np.random.default_rng((seed + 1) * 7919)
        if method == "ood-gnn":
            return OODGNN(info.feature_dim, info.model_out_dim, rng, config=cfg)
        return build_model(
            method,
            info.feature_dim,
            info.model_out_dim,
            rng,
            hidden_dim=protocol.hidden_dim,
            num_layers=protocol.num_layers,
            pna_degree_scale=degree_scale,
        )

    return build


def method_spec(method: str, protocol: ExperimentProtocol):
    """The serving :class:`~repro.serve.artifact.ModelSpec` of one experiment.

    Mirrors how :func:`_model_factory` builds the model, so an artifact
    exported with this spec rebuilds the same architecture.
    Dataset-dependent constants (PNA's degree scale) travel as model
    buffers, not spec fields.
    """
    from repro.serve.artifact import ModelSpec

    if method == "ood-gnn":
        return ModelSpec.for_ood_gnn(_ood_gnn_config(protocol))
    return ModelSpec(method=method, hidden_dim=protocol.hidden_dim, num_layers=protocol.num_layers)


def run_method_multi_seed(
    method: str,
    dataset_factory,
    seeds,
    protocol: ExperimentProtocol,
    batched: bool = False,
) -> MethodResult:
    """Train and score one method over ``seeds``; mean ± std over them.

    ``method`` is either ``"ood-gnn"`` or a baseline name accepted by
    :func:`repro.encoders.build_model`.  Seeds train in groups, each group
    on the dataset of its first seed.
    By default every seed is a group of one on its own
    ``dataset_factory(seed)``, so data and initialisation randomness both
    enter the reported std, as in the paper's "10 repeated experiments".
    With ``batched=True`` all seeds form one group on
    ``dataset_factory(seeds[0])`` and only the initialisation varies
    across seeds.  Either way a group trains through its trainer's
    ``fit_many`` as one seed stack, shuffling with its first seed's rng,
    and is scored in one :func:`evaluate_model_per_seed` sweep per split,
    so one seed trains the same bytes with ``batched`` on or off.
    """
    seeds = tuple(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    groups = [seeds] if batched else [(seed,) for seed in seeds]
    trains, tests, models = [], {}, []
    for group in groups:
        dataset = dataset_factory(group[0])
        group_models = _fit_group(method, dataset, group, protocol)
        stacked = stack_seed_modules(group_models)
        metric = dataset.info.metric
        trains.extend(evaluate_model_per_seed(stacked, dataset.train, metric))
        for name, split in dataset.tests.items():
            tests.setdefault(name, []).extend(evaluate_model_per_seed(stacked, split, metric))
        models.extend(group_models)
    return MethodResult(
        method=method,
        train_mean=float(np.mean(trains)),
        train_std=float(np.std(trains)),
        test_mean={name: float(np.mean(scores)) for name, scores in tests.items()},
        test_std={name: float(np.std(scores)) for name, scores in tests.items()},
        seeds=seeds,
        models=models,
    )


def _fit_group(method: str, dataset: DatasetSplits, seeds: tuple, protocol: ExperimentProtocol) -> list:
    """Train ``seeds`` on ``dataset`` as one seed stack; the trained models."""
    info = dataset.info
    train_rng = np.random.default_rng((seeds[0] + 1) * 104729)
    factory = _model_factory(method, dataset, protocol)
    if method == "ood-gnn":
        trainer = OODGNNTrainer(
            None, info.task_type, train_rng, metric=info.metric, config=_ood_gnn_config(protocol)
        )
        result = trainer.fit_many(
            dataset.train, dataset.valid, eval_every=protocol.eval_every,
            seeds=seeds, model_factory=factory,
        )
    else:
        trainer = Trainer(None, info.task_type, _trainer_config(protocol), train_rng, metric=info.metric)
        result = trainer.fit_many(dataset.train, dataset.valid, seeds=seeds, model_factory=factory)
    return result.models
