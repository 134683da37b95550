"""Shared experiment protocol for the table/figure reproductions.

Every benchmark trains methods under the same protocol the paper uses:
train on the training split, select the best checkpoint by validation
metric (the validation split is drawn from the training distribution),
evaluate once on the OOD test split(s), and report mean ± std over
repeated seeds.

:func:`run_method_multi_seed` optionally runs all seeds as one batched
job (``batched=True``, the multi-seed engine of
``docs/ARCHITECTURE.md``): the dataset is fixed at the first seed and
only model initialisation varies, so K encoder forwards/backwards
collapse into one vectorised pass — and for ``ood-gnn`` the K inner
reweighting loops run as one seed-batched closed-form job
(``batched_reweight``, default on).  Supported for the GIN/GCN family
and ``ood-gnn``; other methods fall back to sequential runs with a
one-time warning.
"""

from __future__ import annotations

import warnings
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
    "run_method",
    "run_method_multi_seed",
    "method_spec",
    "BATCHED_SEED_METHODS",
]

# Methods with seed-stacked variants (see repro.nn.layers.stack_seed_modules).
# Everything in the zoo except FactorGCN, whose per-factor GEMV attention has
# no bitwise-safe batched equivalent and stays sequential.
BATCHED_SEED_METHODS = (
    "gcn",
    "gcn-virtual",
    "gin",
    "gin-virtual",
    "pna",
    "topkpool",
    "sagpool",
    "gat",
    "sage",
    "ood-gnn",
)


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

    ``models``/``seeds`` are populated only when the experiment ran with
    ``keep_models=True`` (the artifact-export path of ``repro.run``);
    plain benchmark sweeps keep them empty so trained models are freed.
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


def run_method(
    method: str,
    dataset: DatasetSplits,
    seed: int,
    protocol: ExperimentProtocol,
):
    """Train one method once; return (train_metric, {split: metric}).

    ``method`` is either ``"ood-gnn"`` or a baseline name accepted by
    :func:`repro.encoders.build_model`.
    """
    _trainer, train_metric, test_metrics = _run_method_trainer(method, dataset, seed, protocol)
    return train_metric, test_metrics


def _run_method_trainer(
    method: str,
    dataset: DatasetSplits,
    seed: int,
    protocol: ExperimentProtocol,
):
    """:func:`run_method`, but also hands back the trainer (for model export)."""
    info = dataset.info
    train_rng = np.random.default_rng((seed + 1) * 104729)
    model = _model_factory(method, dataset, protocol)(seed)
    if method == "ood-gnn":
        # The trainer takes its configuration from the model.
        trainer = OODGNNTrainer(model, info.task_type, train_rng, metric=info.metric)
        trainer.fit(dataset.train, dataset.valid, eval_every=protocol.eval_every)
    else:
        trainer = Trainer(model, info.task_type, _trainer_config(protocol), train_rng, metric=info.metric)
        trainer.fit(dataset.train, dataset.valid)
    train_metric = trainer.evaluate(dataset.train)
    test_metrics = {name: trainer.evaluate(split) for name, split in dataset.tests.items()}
    return trainer, train_metric, test_metrics


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
    """``seed -> untrained model``, the one constructor of both training paths.

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


_FALLBACK_WARNED: set[str] = set()


def _warn_sequential_fallback(method: str) -> None:
    """One-time warning that a batched request runs sequentially."""
    if method not in _FALLBACK_WARNED:
        _FALLBACK_WARNED.add(method)
        warnings.warn(
            f"method {method!r} has no seed-stacked variant "
            f"(batched seeds support: {', '.join(BATCHED_SEED_METHODS)}); "
            "falling back to sequential per-seed runs",
            RuntimeWarning,
            stacklevel=3,
        )


def method_spec(method: str, protocol: ExperimentProtocol):
    """The serving :class:`~repro.serve.artifact.ModelSpec` of one experiment.

    Mirrors exactly how :func:`run_method` constructs the model, so an
    artifact exported with this spec rebuilds the same architecture.
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
    batched_reweight: bool = True,
    keep_models: bool = False,
) -> MethodResult:
    """Repeat :func:`run_method` over seeds with fresh datasets per seed.

    ``dataset_factory(seed)`` regenerates the dataset so that both data
    and initialisation randomness enter the reported std, as in the
    paper's "10 repeated experiments".

    With ``batched=True`` all seeds train as one vectorised job instead:
    the dataset is fixed at ``dataset_factory(seeds[0])`` and only the
    model initialisation varies across seeds (the std then reports
    initialisation noise, not data noise).  For ``"ood-gnn"``,
    ``batched_reweight`` additionally runs Algorithm 1's inner
    sample-weight loops as one seed-batched closed-form job (default on;
    pass ``False`` — the CLI's ``--sequential-reweight`` — for the
    per-seed reference loops).  Methods without a seed-stacked variant
    (see :data:`BATCHED_SEED_METHODS`) fall back to the sequential path
    with a one-time ``RuntimeWarning``.
    """
    seeds = tuple(seeds)
    if batched and method in BATCHED_SEED_METHODS:
        return _run_method_multi_seed_batched(
            method, dataset_factory, seeds, protocol, batched_reweight, keep_models
        )
    if batched:
        _warn_sequential_fallback(method)
    trains, tests, models = [], [], []
    for seed in seeds:
        dataset = dataset_factory(seed)
        trainer, train_metric, test_metrics = _run_method_trainer(method, dataset, seed, protocol)
        trains.append(train_metric)
        tests.append(test_metrics)
        if keep_models:
            models.append(trainer.model)
    return _collect(method, trains, tests, seeds=seeds if keep_models else (), models=models)


def _collect(method: str, trains: list, tests: list, seeds: tuple = (), models: list | None = None) -> MethodResult:
    split_names = tests[0].keys()
    return MethodResult(
        method=method,
        train_mean=float(np.mean(trains)),
        train_std=float(np.std(trains)),
        test_mean={s: float(np.mean([t[s] for t in tests])) for s in split_names},
        test_std={s: float(np.std([t[s] for t in tests])) for s in split_names},
        seeds=seeds,
        models=models or [],
    )


def _run_method_multi_seed_batched(
    method: str,
    dataset_factory,
    seeds: tuple,
    protocol: ExperimentProtocol,
    batched_reweight: bool = True,
    keep_models: bool = False,
) -> MethodResult:
    """All seeds of one method as a single seed-stacked training job."""
    dataset = dataset_factory(seeds[0])
    info = dataset.info
    train_rng = np.random.default_rng((seeds[0] + 1) * 104729)
    eval_every = protocol.eval_every
    if method == "ood-gnn":
        trainer = OODGNNTrainer(
            None, info.task_type, train_rng, metric=info.metric, config=_ood_gnn_config(protocol)
        )
        result = trainer.fit_many(
            dataset.train,
            dataset.valid,
            eval_every=eval_every,
            seeds=seeds,
            model_factory=_model_factory(method, dataset, protocol),
            batched_reweight=batched_reweight,
        )
    else:
        trainer = Trainer(None, info.task_type, _trainer_config(protocol), train_rng, metric=info.metric)
        result = trainer.fit_many(
            dataset.train,
            dataset.valid if eval_every else None,
            seeds=seeds,
            model_factory=_model_factory(method, dataset, protocol),
        )
    # Re-stack the trained per-seed models (cheap parameter copies) so the
    # final train/test evaluations also run as one K-wide forward sweep.
    stacked = stack_seed_modules(result.models)
    trains = evaluate_model_per_seed(stacked, dataset.train, info.metric)
    tests_per_split = {
        name: evaluate_model_per_seed(stacked, split, info.metric)
        for name, split in dataset.tests.items()
    }
    tests = [{name: scores[k] for name, scores in tests_per_split.items()} for k in range(len(seeds))]
    return _collect(
        method, trains, tests,
        seeds=seeds if keep_models else (),
        models=result.models if keep_models else [],
    )
