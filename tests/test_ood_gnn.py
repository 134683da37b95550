"""OOD-GNN model and the Algorithm-1 trainer."""

import contextlib

import numpy as np
import pytest

from ood_gnn_reference import plain_fit
from repro.core import OODGNN, OODGNNConfig, OODGNNTrainer
from repro.encoders.conv import GINConv
from repro.graph.generators import erdos_renyi
from repro.graph.data import GraphBatch
from repro.obs import FLAGS, clear_trace, disable_tracing, enable_tracing, profile_mode
from repro.serve.artifact import FeatureSchema, ModelArtifact
from repro.training import predict


@pytest.fixture
def rng():
    return np.random.default_rng(61)


def toy_dataset(rng, n=40):
    """Dense vs sparse graphs, a trivially learnable binary task."""
    graphs = []
    for i in range(n):
        label = i % 2
        p = 0.7 if label else 0.15
        g = erdos_renyi(int(rng.integers(6, 12)), p, rng)
        g.y = label
        graphs.append(g)
    return graphs


def tiny_config(**overrides):
    defaults = dict(
        hidden_dim=8,
        num_layers=2,
        epochs=4,
        batch_size=10,
        reweight_epochs=3,
        warmup_fraction=0.25,
    )
    defaults.update(overrides)
    return OODGNNConfig(**defaults)


class TestModel:
    def test_structure_matches_config(self, rng):
        cfg = tiny_config(hidden_dim=16, num_layers=3)
        model = OODGNN(4, 2, rng, config=cfg)
        assert len(model.encoder.convs) == 3
        assert all(isinstance(conv, GINConv) for conv in model.encoder.convs)
        assert model.encoder.out_dim == 16

    def test_forward_shapes(self, rng):
        model = OODGNN(1, 3, rng, config=tiny_config())
        graphs = toy_dataset(rng, 6)
        batch = GraphBatch.from_graphs(graphs)
        assert model(batch).shape == (6, 3)
        assert model.representations(batch).shape == (6, 8)


class TestTrainer:
    def test_history_contents(self, rng):
        graphs = toy_dataset(rng)
        cfg = tiny_config()
        model = OODGNN(1, 2, rng, config=cfg)
        trainer = OODGNNTrainer(model, "multiclass", np.random.default_rng(1), config=cfg)
        history = trainer.fit(graphs)
        assert len(history.train_loss) == cfg.epochs
        assert len(history.decorrelation_loss) == cfg.epochs
        assert history.final_weights is not None
        assert history.final_weights.mean() == pytest.approx(1.0, abs=1e-6)

    def test_learns_toy_task(self, rng):
        graphs = toy_dataset(rng, 60)
        cfg = tiny_config(epochs=12)
        model = OODGNN(1, 2, rng, config=cfg)
        trainer = OODGNNTrainer(model, "multiclass", np.random.default_rng(1), config=cfg)
        trainer.fit(graphs)
        assert trainer.evaluate(graphs) > 0.8

    def test_warmup_weights_uniform(self, rng):
        graphs = toy_dataset(rng)
        cfg = tiny_config(epochs=2, warmup_fraction=1.0)  # never leaves warmup
        model = OODGNN(1, 2, rng, config=cfg)
        trainer = OODGNNTrainer(model, "multiclass", np.random.default_rng(1), config=cfg)
        history = trainer.fit(graphs)
        np.testing.assert_allclose(history.final_weights, 1.0)

    def test_validation_selects_best_state(self, rng):
        graphs = toy_dataset(rng, 40)
        cfg = tiny_config(epochs=6)
        model = OODGNN(1, 2, rng, config=cfg)
        trainer = OODGNNTrainer(model, "multiclass", np.random.default_rng(1), config=cfg)
        history = trainer.fit(graphs[:30], graphs[30:], eval_every=2)
        assert history.best_metric is not None
        assert history.best_state is not None
        assert len(history.valid_metric) == 3

    def test_global_memory_engaged(self, rng):
        graphs = toy_dataset(rng)
        cfg = tiny_config()
        model = OODGNN(1, 2, rng, config=cfg)
        trainer = OODGNNTrainer(model, "multiclass", np.random.default_rng(1), config=cfg)
        trainer.fit(graphs)
        assert trainer.estimator.initialised

    def test_zero_global_groups(self, rng):
        graphs = toy_dataset(rng)
        cfg = tiny_config(global_groups=0)
        model = OODGNN(1, 2, rng, config=cfg)
        trainer = OODGNNTrainer(model, "multiclass", np.random.default_rng(1), config=cfg)
        history = trainer.fit(graphs)
        assert not trainer.estimator.initialised
        assert np.isfinite(history.train_loss).all()

    def test_linear_decorrelation_variant(self, rng):
        graphs = toy_dataset(rng)
        cfg = tiny_config(linear_decorrelation=True)
        model = OODGNN(1, 2, rng, config=cfg)
        trainer = OODGNNTrainer(model, "multiclass", np.random.default_rng(1), config=cfg)
        history = trainer.fit(graphs)
        assert np.isfinite(history.train_loss).all()

    def test_regression_task(self, rng):
        graphs = toy_dataset(rng)
        for g in graphs:
            g.y = np.array([float(g.num_edges)])
        cfg = tiny_config()
        model = OODGNN(1, 1, rng, config=cfg)
        trainer = OODGNNTrainer(model, "regression", np.random.default_rng(1), metric="rmse", config=cfg)
        history = trainer.fit(graphs)
        assert history.train_loss[-1] < history.train_loss[0]

    def test_exported_artifact_follows_the_model_config(self, rng, tmp_path):
        """The spec comes from the model, whatever config the trainer runs."""
        graphs = toy_dataset(rng, 20)
        model = OODGNN(1, 2, np.random.default_rng(0), config=tiny_config(hidden_dim=16))
        trainer = OODGNNTrainer(
            model, "multiclass", np.random.default_rng(1), config=tiny_config(hidden_dim=8, epochs=1)
        )
        trainer.fit(graphs)
        schema = FeatureSchema(feature_dim=1, out_dim=2, task_type="multiclass", num_classes=2)
        (restored,) = ModelArtifact.load(trainer.export_artifact(tmp_path / "model.npz", schema)).build_models()
        np.testing.assert_array_equal(predict(restored, graphs), predict(model, graphs))

    def test_weight_snapshots_cover_last_epoch(self, rng):
        graphs = toy_dataset(rng, 40)
        cfg = tiny_config(batch_size=10, epochs=3)
        model = OODGNN(1, 2, rng, config=cfg)
        trainer = OODGNNTrainer(model, "multiclass", np.random.default_rng(1), config=cfg)
        history = trainer.fit(graphs)
        assert len(history.weight_snapshots) == 4  # 40 graphs / batch 10
        assert history.final_weights.shape == (40,)


def _task_graphs(task):
    graphs = toy_dataset(np.random.default_rng(5), n=40)
    if task == "binary":
        for g in graphs:
            g.y = np.array([float(g.y)])
    elif task == "regression":
        for g in graphs:
            g.y = np.array([float(g.num_edges)])
    return graphs[:30], graphs[30:]


class TestOuterLoopOracle:
    """``fit``, the K = 1 case of the stacked loop, against the plain loop.

    One warmup epoch and three reweighting epochs per case; every byte the
    run leaves behind must match.
    """

    TASKS = {
        "multiclass": ("multiclass", 2, "accuracy"),
        "binary": ("binary", 1, "rocauc"),
        "regression": ("regression", 1, "rmse"),
    }

    def _trainer(self, task, **overrides):
        task_type, out_dim, metric = self.TASKS[task]
        cfg = tiny_config(**overrides)
        model = OODGNN(1, out_dim, np.random.default_rng(3), config=cfg)
        return OODGNNTrainer(model, task_type, np.random.default_rng(4), metric=metric)

    @pytest.mark.parametrize(
        "task, overrides",
        [
            ("multiclass", {}),
            ("binary", {}),
            ("regression", {}),
            ("multiclass", dict(global_groups=0)),
            ("multiclass", dict(global_groups=2)),
            ("binary", dict(linear_decorrelation=True)),
            ("regression", dict(rff_fraction=0.5, global_groups=2)),
            ("multiclass", dict(dropout=0.2)),
        ],
        ids=["multiclass", "binary", "regression", "groups0", "groups2", "linear", "fraction", "dropout"],
    )
    def test_fit_matches_plain_loop_bitwise(self, task, overrides):
        train, valid = _task_graphs(task)
        stacked, plain = self._trainer(task, **overrides), self._trainer(task, **overrides)
        h_stacked = stacked.fit(train, valid, eval_every=1)
        h_plain = plain_fit(plain, train, valid, eval_every=1)

        assert h_stacked.train_loss == h_plain.train_loss
        assert h_stacked.decorrelation_loss == h_plain.decorrelation_loss
        assert h_stacked.valid_metric == h_plain.valid_metric
        assert h_stacked.best_metric == h_plain.best_metric
        np.testing.assert_array_equal(h_stacked.final_weights, h_plain.final_weights)
        assert len(h_stacked.weight_snapshots) == len(h_plain.weight_snapshots) == 3
        for ours, theirs in zip(h_stacked.weight_snapshots, h_plain.weight_snapshots):
            np.testing.assert_array_equal(ours, theirs)
        # Reweighting epochs moved the weights off uniform.
        assert not np.all(h_plain.final_weights == 1.0)
        params = dict(plain.model.named_parameters())
        for name, param in stacked.model.named_parameters():
            np.testing.assert_array_equal(param.data, params[name].data, err_msg=name)
        buffers = plain.model.buffer_dict()
        assert buffers
        for name, value in stacked.model.buffer_dict().items():
            np.testing.assert_array_equal(value, buffers[name], err_msg=name)
        assert stacked.rng.bit_generator.state == plain.rng.bit_generator.state
        assert (
            stacked.weight_learner.rff.rng.bit_generator.state
            == plain.weight_learner.rff.rng.bit_generator.state
        )
        memory = plain.estimator.global_representations()
        if memory is None:
            assert stacked.estimator.global_representations() is None
        else:
            np.testing.assert_array_equal(stacked.estimator.global_representations(), memory)
            np.testing.assert_array_equal(stacked.estimator.global_weights(), plain.estimator.global_weights())


class TestInstrumentationInvariance:
    """Metrics, tracing and profiling on vs all off: bitwise-equal parameters."""

    @contextlib.contextmanager
    def _instrumentation(self, on):
        metrics, tracing = FLAGS.metrics, FLAGS.tracing
        try:
            FLAGS.metrics = on
            if on:
                enable_tracing()
                with profile_mode():
                    yield
            else:
                disable_tracing()
                yield
        finally:
            FLAGS.metrics, FLAGS.tracing = metrics, tracing
            clear_trace()

    def _trained_params(self, instrumented, fit_many):
        graphs = toy_dataset(np.random.default_rng(5), n=24)
        # One warmup epoch (the history-only decorrelation_loss diagnostic)
        # and one reweighting epoch (the inner loop).
        cfg = tiny_config(epochs=2, warmup_fraction=0.5)
        factory = lambda seed: OODGNN(1, 2, np.random.default_rng(seed), config=cfg)
        with self._instrumentation(instrumented):
            if fit_many is None:
                models = [factory(0)]
                OODGNNTrainer(models[0], "multiclass", np.random.default_rng(1), config=cfg).fit(graphs)
            else:
                trainer = OODGNNTrainer(None, "multiclass", np.random.default_rng(1), config=cfg)
                models = trainer.fit_many(graphs, seeds=(0, 1), model_factory=factory, **fit_many).models
        return [dict(model.named_parameters()) for model in models]

    @pytest.mark.parametrize(
        "fit_many",
        [None, dict(batched=True), dict(batched=False)],
        ids=["fit-k1", "fit-many-batched-k2", "fit-many-unbatched-k2"],
    )
    def test_trained_parameters_bitwise_equal(self, fit_many):
        plain = self._trained_params(False, fit_many)
        instrumented = self._trained_params(True, fit_many)
        assert len(plain) == len(instrumented) == (1 if fit_many is None else 2)
        for params, params_instrumented in zip(plain, instrumented):
            assert params.keys() == params_instrumented.keys()
            for name, param in params.items():
                np.testing.assert_array_equal(param.data, params_instrumented[name].data, err_msg=name)
