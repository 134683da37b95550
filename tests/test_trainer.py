"""Baseline trainer and the batching/evaluation helpers."""

import numpy as np
import pytest

from repro.core import OODGNN, OODGNNConfig, OODGNNTrainer
from repro.encoders import build_model
from repro.graph.data import GraphBatch
from repro.graph.generators import erdos_renyi
from repro.nn.layers import BatchNorm1d
from repro.training import Trainer, TrainerConfig, iterate_minibatches, predict, evaluate_model
from repro.training.seed import seeded_rng


@pytest.fixture
def rng():
    return np.random.default_rng(67)


def toy_graphs(rng, n=30):
    graphs = []
    for i in range(n):
        label = i % 2
        g = erdos_renyi(int(rng.integers(5, 10)), 0.7 if label else 0.15, rng)
        g.y = label
        graphs.append(g)
    return graphs


class TestMinibatches:
    def test_covers_all_graphs(self, rng):
        graphs = toy_graphs(rng, 25)
        seen = sum(b.num_graphs for b in iterate_minibatches(graphs, 8))
        assert seen == 25

    def test_drop_last(self, rng):
        graphs = toy_graphs(rng, 25)
        sizes = [b.num_graphs for b in iterate_minibatches(graphs, 8, drop_last=True)]
        assert sizes == [8, 8, 8]

    def test_small_dataset_single_batch_even_with_drop_last(self, rng):
        graphs = toy_graphs(rng, 5)
        batches = list(iterate_minibatches(graphs, 8, drop_last=True))
        assert len(batches) == 1
        assert batches[0].num_graphs == 5

    def test_shuffles_with_rng(self, rng):
        graphs = toy_graphs(rng, 16)
        b1 = next(iterate_minibatches(graphs, 16, rng=np.random.default_rng(1)))
        b2 = next(iterate_minibatches(graphs, 16, rng=np.random.default_rng(2)))
        assert not np.array_equal(b1.y, b2.y)

    def test_invalid_batch_size(self, rng):
        with pytest.raises(ValueError):
            list(iterate_minibatches(toy_graphs(rng, 4), 0))


class TestTrainer:
    def test_loss_decreases(self, rng):
        graphs = toy_graphs(rng, 40)
        model = build_model("gin", 1, 2, np.random.default_rng(0), hidden_dim=8, num_layers=2)
        trainer = Trainer(model, "multiclass", TrainerConfig(epochs=10, batch_size=16), rng)
        history = trainer.fit(graphs)
        assert history.train_loss[-1] < history.train_loss[0]

    def test_learns_separable_task(self, rng):
        graphs = toy_graphs(rng, 60)
        model = build_model("gin", 1, 2, np.random.default_rng(0), hidden_dim=8, num_layers=2)
        trainer = Trainer(model, "multiclass", TrainerConfig(epochs=15, batch_size=16), rng)
        trainer.fit(graphs)
        assert trainer.evaluate(graphs) > 0.85

    def test_best_state_restored(self, rng):
        graphs = toy_graphs(rng, 40)
        model = build_model("gcn", 1, 2, np.random.default_rng(0), hidden_dim=8, num_layers=2)
        cfg = TrainerConfig(epochs=6, batch_size=16, eval_every=2)
        trainer = Trainer(model, "multiclass", cfg, rng)
        history = trainer.fit(graphs[:30], graphs[30:])
        assert history.best_metric is not None
        # Restored parameters should reproduce the best validation metric.
        assert trainer.evaluate(graphs[30:]) == pytest.approx(history.best_metric)

    def test_rmse_selection_lower_is_better(self, rng):
        graphs = toy_graphs(rng, 30)
        for g in graphs:
            g.y = np.array([float(g.num_nodes)])
        model = build_model("gcn", 1, 1, np.random.default_rng(0), hidden_dim=8, num_layers=2)
        cfg = TrainerConfig(epochs=4, batch_size=16, eval_every=1)
        trainer = Trainer(model, "regression", cfg, rng, metric="rmse")
        history = trainer.fit(graphs[:20], graphs[20:])
        assert history.best_metric == min(history.valid_metric)


class TestModelSelection:
    """The restored model is the one that scored ``best_metric``.

    Batch-norm running statistics move at every step, so restoring the
    best epoch's parameters without its statistics evaluates a model that
    never existed during training.
    """

    EPOCHS = 6

    @staticmethod
    def _graphs():
        rng = np.random.default_rng(0)
        graphs = []
        for _ in range(48):
            g = erdos_renyi(int(rng.integers(5, 11)), 0.4, rng)
            g.y = np.array([float(g.num_edges) / 10 + rng.normal()])
            graphs.append(g)
        return graphs[:32], graphs[32:]

    def _train(self, method, path, seeds, train, valid):
        rng = np.random.default_rng(1)
        if method == "gin":
            cfg = TrainerConfig(epochs=self.EPOCHS, batch_size=8, lr=0.05, eval_every=1)
            factory = lambda s: build_model("gin", 1, 1, np.random.default_rng(s), hidden_dim=8, num_layers=2)
            if path == "fit":
                trainer = Trainer(factory(seeds[0]), "regression", cfg, rng, metric="rmse")
                return [trainer.fit(train, valid)], [trainer.model]
            result = Trainer(None, "regression", cfg, rng, metric="rmse").fit_many(
                train, valid, seeds=seeds, model_factory=factory
            )
            return result.histories, result.models
        cfg = OODGNNConfig(
            hidden_dim=8, num_layers=2, epochs=self.EPOCHS, batch_size=8, lr=0.05,
            reweight_epochs=2, warmup_fraction=0.5,
        )
        factory = lambda s: OODGNN(1, 1, np.random.default_rng(s), config=cfg)
        if path == "fit":
            trainer = OODGNNTrainer(factory(seeds[0]), "regression", rng, metric="rmse")
            return [trainer.fit(train, valid, eval_every=1)], [trainer.model]
        result = OODGNNTrainer(None, "regression", rng, metric="rmse", config=cfg).fit_many(
            train, valid, eval_every=1, seeds=seeds, model_factory=factory
        )
        return result.histories, result.models

    @pytest.mark.parametrize(
        "method, path, seeds",
        [
            ("gin", "fit", (4,)),
            ("gin", "fit_many", (3, 4)),
            ("ood-gnn", "fit", (4,)),
            ("ood-gnn", "fit_many", (2, 3)),
        ],
    )
    def test_restored_model_reproduces_best_metric(self, method, path, seeds):
        train, valid = self._graphs()
        histories, models = self._train(method, path, seeds, train, valid)
        for history, model in zip(histories, models):
            assert len(history.valid_metric) == self.EPOCHS
            # A later epoch moved the statistics after the best one.
            assert history.valid_metric.index(history.best_metric) < self.EPOCHS - 1
            assert evaluate_model(model, valid, "rmse") == history.best_metric


class TestEvaluationHelpers:
    def test_predict_shapes(self, rng):
        graphs = toy_graphs(rng, 10)
        model = build_model("gin", 1, 2, np.random.default_rng(0), hidden_dim=8, num_layers=2)
        outputs = predict(model, graphs)
        assert outputs.shape == (10, 2)

    def test_predict_leaves_model_in_train_mode(self, rng):
        graphs = toy_graphs(rng, 4)
        model = build_model("gin", 1, 2, np.random.default_rng(0), hidden_dim=8, num_layers=2)
        predict(model, graphs)
        assert model.training

    def test_evaluate_keeps_eval_mode(self, rng):
        """Evaluating a model in eval mode leaves it there, so later forwards
        do not move its batch-norm statistics."""
        graphs = toy_graphs(rng, 6)
        model = build_model("gin", 1, 2, np.random.default_rng(0), hidden_dim=8, num_layers=2).eval()
        evaluate_model(model, graphs, "accuracy")
        assert not any(m.training for m in model.modules())
        before = model.buffer_dict()
        model(GraphBatch.from_graphs(graphs))
        assert any(isinstance(m, BatchNorm1d) for m in model.modules())
        for name, value in model.buffer_dict().items():
            np.testing.assert_array_equal(value, before[name], err_msg=name)

    def test_evaluate_model_accuracy(self, rng):
        graphs = toy_graphs(rng, 10)
        model = build_model("gin", 1, 2, np.random.default_rng(0), hidden_dim=8, num_layers=2)
        score = evaluate_model(model, graphs, "accuracy")
        assert 0.0 <= score <= 1.0


class TestSeededRng:
    def test_reproducible(self):
        a = seeded_rng(0, "model").normal(size=3)
        b = seeded_rng(0, "model").normal(size=3)
        np.testing.assert_allclose(a, b)

    def test_tag_separates_streams(self):
        a = seeded_rng(0, "model").normal(size=3)
        b = seeded_rng(0, "data").normal(size=3)
        assert not np.allclose(a, b)
