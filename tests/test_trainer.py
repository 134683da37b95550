"""Baseline trainer and the batching/evaluation helpers."""

import numpy as np
import pytest

from repro.encoders import build_model
from repro.graph.generators import erdos_renyi
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
