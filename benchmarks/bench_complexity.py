"""Section 4.7: time complexity of OOD-GNN vs its GIN backbone.

The paper claims O(|E|d + |V|d^2 + K|B|d^2) per step: the graph-encoder
cost (identical to GIN) plus the weight-optimisation cost, which depends
only on the batch size, the number of memory groups K, and d — *not* on
the dataset size.  These are true micro-benchmarks (pytest-benchmark
statistics over repeated calls):

* encoder forward+backward for GIN vs one full OOD-GNN training step;
* the weight-learning inner step as |B| scales (linear) and as d scales
  (quadratic).
"""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.core import (
    OODGNN,
    OODGNNConfig,
    OODGNNTrainer,
    RandomFourierFeatures,
    SampleWeightLearner,
    SeedFusedDecorrelation,
)
from repro.encoders import build_model
from repro.graph.data import GraphBatch
from repro.graph.generators import erdos_renyi
from repro.nn import Adam, cross_entropy


def _make_batch(num_graphs, rng):
    graphs = []
    for i in range(num_graphs):
        g = erdos_renyi(int(rng.integers(10, 20)), 0.3, rng)
        g.y = i % 2
        graphs.append(g)
    return GraphBatch.from_graphs(graphs)


@pytest.fixture(scope="module")
def batch():
    return _make_batch(32, np.random.default_rng(0))


def test_gin_forward_backward(benchmark, batch):
    """Baseline cost: one GIN training step (encoder + head + Adam)."""
    model = build_model("gin", 1, 2, np.random.default_rng(1), hidden_dim=32, num_layers=3)
    opt = Adam(model.parameters(), lr=1e-3)

    def step():
        opt.zero_grad()
        loss = cross_entropy(model(batch), batch.y)
        loss.backward()
        opt.step()
        return float(loss.data)

    benchmark(step)


def test_ood_gnn_full_step(benchmark, batch):
    """OOD-GNN step: encoder + weight learning (20 inner epochs) + update.

    Section 4.7's claim: on par with GIN up to the K|B|d^2 weight term.
    """
    cfg = OODGNNConfig(hidden_dim=32, num_layers=3, batch_size=32, reweight_epochs=20, warmup_fraction=0.0)
    model = OODGNN(1, 2, np.random.default_rng(1), config=cfg)
    trainer = OODGNNTrainer(model, "multiclass", np.random.default_rng(2), config=cfg)

    def step():
        z = model.representations(batch)
        result = trainer._reweight(z.data)
        logits = model.head(z)
        trainer.optimizer.zero_grad()
        loss = cross_entropy(logits, batch.y, weights=Tensor(result.weights))
        loss.backward()
        trainer.optimizer.step()
        trainer.estimator.update(z.data, result.weights)
        return float(loss.data)

    benchmark(step)


@pytest.mark.parametrize("batch_size", [32, 64, 128])
def test_weight_learning_scales_linearly_in_batch(benchmark, batch_size):
    """Decorrelation loss + weight gradient is O(n (dQ)^2): linear in samples.

    Times the inner loop's engine (one seed) in primal form, whose two ``O(n p^2)``
    matmuls are the cost the claim is about (dual form trades them for a
    once-per-batch ``O(n^2 p)`` cache).
    """
    rng = np.random.default_rng(3)
    z = rng.normal(size=(batch_size, 32))
    rff = RandomFourierFeatures(num_functions=5, rng=np.random.default_rng(4))
    engine = SeedFusedDecorrelation(rff(z)[None], mode="primal")
    w = np.ones((1, batch_size))
    benchmark(lambda: engine.loss_and_grad(w)[0])


@pytest.mark.parametrize("dim", [16, 32, 64])
def test_weight_learning_scales_quadratically_in_dim(benchmark, dim):
    """...and quadratic in the representation dimensionality d."""
    rng = np.random.default_rng(5)
    z = rng.normal(size=(64, dim))
    rff = RandomFourierFeatures(num_functions=2, rng=np.random.default_rng(6))
    learner = SampleWeightLearner(rff, epochs=3, lr=0.05)
    benchmark(lambda: learner.learn(z).final_loss)


@pytest.mark.parametrize("dataset_size", [64, 256])
def test_step_cost_independent_of_dataset_size(benchmark, dataset_size):
    """The weight-optimisation cost depends on |B| and K, not on N:
    timing a step with a fixed batch from datasets of different sizes
    must match (compare the two parametrised rows)."""
    rng = np.random.default_rng(7)
    graphs = []
    for i in range(dataset_size):
        g = erdos_renyi(12, 0.3, rng)
        g.y = i % 2
        graphs.append(g)
    batch = GraphBatch.from_graphs(graphs[:32])
    cfg = OODGNNConfig(hidden_dim=32, num_layers=2, batch_size=32, reweight_epochs=10, warmup_fraction=0.0)
    model = OODGNN(1, 2, np.random.default_rng(1), config=cfg)
    trainer = OODGNNTrainer(model, "multiclass", np.random.default_rng(2), config=cfg)

    def step():
        z = model.representations(batch)
        result = trainer._reweight(z.data)
        trainer.estimator.update(z.data, result.weights)
        return result.final_loss

    benchmark(step)
