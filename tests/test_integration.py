"""End-to-end integration: datasets -> models -> training -> evaluation."""

import numpy as np
import pytest

from repro.bench import ExperimentProtocol, run_method_multi_seed
from repro.datasets import load_dataset
from repro.encoders import available_models


TINY = ExperimentProtocol(epochs=2, batch_size=16, hidden_dim=8, num_layers=2, eval_every=1)


def run_one(method, dataset, seed=0, protocol=TINY):
    """One seed of ``method`` on ``dataset``: (train metric, {split: metric})."""
    result = run_method_multi_seed(method, lambda _seed: dataset, (seed,), protocol)
    return result.train_mean, result.test_mean


@pytest.fixture(scope="module")
def proteins():
    return load_dataset("proteins25", seed=0, num_train=24, num_valid=8, num_test=8)


@pytest.fixture(scope="module")
def bace():
    return load_dataset("ogbg-molbace", seed=0, num_graphs=80)


@pytest.fixture(scope="module")
def esol():
    return load_dataset("ogbg-molesol", seed=0, num_graphs=80)


class TestRunMethod:
    @pytest.mark.parametrize("method", list(available_models()) + ["ood-gnn"])
    def test_every_method_trains_on_classification(self, proteins, method):
        train, tests = run_one(method, proteins)
        assert 0.0 <= train <= 1.0
        assert set(tests) == {"Test(large)"}
        assert 0.0 <= tests["Test(large)"] <= 1.0

    def test_binary_multitask(self, bace):
        train, tests = run_one("gin", bace)
        assert 0.0 <= tests["Test(scaffold)"] <= 1.0

    def test_regression(self, esol):
        train, tests = run_one("ood-gnn", esol)
        assert np.isfinite(tests["Test(scaffold)"])

    def test_multi_seed_aggregation(self):
        factory = lambda seed: load_dataset(
            "proteins25", seed=seed, num_train=20, num_valid=6, num_test=6
        )
        result = run_method_multi_seed("gcn", factory, (0, 1), TINY)
        assert result.method == "gcn"
        assert result.test_std["Test(large)"] >= 0.0
        assert "±" in result.row("Test(large)")

    def test_mnist_two_test_splits(self):
        ds = load_dataset("mnist75sp", seed=0, num_train=12, num_valid=4, num_test=4)
        _train, tests = run_one("gin", ds)
        assert set(tests) == {"Test(noise)", "Test(color)"}

    def test_ood_overrides_reach_config(self, proteins):
        proto = ExperimentProtocol(
            epochs=2, batch_size=16, hidden_dim=8, num_layers=2,
            ood_overrides={"linear_decorrelation": True, "reweight_epochs": 2},
        )
        train, _tests = run_one("ood-gnn", proteins, protocol=proto)
        assert np.isfinite(train)


class TestReproducibility:
    def test_same_seed_same_result(self, proteins):
        a = run_one("gcn", proteins, seed=3)
        b = run_one("gcn", proteins, seed=3)
        assert a[0] == b[0]
        assert a[1] == b[1]

    def test_different_seed_different_initialisation(self):
        from repro.encoders import build_model

        a = build_model("gcn", 3, 2, np.random.default_rng((3 + 1) * 7919), hidden_dim=8)
        b = build_model("gcn", 3, 2, np.random.default_rng((4 + 1) * 7919), hidden_dim=8)
        assert not np.allclose(a.encoder.embed.weight.data, b.encoder.embed.weight.data)
