"""Batched multi-seed engine: parity with sequential runs, determinism.

The contract under test (see docs/ARCHITECTURE.md): `fit_many(batched=
True)` trains K seed-stacked models whose results match K sequential
`fit` runs over the same mini-batch stream — parameters bitwise under
deterministic settings — and both paths are deterministic under fixed
seeds.
"""

import warnings

import numpy as np
import pytest

from encoder_specs import ENCODER_SPECS, STACKABLE_SPECS, encoder_spec, spec_params
from repro.autograd import functional as F
from repro.autograd.tensor import Tensor
from repro.core import OODGNN, OODGNNConfig, OODGNNTrainer
from repro.encoders import build_model, SeedGraphClassifier
from repro.graph.data import GraphBatch
from repro.graph.generators import erdos_renyi
from repro.nn import layers as nn_layers
from repro.nn.layers import SeedStackingError, stack_seed_modules, try_stack_seed_modules
from repro.nn.losses import seed_prediction_loss, weighted_prediction_loss
from repro.nn.module import Module
from repro.nn.optim import clip_grad_norm, clip_grad_norm_per_seed
from repro.training import Trainer, TrainerConfig, evaluate_model, evaluate_model_per_seed

SEEDS = (0, 1, 2)


def toy_graphs(n=40, seed=7):
    rng = np.random.default_rng(seed)
    graphs = []
    for i in range(n):
        label = i % 2
        g = erdos_renyi(int(rng.integers(5, 10)), 0.7 if label else 0.15, rng)
        g.y = label
        graphs.append(g)
    return graphs


def gin_factory(seed, out_dim=2, num_layers=2):
    return build_model(
        "gin", 1, out_dim, np.random.default_rng((seed + 1) * 7919),
        hidden_dim=8, num_layers=num_layers,
    )


def gcn_factory(seed):
    return build_model("gcn", 1, 2, np.random.default_rng((seed + 1) * 7919), hidden_dim=8, num_layers=2)


def assert_params_equal(model_a, model_b, **kwargs):
    pa, pb = dict(model_a.named_parameters()), dict(model_b.named_parameters())
    assert set(pa) == set(pb)
    for name in pa:
        np.testing.assert_array_equal(pa[name].data, pb[name].data, err_msg=name, **kwargs)


class TestSeedStacking:
    def test_forward_matches_per_seed_models_bitwise(self):
        graphs = toy_graphs(12)
        batch = GraphBatch.from_graphs(graphs)
        models = [gin_factory(s) for s in SEEDS]
        stacked = stack_seed_modules(models)
        assert isinstance(stacked, SeedGraphClassifier)
        logits = stacked(batch)
        assert logits.shape == (len(SEEDS), batch.num_graphs, 2)
        for k, model in enumerate(models):
            np.testing.assert_array_equal(model(batch).data, logits.data[k])

    def test_gradients_match_per_seed_models_bitwise(self):
        graphs = toy_graphs(12)
        batch = GraphBatch.from_graphs(graphs)
        models = [gin_factory(s) for s in SEEDS]
        stacked = stack_seed_modules(models)
        total, per_seed = seed_prediction_loss(stacked(batch), batch.y, "multiclass")
        total.backward()
        stacked_params = dict(stacked.named_parameters())
        for k, model in enumerate(models):
            loss = weighted_prediction_loss(model(batch), batch.y, "multiclass")
            np.testing.assert_allclose(float(loss.data), per_seed[k], rtol=1e-14)
            loss.backward()
            for name, p in model.named_parameters():
                np.testing.assert_array_equal(stacked_params[name].grad[k], p.grad, err_msg=name)

    def test_gcn_stacking_matches(self):
        graphs = toy_graphs(10)
        batch = GraphBatch.from_graphs(graphs)
        models = [gcn_factory(s) for s in SEEDS]
        stacked = stack_seed_modules(models)
        logits = stacked(batch)
        for k, model in enumerate(models):
            np.testing.assert_array_equal(model(batch).data, logits.data[k])

    def test_seed_state_dict_roundtrip(self):
        models = [gin_factory(s) for s in SEEDS]
        stacked = stack_seed_modules(models)
        fresh = gin_factory(99)
        fresh.load_state_dict(stacked.seed_state_dict(1))
        assert_params_equal(fresh, models[1])

    def test_sync_into_copies_batch_norm_statistics(self):
        graphs = toy_graphs(16)
        batch = GraphBatch.from_graphs(graphs)
        models = [gin_factory(s) for s in SEEDS]
        stacked = stack_seed_modules(models)
        stacked(batch)  # advance the stacked running statistics
        fresh = gin_factory(99)
        stacked.sync_into(0, fresh)
        ref = models[0]
        ref(batch)  # advance the per-seed statistics identically
        fresh.eval(), ref.eval()
        np.testing.assert_array_equal(fresh(batch).data, ref(batch).data)

    def test_unsupported_architecture_raises(self):
        models = [
            build_model("factorgcn", 1, 2, np.random.default_rng(s), hidden_dim=8, num_layers=2)
            for s in SEEDS
        ]
        with pytest.raises(TypeError, match="no multi-seed stacker"):
            stack_seed_modules(models)

    def test_heterogeneous_modules_raise(self):
        with pytest.raises(TypeError, match="heterogeneous"):
            stack_seed_modules([gin_factory(0), gcn_factory(1)])

    def test_evaluate_model_per_seed_matches_sequential(self):
        graphs = toy_graphs(20)
        models = [gin_factory(s) for s in SEEDS]
        stacked = stack_seed_modules(models)
        scores = evaluate_model_per_seed(stacked, graphs, "accuracy")
        for k, model in enumerate(models):
            assert scores[k] == evaluate_model(model, graphs, "accuracy")


class TestRosterParity:
    """The full-zoo contract: every stackable spec is bitwise batched==sequential.

    Parametrised over the shared :data:`conftest.ENCODER_SPECS` registry so
    a new encoder cannot be registered without declaring (and proving) its
    seed-stacking behaviour here.
    """

    def test_stackable_flags_match_registry(self):
        """Each spec's `stackable` flag agrees with the live stacker registry."""
        for spec in ENCODER_SPECS:
            models = [spec.factory(1, 2)(s) for s in (0, 1)]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                stacked = try_stack_seed_modules(models)
            assert (stacked is not None) == spec.stackable, spec.name

    @pytest.mark.parametrize("spec", spec_params(STACKABLE_SPECS))
    def test_forward_matches_per_seed_models_bitwise(self, spec):
        batch = GraphBatch.from_graphs(toy_graphs(12))
        models = [spec.factory(1, 2)(s) for s in SEEDS]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any fallback warning fails the test
            stacked = stack_seed_modules(models)
            logits = stacked(batch)
        assert logits.shape == (len(SEEDS), batch.num_graphs, 2)
        for k, model in enumerate(models):
            np.testing.assert_array_equal(
                model(batch).data, logits.data[k], err_msg=f"{spec.name} seed {k}"
            )

    @pytest.mark.parametrize("spec", spec_params(STACKABLE_SPECS))
    def test_gradients_match_per_seed_models_bitwise(self, spec):
        batch = GraphBatch.from_graphs(toy_graphs(12))
        models = [spec.factory(1, 2)(s) for s in SEEDS]
        stacked = stack_seed_modules(models)
        total, per_seed = seed_prediction_loss(stacked(batch), batch.y, "multiclass")
        total.backward()
        stacked_params = dict(stacked.named_parameters())
        for k, model in enumerate(models):
            loss = weighted_prediction_loss(model(batch), batch.y, "multiclass")
            loss.backward()
            for name, p in model.named_parameters():
                np.testing.assert_array_equal(
                    stacked_params[name].grad[k], p.grad, err_msg=f"{spec.name} {name} seed {k}"
                )

    @pytest.mark.parametrize("spec", spec_params(STACKABLE_SPECS))
    def test_fit_many_batched_matches_sequential_bitwise(self, spec):
        graphs = toy_graphs(24)
        results = {}
        for batched in (True, False):
            trainer = Trainer(
                None, "multiclass", TrainerConfig(epochs=2, batch_size=12),
                np.random.default_rng(3),
            )
            results[batched] = trainer.fit_many(
                graphs, seeds=SEEDS, model_factory=spec.factory(1, 2), batched=batched
            )
        for k in range(len(SEEDS)):
            assert (
                results[True].histories[k].train_loss == results[False].histories[k].train_loss
            ), f"{spec.name} seed {k}"
            assert_params_equal(results[True].models[k], results[False].models[k])

    def test_eight_seed_gat_roster_trains_batched_without_fallback(self):
        """ISSUE 7 acceptance: a default `fit_many` on an 8-seed GAT roster
        runs the batched engine end to end with no sequential-fallback
        warning."""
        nn_layers._SEQUENTIAL_FALLBACK_WARNED.clear()
        trainer = Trainer(
            None, "multiclass", TrainerConfig(epochs=1, batch_size=12),
            np.random.default_rng(3),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = trainer.fit_many(
                toy_graphs(24), seeds=tuple(range(8)),
                model_factory=encoder_spec("gat").factory(1, 2),
            )
        assert len(result.models) == 8


class TestSeedPrimitives:
    def test_seed_linear_shared_and_per_seed(self):
        rng = np.random.default_rng(0)
        w = Tensor(rng.normal(size=(3, 4, 5)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        shared = rng.normal(size=(7, 4))
        out = F.seed_linear(Tensor(shared), w, b)
        assert out.shape == (3, 7, 5)
        for k in range(3):
            np.testing.assert_allclose(out.data[k], shared @ w.data[k] + b.data[k])
        per_seed = Tensor(rng.normal(size=(3, 7, 4)), requires_grad=True)
        out2 = F.seed_linear(per_seed, w, b)
        out2.backward(np.ones_like(out2.data))
        assert per_seed.grad.shape == (3, 7, 4)
        assert w.grad.shape == (3, 4, 5)

    def test_seed_gather_and_segment_sum_match_per_seed(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 9, 6))
        idx = rng.integers(0, 9, size=14)
        seg = np.sort(rng.integers(0, 5, size=14))
        gathered = F.seed_gather(Tensor(x), idx)
        summed = F.seed_segment_sum(Tensor(gathered.data), seg, 5)
        for k in range(4):
            np.testing.assert_array_equal(gathered.data[k], x[k][idx])
            np.testing.assert_allclose(
                summed.data[k], F.segment_sum(Tensor(x[k][idx]), seg, 5).data
            )

    def test_scatter_and_gather_enforce_index_bounds(self):
        # The fast kernels bypass numpy's fancy-index checks; the wrappers
        # must keep np.add.at / x[ids] semantics: raise out of range, wrap
        # negatives.
        with pytest.raises(IndexError):
            F.segment_sum(Tensor(np.ones((3, 2))), np.array([0, 1, 5]), 2)
        with pytest.raises(IndexError):
            F.seed_gather(Tensor(np.ones((2, 4, 3))), np.array([0, 9]))
        with pytest.raises(IndexError):
            F.seed_segment_sum(Tensor(np.ones((2, 4, 3))), np.array([0, 1, 7]), 3)
        x = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
        x[np.array([-1, 0, 2])].sum().backward()
        expected = np.zeros((4, 3))
        np.add.at(expected, np.array([-1, 0, 2]), np.ones((3, 3)))
        np.testing.assert_array_equal(x.grad, expected)

    def test_scatter_add_rows_matches_add_at(self):
        rng = np.random.default_rng(2)
        for shape in [(30,), (30, 5), (30, 4, 3)]:
            values = rng.normal(size=shape)
            ids = rng.integers(0, 11, size=30)
            expected = np.zeros((11,) + shape[1:])
            np.add.at(expected, ids, values)
            out = np.zeros((11,) + shape[1:])
            F.scatter_add_rows(out, ids, values)
            np.testing.assert_allclose(out, expected, atol=1e-12)
        # Operands csc_matvecs cannot take in place go through the scipy
        # matrix fallback: a non-contiguous out, and float32 values into float64.
        ids = rng.integers(0, 11, size=30)
        for out, values in [
            (np.zeros((11, 10))[:, ::2], rng.normal(size=(30, 5))),
            (np.zeros((11, 5)), rng.normal(size=(30, 5)).astype(np.float32)),
        ]:
            expected = np.zeros((11, 5))
            np.add.at(expected, ids, values)
            F.scatter_add_rows(out, ids, values)
            np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_clip_grad_norm_per_seed_matches_sequential(self):
        rng = np.random.default_rng(3)
        stacked_grads = [rng.normal(size=(3, 4, 4)) * 3, rng.normal(size=(3, 4)) * 3]
        for k in range(3):
            per_seed = [Tensor(np.zeros((4, 4)), requires_grad=True), Tensor(np.zeros(4), requires_grad=True)]
            for p, g in zip(per_seed, stacked_grads):
                p.grad = g[k].copy()
            clip_grad_norm(per_seed, 1.0)
            stacked = [Tensor(np.zeros(g.shape), requires_grad=True) for g in stacked_grads]
            copies = [g.copy() for g in stacked_grads]
            for p, g in zip(stacked, copies):
                p.grad = g
            clip_grad_norm_per_seed(stacked, 1.0)
            for p_seq, g_stacked in zip(per_seed, copies):
                np.testing.assert_array_equal(p_seq.grad, g_stacked[k])

    def test_seed_prediction_loss_binary_and_regression(self):
        rng = np.random.default_rng(4)
        logits = Tensor(rng.normal(size=(2, 6, 3)))
        targets = rng.integers(0, 2, size=(6, 3)).astype(np.float64)
        targets[0, 1] = np.nan
        total, per_seed = seed_prediction_loss(logits, targets, "binary")
        for k in range(2):
            ref = weighted_prediction_loss(Tensor(logits.data[k]), targets, "binary")
            np.testing.assert_allclose(per_seed[k], float(ref.data), rtol=1e-12)
        preds = Tensor(rng.normal(size=(2, 6, 1)))
        y = rng.normal(size=(6, 1))
        total, per_seed = seed_prediction_loss(preds, y, "regression")
        for k in range(2):
            ref = weighted_prediction_loss(Tensor(preds.data[k]), y, "regression")
            np.testing.assert_allclose(per_seed[k], float(ref.data), rtol=1e-12)


class TestFitManyParity:
    def _fit(self, batched, graphs, seeds=SEEDS, epochs=4, eval_every=0):
        trainer = Trainer(
            None, "multiclass",
            TrainerConfig(epochs=epochs, batch_size=16, eval_every=eval_every),
            np.random.default_rng(3),
        )
        return trainer.fit_many(
            graphs[:32], graphs[32:] if eval_every else None,
            seeds=seeds, model_factory=gin_factory, batched=batched,
        )

    def test_batched_matches_sequential_bitwise(self):
        graphs = toy_graphs(40)
        res_b = self._fit(True, graphs)
        res_s = self._fit(False, graphs)
        for k in range(len(SEEDS)):
            np.testing.assert_allclose(
                res_b.histories[k].train_loss, res_s.histories[k].train_loss, rtol=1e-12
            )
            assert_params_equal(res_b.models[k], res_s.models[k])

    def test_parity_with_validation_model_selection(self):
        graphs = toy_graphs(48)
        res_b = self._fit(True, graphs, eval_every=1)
        res_s = self._fit(False, graphs, eval_every=1)
        for k in range(len(SEEDS)):
            assert res_b.histories[k].valid_metric == res_s.histories[k].valid_metric
            assert res_b.histories[k].best_metric == res_s.histories[k].best_metric
            assert_params_equal(res_b.models[k], res_s.models[k])

    def test_deterministic_under_fixed_seeds(self):
        graphs = toy_graphs(40)
        res_a = self._fit(True, graphs)
        res_b = self._fit(True, graphs)
        for k in range(len(SEEDS)):
            assert res_a.histories[k].train_loss == res_b.histories[k].train_loss
            assert_params_equal(res_a.models[k], res_b.models[k])

    def test_batched_models_evaluate_identically(self):
        graphs = toy_graphs(40)
        res_b = self._fit(True, graphs)
        res_s = self._fit(False, graphs)
        for k in range(len(SEEDS)):
            acc_b = evaluate_model(res_b.models[k], graphs[32:], "accuracy")
            acc_s = evaluate_model(res_s.models[k], graphs[32:], "accuracy")
            assert acc_b == acc_s

    def test_single_seed_batched_matches_plain_fit(self):
        graphs = toy_graphs(40)
        res = self._fit(True, graphs, seeds=(5,))
        model = gin_factory(5)
        import copy as _copy

        rng = np.random.default_rng(3)
        trainer = Trainer(
            model, "multiclass", TrainerConfig(epochs=4, batch_size=16), _copy.deepcopy(rng)
        )
        trainer.fit(graphs[:32])
        assert_params_equal(res.models[0], model)

    def test_empty_seeds_raise(self):
        trainer = Trainer(
            None, "multiclass", TrainerConfig(epochs=1), np.random.default_rng(0)
        )
        with pytest.raises(ValueError, match="at least one seed"):
            trainer.fit_many(toy_graphs(8), seeds=(), model_factory=gin_factory)


class _UnstackableClassifier(Module):
    """Synthetic model type with no registered seed stacker.

    Wraps a perfectly stackable GIN so the sequential fallback path still
    trains/serves normally; only the *type* is outside the registry.
    """

    def __init__(self, seed):
        super().__init__()
        self.inner = gin_factory(seed)

    def forward(self, batch):
        return self.inner(batch)


class TestSequentialFallbackWarning:
    """Unsupported encoders downgrade to sequential runs — loudly, once.

    FactorGCN is the real-roster example (its per-factor GEMV attention is
    deliberately unregistered, see conftest.ENCODER_SPECS); the synthetic
    `_UnstackableClassifier` exercises the same path for a model type the
    registry has never heard of, in both training and serving contexts.
    """

    _factorgcn_factory = staticmethod(encoder_spec("factorgcn").factory(1, 2))

    def _fit(self, graphs, batched, factory=None):
        trainer = Trainer(
            None, "multiclass", TrainerConfig(epochs=2, batch_size=12), np.random.default_rng(3)
        )
        return trainer.fit_many(
            graphs, seeds=SEEDS, model_factory=factory or self._factorgcn_factory,
            batched=batched,
        )

    def test_try_stack_warns_once_naming_the_encoder(self):
        nn_layers._SEQUENTIAL_FALLBACK_WARNED.clear()
        models = [self._factorgcn_factory(s) for s in SEEDS]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert try_stack_seed_modules(models) is None
            assert try_stack_seed_modules(models) is None  # second call stays silent
        relevant = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(relevant) == 1
        message = str(relevant[0].message)
        assert "FactorGCNConv" in message and "sequential" in message

    def test_fit_many_falls_back_with_warning_and_matches_sequential(self):
        nn_layers._SEQUENTIAL_FALLBACK_WARNED.clear()
        graphs = toy_graphs(24)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res_b = self._fit(graphs, batched=True)
        assert any(
            issubclass(w.category, RuntimeWarning) and "sequential" in str(w.message)
            for w in caught
        )
        res_s = self._fit(graphs, batched=False)
        for k in range(len(SEEDS)):
            assert res_b.histories[k].train_loss == res_s.histories[k].train_loss
            assert_params_equal(res_b.models[k], res_s.models[k])

    def test_synthetic_module_fit_many_warns_once_and_matches_sequential(self):
        nn_layers._SEQUENTIAL_FALLBACK_WARNED.clear()
        graphs = toy_graphs(24)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res_b = self._fit(graphs, batched=True, factory=_UnstackableClassifier)
            self._fit(graphs, batched=True, factory=_UnstackableClassifier)
        relevant = [
            w for w in caught
            if issubclass(w.category, RuntimeWarning) and "_UnstackableClassifier" in str(w.message)
        ]
        assert len(relevant) == 1  # keyed once per context/model pair
        assert "training" in str(relevant[0].message)
        res_s = self._fit(graphs, batched=False, factory=_UnstackableClassifier)
        for k in range(len(SEEDS)):
            assert_params_equal(res_b.models[k], res_s.models[k])

    def test_synthetic_module_serving_context_warns_separately(self):
        """The serving context has its own one-time warning key and wording."""
        nn_layers._SEQUENTIAL_FALLBACK_WARNED.clear()
        models = [_UnstackableClassifier(s) for s in (0, 1)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert try_stack_seed_modules(models, context="training") is None
            assert try_stack_seed_modules(models, context="serving") is None
            assert try_stack_seed_modules(models, context="serving") is None
        relevant = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(relevant) == 2  # one per context, never per call
        serving = str(relevant[1].message)
        assert "_UnstackableClassifier" in serving and "serving" in serving

    def test_ood_gnn_fit_many_rejects_unstackable_roster(self):
        """OOD-GNN trains on a seed stack only, so a FactorGCN roster raises
        in both modes instead of falling back."""
        cfg = OODGNNConfig(
            hidden_dim=8, num_layers=2, epochs=1, batch_size=12,
            reweight_epochs=2, warmup_fraction=1.0,
        )
        trainer = OODGNNTrainer(None, "multiclass", np.random.default_rng(3), config=cfg)
        for batched in (True, False):
            with pytest.raises(SeedStackingError, match="FactorGCNConv"):
                trainer.fit_many(
                    toy_graphs(24), seeds=(0, 1), model_factory=self._factorgcn_factory, batched=batched
                )


class TestOODGNNFitManyParity:
    def _fit(self, batched, graphs, cfg):
        trainer = OODGNNTrainer(None, "multiclass", np.random.default_rng(3), config=cfg)
        return trainer.fit_many(
            graphs[:32], graphs[32:], eval_every=2, seeds=SEEDS, batched=batched,
            model_factory=lambda s: OODGNN(1, 2, np.random.default_rng((s + 1) * 7919), config=cfg),
        )

    def _config(self):
        return OODGNNConfig(
            hidden_dim=8, num_layers=2, epochs=4, batch_size=16,
            reweight_epochs=3, warmup_fraction=0.25,
        )

    def test_batched_reweight_matches_sequential(self):
        """The seed-batched inner loop reproduces the sequential runs exactly.

        Each sequential ``fit`` is the K = 1 case of the same stacked
        loop, inner loop included, and a seed of a stack gives the bytes
        of its K = 1 run (tests/test_seed_batched_reweight.py), so
        histories and trained parameters are equal bit for bit.
        """
        graphs = toy_graphs(40)
        cfg = self._config()
        res_b = self._fit(True, graphs, cfg)
        res_s = self._fit(False, graphs, cfg)
        for k in range(len(SEEDS)):
            hb, hs = res_b.histories[k], res_s.histories[k]
            np.testing.assert_array_equal(hb.train_loss, hs.train_loss)
            np.testing.assert_array_equal(hb.decorrelation_loss, hs.decorrelation_loss)
            np.testing.assert_array_equal(hb.final_weights, hs.final_weights)
            pb = dict(res_b.models[k].named_parameters())
            ps = dict(res_s.models[k].named_parameters())
            for name in pb:
                np.testing.assert_array_equal(pb[name].data, ps[name].data, err_msg=f"seed {k} {name}")
