"""Autograd-parity suite for the closed-form reweighting engine.

The engine (`repro.core.fused`) must be numerically indistinguishable
from the taped objective: loss and analytical gradient to 1e-8 across
shapes, weight vectors and feature-map settings, full inner-loop
trajectories against the taped oracle (`reweight_reference.py`), and an
Adam update rule that matches `repro.nn.optim.Adam` bit for bit.  The
engine runs here at K = 1, the single-seed case `learn` uses; the stacked
case is held to it byte for byte by `test_seed_batched_reweight.py`.
"""

from unittest import mock

import numpy as np
import pytest

from reweight_reference import TapedWeightLearner
from repro.autograd.grad_check import numerical_gradient
from repro.autograd.tensor import Tensor
from repro.core import (
    InPlaceAdam,
    OODGNN,
    OODGNNConfig,
    OODGNNTrainer,
    RandomFourierFeatures,
    SampleWeightLearner,
    SeedFusedDecorrelation,
)
from repro.core import ood_gnn
from repro.core.fused import DUAL_MODE_AUTO_MAX_GRAM_ELEMENTS
from repro.core.hsic import cached_block_offdiagonal_mask, pairwise_decorrelation_loss
from repro.graph.generators import erdos_renyi
from repro.nn.optim import Adam

PARITY_ATOL = 1e-8

# (n, d, Q) shapes spanning both engine modes: dual kicks in for n <= 8*d*Q.
SHAPES = [
    (8, 3, 2),      # tiny, dual
    (12, 2, 1),     # minimal Q and d, dual
    (40, 6, 3),     # mid, dual
    (64, 16, 4),    # wide, dual
    (100, 3, 1),    # n > 8p, primal in auto mode
    (200, 4, 2),    # n > 8p, primal in auto mode
]


class SingleSeedEngine:
    """The engine at K = 1, with the seed axis stripped from its results."""

    def __init__(self, feats, mode="auto"):
        self.stack = SeedFusedDecorrelation(np.asarray(feats)[None], mode=mode)
        self.mode = self.stack.mode

    def loss_and_grad(self, w):
        loss, grad = self.stack.loss_and_grad(np.asarray(w)[None])
        return float(loss[0]), grad[0]

    def loss(self, w):
        return float(self.stack.loss(np.asarray(w)[None])[0])


def reference_loss_and_grad(feats, w):
    wt = Tensor(np.asarray(w, dtype=np.float64).copy(), requires_grad=True)
    loss = pairwise_decorrelation_loss(feats, wt)
    loss.backward()
    return float(loss.data), wt.grad


def weight_vectors(rng, n):
    mean_one = rng.uniform(0.1, 2.0, size=n)
    mean_one *= n / mean_one.sum()
    return {
        "uniform": np.ones(n),
        "positive": rng.uniform(0.2, 3.0, size=n),
        "mean-one": mean_one,
    }


class TestEngineParity:
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("mode", ["primal", "dual", "auto"])
    def test_loss_and_grad_match_autograd(self, shape, mode):
        n, d, q = shape
        rng = np.random.default_rng(hash(shape) % 2**31)
        feats = rng.normal(size=(n, d, q))
        engine = SingleSeedEngine(feats, mode=mode)
        for name, w in weight_vectors(rng, n).items():
            ref_loss, ref_grad = reference_loss_and_grad(feats, w)
            loss, grad = engine.loss_and_grad(w)
            assert loss == pytest.approx(ref_loss, abs=PARITY_ATOL), (name, mode)
            np.testing.assert_allclose(grad, ref_grad, atol=PARITY_ATOL, err_msg=f"{name}/{mode}")
            assert engine.loss(w) == pytest.approx(loss, abs=PARITY_ATOL)

    @pytest.mark.parametrize("mode", ["primal", "dual"])
    def test_rff_and_linear_feature_maps(self, mode):
        """Parity holds on actual RFF outputs, including the no-RFF ablation."""
        rng = np.random.default_rng(3)
        z = rng.normal(size=(30, 5))
        for rff in (
            RandomFourierFeatures(num_functions=4, rng=np.random.default_rng(0)),
            RandomFourierFeatures(linear=True, rng=np.random.default_rng(0)),
            RandomFourierFeatures(num_functions=2, fraction=0.5, rng=np.random.default_rng(0)),
        ):
            feats = rff(z)
            w = rng.uniform(0.3, 2.0, size=30)
            ref_loss, ref_grad = reference_loss_and_grad(feats, w)
            loss, grad = SingleSeedEngine(feats, mode=mode).loss_and_grad(w)
            assert loss == pytest.approx(ref_loss, abs=PARITY_ATOL)
            np.testing.assert_allclose(grad, ref_grad, atol=PARITY_ATOL)

    @pytest.mark.parametrize("mode", ["primal", "dual"])
    def test_analytical_gradient_passes_grad_check(self, mode):
        """Central differences certify the closed-form gradient directly."""
        rng = np.random.default_rng(11)
        feats = rng.normal(size=(10, 3, 2))
        engine = SingleSeedEngine(feats, mode=mode)
        w = Tensor(rng.uniform(0.5, 1.5, size=10), requires_grad=True)
        _, analytic = engine.loss_and_grad(w.data)
        numeric = numerical_gradient(lambda: Tensor(np.asarray(engine.loss(w.data))), w)
        np.testing.assert_allclose(analytic, numeric, atol=1e-5, rtol=1e-4)

    def test_auto_mode_selection(self):
        rng = np.random.default_rng(0)
        assert SingleSeedEngine(rng.normal(size=(16, 4, 2)), mode="auto").mode == "dual"
        assert SingleSeedEngine(rng.normal(size=(100, 3, 1)), mode="auto").mode == "primal"
        big_n = int(np.sqrt(DUAL_MODE_AUTO_MAX_GRAM_ELEMENTS)) + 1
        assert big_n > 8 * 6  # memory preference aside, ratio rule already picks primal
        assert SingleSeedEngine(rng.normal(size=(big_n, 3, 2)), mode="auto").mode == "primal"

    def test_input_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            SingleSeedEngine(rng.normal(size=(5, 3)))
        with pytest.raises(ValueError):
            SingleSeedEngine(rng.normal(size=(5, 1, 2)))
        with pytest.raises(ValueError):
            SingleSeedEngine(rng.normal(size=(5, 3, 2)), mode="nope")
        engine = SingleSeedEngine(rng.normal(size=(5, 3, 2)))
        with pytest.raises(ValueError):
            engine.loss(np.ones(4))

    def test_block_mask_cached_and_immutable(self):
        a = cached_block_offdiagonal_mask(4, 3)
        b = cached_block_offdiagonal_mask(4, 3)
        assert a is b
        assert not a.flags.writeable
        from repro.core.hsic import block_offdiagonal_mask

        np.testing.assert_array_equal(a, block_offdiagonal_mask(4, 3))


class TestLearnerParity:
    def _learners(self, num_functions=3, fraction=1.0, linear=False, **kwargs):
        def make(cls):
            # Identically-seeded samplers: the engine and the oracle consume
            # the rng through the same calls, so they see the same features.
            rff = RandomFourierFeatures(
                num_functions=num_functions,
                fraction=fraction,
                linear=linear,
                rng=np.random.default_rng(17),
            )
            return cls(rff, **kwargs)

        return make(TapedWeightLearner), make(SampleWeightLearner)

    @pytest.mark.parametrize(
        "case",
        [
            dict(),
            dict(linear=True),
            dict(fraction=0.6, num_functions=2),
        ],
        ids=["default", "linear", "fraction"],
    )
    def test_trajectories_match(self, case):
        """The engine walks the oracle's loss trajectory to 1e-8."""
        rng = np.random.default_rng(5)
        z = rng.normal(size=(50, 6))
        z[:, 1] = np.tanh(z[:, 0]) + 0.1 * rng.normal(size=50)
        oracle, fused = self._learners(epochs=5, lr=0.05, l2_penalty=0.05, **case)
        res_a = oracle.learn(z)
        res_f = fused.learn(z)
        assert res_f.initial_loss == pytest.approx(res_a.initial_loss, abs=PARITY_ATOL)
        np.testing.assert_allclose(res_f.losses, res_a.losses, atol=PARITY_ATOL)
        np.testing.assert_allclose(res_f.weights, res_a.weights, atol=PARITY_ATOL)

    def test_trajectories_match_with_fixed_global_weights(self):
        rng = np.random.default_rng(9)
        z = rng.normal(size=(60, 5))
        oracle, fused = self._learners(epochs=4, lr=0.1, l2_penalty=0.1)
        fixed = np.full(20, 1.5)
        res_a = oracle.learn(z, fixed_weights=fixed)
        res_f = fused.learn(z, fixed_weights=fixed)
        assert res_f.weights.shape == (40,)
        np.testing.assert_allclose(res_f.losses, res_a.losses, atol=PARITY_ATOL)
        np.testing.assert_allclose(res_f.weights, res_a.weights, atol=PARITY_ATOL)

    def test_decorrelation_loss_float_matches_taped(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=(30, 4))
        oracle, fused = self._learners()
        w = rng.uniform(0.5, 1.5, size=30)
        value = fused.decorrelation_loss(z, w)
        assert type(value) is float
        assert value == pytest.approx(oracle.decorrelation_loss(z, w), abs=PARITY_ATOL)


class TestInPlaceAdam:
    def test_matches_reference_adam(self):
        rng = np.random.default_rng(21)
        start = rng.normal(size=12)
        ref_param = Tensor(start.copy(), requires_grad=True)
        ref_opt = Adam([ref_param], lr=0.03)
        fused_param = start.copy()
        fused_opt = InPlaceAdam(12, lr=0.03)
        for step in range(25):
            grad = np.sin(fused_param + step)  # deterministic pseudo-gradients
            ref_param.grad = np.sin(ref_param.data + step)
            ref_opt.step()
            fused_opt.step(fused_param, grad)
            np.testing.assert_array_equal(fused_param, ref_param.data)

    def test_rejects_bad_lr(self):
        with pytest.raises(ValueError):
            InPlaceAdam(4, lr=0.0)


def _toy_graphs(seed, n=30):
    rng = np.random.default_rng(seed)
    graphs = []
    for i in range(n):
        label = i % 2
        g = erdos_renyi(int(rng.integers(6, 10)), 0.7 if label else 0.15, rng)
        g.y = label
        graphs.append(g)
    return graphs


def _fit_history(engine, seed=13):
    """A short OOD-GNN fit; ``engine="autograd"`` routes the trainer's inner
    loop and warmup diagnostics through the taped oracle."""
    cfg = OODGNNConfig(
        hidden_dim=8,
        num_layers=2,
        epochs=3,
        batch_size=10,
        reweight_epochs=3,
        warmup_fraction=0.34,
    )
    model = OODGNN(1, 2, np.random.default_rng(seed), config=cfg)
    trainer = OODGNNTrainer(model, "multiclass", np.random.default_rng(seed + 1), config=cfg)
    graphs = _toy_graphs(seed + 2)
    if engine == "fused":
        return trainer.fit(graphs)
    fused = trainer.weight_learner
    trainer.weight_learner = TapedWeightLearner(
        fused.rff, epochs=fused.epochs, lr=fused.lr,
        l2_penalty=fused.l2_penalty, max_weight=fused.max_weight,
    )
    rosters = []

    def taped_roster(learners, representations, fixed_weights=None):
        # The trainer's loop hands every inner loop to learn_many as a
        # roster; run each seed's own (taped) learn instead.
        rosters.append([type(learner) for learner in learners])
        return [
            learner.learn(z, None if fixed_weights is None else fixed_weights[k])
            for k, (learner, z) in enumerate(zip(learners, representations))
        ]

    with mock.patch.object(ood_gnn, "learn_many", taped_roster):
        history = trainer.fit(graphs)
    # 30 graphs in batches of 10, and 2 of the 3 epochs past warmup.
    assert rosters == [[TapedWeightLearner]] * 6
    return history


class TestTrainerDeterminism:
    @pytest.mark.parametrize("engine", ["autograd", "fused"])
    def test_same_seed_identical_histories(self, engine):
        """Two fit runs with the same seed are bitwise identical."""
        h1 = _fit_history(engine)
        h2 = _fit_history(engine)
        assert h1.train_loss == h2.train_loss
        assert h1.decorrelation_loss == h2.decorrelation_loss
        np.testing.assert_array_equal(h1.final_weights, h2.final_weights)

    def test_backends_agree_on_early_dynamics(self):
        """Loss histories of the engine and the oracle stay close over a short run."""
        h_auto = _fit_history("autograd")
        h_fused = _fit_history("fused")
        np.testing.assert_allclose(h_fused.train_loss, h_auto.train_loss, rtol=1e-5)
        np.testing.assert_allclose(
            h_fused.decorrelation_loss, h_auto.decorrelation_loss, rtol=1e-5
        )
