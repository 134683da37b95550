"""Sample-weight learning: projections, convergence, constraints."""

import numpy as np
import pytest

from reweight_reference import TapedWeightLearner
from repro.core import SampleWeightLearner, project_weights, RandomFourierFeatures


@pytest.fixture
def rng():
    return np.random.default_rng(53)


def confounded_representations(rng, n=200):
    """Two dimensions correlated through a latent factor; extra noise dims."""
    y = rng.integers(0, 2, n)
    causal = y + 0.3 * rng.normal(size=n)
    aligned = rng.random(n) < 0.8
    spurious = np.where(aligned, y, 1 - y) + 0.3 * rng.normal(size=n)
    noise = rng.normal(size=(n, 2))
    return np.column_stack([spurious, causal, noise]), aligned


class TestProjectWeights:
    def test_mean_is_one(self, rng):
        w = project_weights(rng.uniform(0, 5, size=20))
        assert w.mean() == pytest.approx(1.0)

    def test_nonnegative(self, rng):
        w = project_weights(rng.normal(size=20))
        assert (w >= 0).all()

    def test_ceiling_respected_before_rescale(self):
        w = project_weights(np.array([100.0, 1.0, 1.0]), ceiling=5.0)
        assert w.max() <= 5.0 * (3 / 7.0) + 1e-9

    def test_rescale_never_lifts_past_ceiling(self):
        """Clipped mass below n: the rescale grows the weights, so the
        capped entry is pinned at the ceiling and the rest share the mass."""
        w = project_weights(np.array([0.01] * 9 + [4.9]), ceiling=5.0)
        assert w[-1] == 5.0
        np.testing.assert_allclose(w[:-1], 5.0 / 9)
        assert w.mean() == pytest.approx(1.0)
        stack = np.array([[0.01] * 9 + [4.9], [1.0] * 10, [0.0] * 9 + [4.9]])
        out = project_weights(stack, ceiling=5.0)
        np.testing.assert_array_equal(out[0], w)
        np.testing.assert_array_equal(out[1], 1.0)
        np.testing.assert_allclose(out[2], [5.0 / 9] * 9 + [5.0])

    def test_ceiling_below_one_rejected(self):
        with pytest.raises(ValueError, match="ceiling"):
            project_weights(np.ones(4), ceiling=0.5)
        with pytest.raises(ValueError, match="max_weight"):
            SampleWeightLearner(RandomFourierFeatures(), max_weight=0.9)

    def test_all_negative_resets_to_uniform(self):
        w = project_weights(np.array([-1.0, -2.0]))
        np.testing.assert_allclose(w, 1.0)

    def test_idempotent(self, rng):
        w = project_weights(rng.uniform(0, 3, size=15))
        np.testing.assert_allclose(project_weights(w), w, atol=1e-12)


@pytest.fixture(params=[TapedWeightLearner, SampleWeightLearner], ids=["autograd", "fused"])
def learner_cls(request):
    """Every learner-level behaviour must hold for the engine and for the
    taped oracle the parity suites hold it to."""
    return request.param


class TestLearner:
    def test_loss_decreases(self, rng, learner_cls):
        z, _ = confounded_representations(rng)
        rff = RandomFourierFeatures(num_functions=5, rng=np.random.default_rng(1))
        learner = learner_cls(rff, epochs=40, lr=0.05, l2_penalty=0.05)
        result = learner.learn(z)
        assert result.final_loss < result.initial_loss

    def test_constraints_hold(self, rng, learner_cls):
        z, _ = confounded_representations(rng)
        rff = RandomFourierFeatures(num_functions=5, rng=np.random.default_rng(1))
        learner = learner_cls(rff, epochs=20, lr=0.1)
        result = learner.learn(z)
        assert result.weights.mean() == pytest.approx(1.0)
        assert result.weights.min() >= 0
        assert result.weights.max() <= learner.max_weight + 1e-9

    def test_upweights_counterexamples(self, rng, learner_cls):
        """Samples breaking the train-time correlation gain weight."""
        z, aligned = confounded_representations(rng)
        rff = RandomFourierFeatures(num_functions=5, rng=np.random.default_rng(1))
        learner = learner_cls(rff, epochs=60, lr=0.05, l2_penalty=0.02)
        result = learner.learn(z)
        assert result.weights[~aligned].mean() > result.weights[aligned].mean()

    def test_fixed_global_weights_not_returned(self, rng, learner_cls):
        z, _ = confounded_representations(rng, n=60)
        rff = RandomFourierFeatures(num_functions=2, rng=np.random.default_rng(1))
        learner = learner_cls(rff, epochs=5, lr=0.05)
        fixed = np.full(20, 2.0)
        result = learner.learn(z, fixed_weights=fixed)
        assert result.weights.shape == (40,)

    def test_all_fixed_raises(self, rng, learner_cls):
        z, _ = confounded_representations(rng, n=10)
        rff = RandomFourierFeatures(rng=np.random.default_rng(1))
        learner = learner_cls(rff, epochs=1)
        with pytest.raises(ValueError):
            learner.learn(z, fixed_weights=np.ones(10))

    def test_rejects_zero_epochs(self, rng):
        rff = RandomFourierFeatures(rng=rng)
        with pytest.raises(ValueError):
            SampleWeightLearner(rff, epochs=0)

    def test_linear_mode_runs(self, rng, learner_cls):
        z, _ = confounded_representations(rng, n=80)
        rff = RandomFourierFeatures(linear=True, rng=np.random.default_rng(1))
        learner = learner_cls(rff, epochs=10, lr=0.05)
        result = learner.learn(z)
        assert np.isfinite(result.final_loss)

    def test_standardisation_handles_large_scales(self, rng, learner_cls):
        z, _ = confounded_representations(rng, n=100)
        z_scaled = z * 1000.0
        rff = RandomFourierFeatures(num_functions=3, rng=np.random.default_rng(1))
        learner = learner_cls(rff, epochs=15, lr=0.05)
        result = learner.learn(z_scaled)
        assert result.final_loss < result.initial_loss

    def test_loss_trajectory_recorded(self, rng, learner_cls):
        z, _ = confounded_representations(rng, n=60)
        rff = RandomFourierFeatures(num_functions=2, rng=np.random.default_rng(1))
        learner = learner_cls(rff, epochs=7)
        result = learner.learn(z)
        assert len(result.losses) == 7
        assert result.final_loss == result.losses[-1]

    @pytest.mark.parametrize("fraction", [1.0, 0.5])
    def test_decorrelation_loss_leaves_the_rff_stream_alone(self, rng, learner_cls, fraction):
        """The history-only diagnostic draws from a copy of the sampler: the
        sampler's rng state is unchanged by the call, so the next inner loop
        draws the features it would draw without it — the very features the
        diagnostic evaluated."""
        z, _ = confounded_representations(rng, n=40)
        rff = RandomFourierFeatures(num_functions=3, fraction=fraction, rng=np.random.default_rng(1))
        learner = learner_cls(rff, epochs=3)
        state = rff.rng.bit_generator.state
        loss = learner.decorrelation_loss(z, np.ones(len(z)))
        assert rff.rng.bit_generator.state == state
        assert learner.decorrelation_loss(z, np.ones(len(z))) == loss
        assert learner.learn(z).initial_loss == pytest.approx(loss, rel=1e-9)
