"""Seed-batched inner reweighting loop: seed k of a stack is its K = 1 run.

The contracts under test (see docs/ARCHITECTURE.md):

* `SeedFusedDecorrelation` over a ``(K, n, d, Q)`` stack gives, for each
  seed, the bytes of a K = 1 engine on that seed's features (loss,
  gradient) in primal, dual and auto modes, including degenerate inputs
  (constant features).
* `learn_many` gives, for each seed, the bytes of that learner's own
  `SampleWeightLearner.learn` call (loss trajectories, final weights)
  for K in {1, 3, 8}, with fixed global rows and a single local row, and
  rejects rosters whose shared settings differ.
* Dual mode runs n = 4096 without a Gram-size cap.
"""

import numpy as np
import pytest

from repro.core import (
    InPlaceAdam,
    RandomFourierFeatures,
    SampleWeightLearner,
    SeedFusedDecorrelation,
    learn_many,
)

PARITY_ATOL = 1e-8
SEED_COUNTS = (1, 3, 8)


def _feature_stack(k, n=24, d=4, q=3, seed=0):
    return np.random.default_rng(seed).normal(size=(k, n, d, q))


def _weight_stack(rng, k, n):
    w = rng.uniform(0.2, 2.5, size=(k, n))
    return w


def _k1_loss_and_grad(feats, w, mode):
    """One seed evaluated by a K = 1 engine."""
    loss, grad = SeedFusedDecorrelation(feats[None], mode=mode).loss_and_grad(w[None])
    return loss[0], grad[0]


def _assert_same_result(rb, rs):
    """Two inner-loop results equal bit for bit."""
    assert rb.initial_loss == rs.initial_loss
    assert rb.final_loss == rs.final_loss == rb.losses[-1]
    np.testing.assert_array_equal(rb.losses, rs.losses)
    np.testing.assert_array_equal(rb.weights, rs.weights)


def _learner(seed, **kwargs):
    params = dict(epochs=5, lr=0.05, l2_penalty=0.05)
    params.update(kwargs)
    rff = RandomFourierFeatures(
        num_functions=params.pop("num_functions", 3),
        fraction=params.pop("fraction", 1.0),
        linear=params.pop("linear", False),
        rng=np.random.default_rng(100 + seed),
    )
    return SampleWeightLearner(rff, **params)


class TestSeedEngineParity:
    @pytest.mark.parametrize("k", SEED_COUNTS)
    @pytest.mark.parametrize("mode", ["primal", "dual", "auto"])
    def test_matches_k_scalar_engines(self, k, mode):
        """Each seed of the stack equals a K = 1 engine on its features, bitwise."""
        rng = np.random.default_rng(k)
        feats = _feature_stack(k, seed=k)
        engine = SeedFusedDecorrelation(feats, mode=mode)
        w = _weight_stack(rng, k, feats.shape[1])
        loss, grad = engine.loss_and_grad(w)
        assert loss.shape == (k,) and grad.shape == w.shape
        np.testing.assert_array_equal(engine.loss(w), loss)
        for i in range(k):
            ref_loss, ref_grad = _k1_loss_and_grad(feats[i], w[i], mode)
            assert loss[i] == ref_loss, (mode, i)
            np.testing.assert_array_equal(grad[i], ref_grad, err_msg=f"{mode}/{i}")

    @pytest.mark.parametrize("mode", ["primal", "dual"])
    @pytest.mark.parametrize("d", [32, 64])
    def test_seed_slices_exact_at_training_widths(self, mode, d):
        """p = d*Q = 160 and 320: the primal loss sums p^2 elements, past
        einsum's 8192-element buffer, where an einsum reduction splits
        differently at K = 1 than in a stack."""
        rng = np.random.default_rng(d)
        feats = rng.normal(size=(3, 64, d, 5))
        w = _weight_stack(rng, 3, 64)
        loss, grad = SeedFusedDecorrelation(feats, mode=mode).loss_and_grad(w)
        for i in range(3):
            ref_loss, ref_grad = _k1_loss_and_grad(feats[i], w[i], mode)
            assert loss[i] == ref_loss, (mode, i)
            np.testing.assert_array_equal(grad[i], ref_grad)

    @pytest.mark.parametrize("mode", ["primal", "dual"])
    def test_constant_features_parity_and_uniform_zero(self, mode):
        """Degenerate case: constant features still match their K = 1 runs.

        With uniform weights the weighted rows centre to zero, so the
        loss vanishes exactly; non-uniform weights keep a nonzero loss
        (the weighted rows differ) and must match seed-by-seed.
        """
        feats = np.ones((3, 10, 4, 2)) * np.arange(1, 4)[:, None, None, None]
        engine = SeedFusedDecorrelation(feats, mode=mode)
        np.testing.assert_allclose(engine.loss(np.ones((3, 10))), 0.0, atol=1e-18)
        w = np.random.default_rng(0).uniform(0.5, 1.5, size=(3, 10))
        loss, grad = engine.loss_and_grad(w)
        for i in range(3):
            ref_loss, ref_grad = _k1_loss_and_grad(feats[i], w[i], mode)
            assert loss[i] == ref_loss
            np.testing.assert_array_equal(grad[i], ref_grad)

    def test_refresh_reuses_buffers_and_tracks_features(self):
        rng = np.random.default_rng(5)
        a, b = _feature_stack(3, seed=1), _feature_stack(3, seed=2)
        engine = SeedFusedDecorrelation(a, mode="dual")
        refreshed = engine.refresh(b)
        assert refreshed is engine
        w = _weight_stack(rng, 3, a.shape[1])
        loss, grad = engine.loss_and_grad(w)
        fresh_loss, fresh_grad = SeedFusedDecorrelation(b, mode="dual").loss_and_grad(w)
        np.testing.assert_array_equal(loss, fresh_loss)
        np.testing.assert_array_equal(grad, fresh_grad)
        with pytest.raises(ValueError, match="refresh features shape"):
            engine.refresh(_feature_stack(3, n=30, seed=3))

    def test_input_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="expected"):
            SeedFusedDecorrelation(rng.normal(size=(5, 3, 2)))
        with pytest.raises(ValueError, match="two samples"):
            SeedFusedDecorrelation(rng.normal(size=(2, 1, 3, 2)))
        with pytest.raises(ValueError, match="two representation dimensions"):
            SeedFusedDecorrelation(rng.normal(size=(2, 5, 1, 2)))
        with pytest.raises(ValueError, match="mode"):
            SeedFusedDecorrelation(rng.normal(size=(2, 5, 3, 2)), mode="nope")
        engine = SeedFusedDecorrelation(rng.normal(size=(2, 5, 3, 2)))
        with pytest.raises(ValueError, match="weights"):
            engine.loss(np.ones(5))

    def test_scalar_engine_rejects_single_sample(self):
        """The single-seed (K = 1) engine needs two samples too."""
        with pytest.raises(ValueError, match="two samples"):
            SeedFusedDecorrelation(np.random.default_rng(0).normal(size=(1, 1, 3, 2)))


class TestBlockedGram:
    """The dual mode's per-batch Gram caches."""

    def test_seed_engine_carries_no_quadratic_scratch(self):
        """The moment-form dual path caches Gram moments, not P/R blocks.

        The seed engine's per-evaluation intermediates are all (K, n) or
        smaller — the only O(n^2) state is the per-batch squared-Gram
        cache (plus the linear-size pair products), nothing per-epoch.
        """
        feats = _feature_stack(4, n=30, seed=4)
        engine = SeedFusedDecorrelation(feats, mode="dual")
        assert engine._k2.shape == (4, 30, 30)
        x = feats.reshape(4, 30, -1)
        gram = np.matmul(x, x.transpose(0, 2, 1))
        np.testing.assert_allclose(engine._k2, gram * gram, rtol=1e-12)
        # Pair products stored for the q(q+1)/2 upper-triangle pairs only,
        # sample-minor so the per-epoch matvecs stream contiguously.
        assert engine._ppt.shape == (4, 4 * (3 * 4 // 2), 30)

    def test_dual_mode_runs_large_batch_without_cap(self):
        """n = 4096 dual evaluation on the K = 1 engine: no Gram-size cap."""
        rng = np.random.default_rng(99)
        feats = rng.normal(size=(1, 4096, 2, 2))
        w = np.ones((1, 4096))
        loss, grad = SeedFusedDecorrelation(feats, mode="dual").loss_and_grad(w)
        assert np.isfinite(loss).all() and np.isfinite(grad).all()
        # Spot-check against the primal evaluation of the same objective.
        ref_loss, ref_grad = SeedFusedDecorrelation(feats, mode="primal").loss_and_grad(w)
        np.testing.assert_allclose(loss, ref_loss, atol=PARITY_ATOL)
        np.testing.assert_allclose(grad, ref_grad, atol=PARITY_ATOL)


class TestLearnManyParity:
    @pytest.mark.parametrize("k", SEED_COUNTS)
    def test_matches_sequential_learns(self, k):
        rng = np.random.default_rng(k + 50)
        reps = rng.normal(size=(k, 40, 6))
        res_b = learn_many([_learner(s) for s in range(k)], reps)
        res_s = [_learner(s).learn(reps[s]) for s in range(k)]
        for rb, rs in zip(res_b, res_s):
            _assert_same_result(rb, rs)

    def test_matches_sequential_with_fixed_global_weights(self):
        rng = np.random.default_rng(7)
        k = 3
        reps = rng.normal(size=(k, 50, 5))
        fixed = np.tile(np.full(18, 1.4), (k, 1))
        res_b = learn_many([_learner(s) for s in range(k)], reps, fixed_weights=fixed)
        res_s = [_learner(s).learn(reps[s], fixed_weights=fixed[s]) for s in range(k)]
        for rb, rs in zip(res_b, res_s):
            assert rb.weights.shape == (32,)
            _assert_same_result(rb, rs)

    def test_single_local_row_under_fixed_globals(self):
        """Degenerate n_local = 1: the stacked loop still matches learn()."""
        rng = np.random.default_rng(8)
        k = 2
        reps = rng.normal(size=(k, 12, 4))
        fixed = np.tile(np.full(11, 1.0), (k, 1))
        res_b = learn_many([_learner(s) for s in range(k)], reps, fixed_weights=fixed)
        res_s = [_learner(s).learn(reps[s], fixed_weights=fixed[s]) for s in range(k)]
        for rb, rs in zip(res_b, res_s):
            assert rb.weights.shape == (1,)
            _assert_same_result(rb, rs)

    def test_constant_representations_stay_uniform(self):
        """Degenerate features: zero loss, zero gradient, weights stay one."""
        k = 3
        reps = np.ones((k, 20, 4))
        res_b = learn_many([_learner(s) for s in range(k)], reps)
        res_s = [_learner(s).learn(reps[s]) for s in range(k)]
        for rb, rs in zip(res_b, res_s):
            _assert_same_result(rb, rs)
            np.testing.assert_allclose(rb.weights, 1.0, atol=1e-6)

    @pytest.mark.parametrize(
        "setting",
        [dict(epochs=4), dict(lr=0.1), dict(l2_penalty=0.2), dict(max_weight=3.0),
         dict(num_functions=2), dict(fraction=0.5), dict(linear=True)],
        ids=lambda setting: next(iter(setting)),
    )
    def test_mismatched_roster_rejected(self, setting):
        """One stacked loop applies one setting to every seed, so a roster
        whose learners differ is an error, not K sequential loops."""
        reps = np.random.default_rng(11).normal(size=(3, 20, 4))
        learners = [_learner(0), _learner(1, **setting), _learner(2)]
        with pytest.raises(ValueError, match=r"learners \[1\] differ"):
            learn_many(learners, reps)

    def test_engine_cache_refreshes_across_calls(self):
        """Same-shape consecutive stacks reuse the lead learner's engine."""
        rng = np.random.default_rng(12)
        learners = [_learner(s) for s in range(3)]
        reps1 = rng.normal(size=(3, 30, 5))
        reps2 = rng.normal(size=(3, 30, 5))
        learn_many(learners, reps1)
        engine = learners[0]._seed_engine
        assert engine is not None
        res = learn_many(learners, reps2)
        assert learners[0]._seed_engine is engine  # refreshed, not rebuilt
        fresh = [_learner(s) for s in range(3)]
        for f in fresh:
            f.rff(np.zeros((30, 5)))  # advance streams past the first call
        res_ref = [f.learn(reps2[k]) for k, f in enumerate(fresh)]
        for rb, rs in zip(res, res_ref):
            _assert_same_result(rb, rs)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="at least one learner"):
            learn_many([], np.zeros((0, 5, 3)))
        with pytest.raises(ValueError, match="representations"):
            learn_many([_learner(0)], np.zeros((2, 5, 3)))
        with pytest.raises(ValueError, match="no local rows"):
            learn_many([_learner(0)], np.ones((1, 6, 3)), fixed_weights=np.ones((1, 6)))


class TestStackedAdam:
    def test_stacked_step_matches_independent_optimisers(self):
        rng = np.random.default_rng(20)
        k, n = 4, 9
        stacked_param = rng.normal(size=(k, n))
        per_seed_params = [stacked_param[i].copy() for i in range(k)]
        stacked_opt = InPlaceAdam((k, n), lr=0.03)
        per_seed_opts = [InPlaceAdam(n, lr=0.03) for _ in range(k)]
        for step in range(20):
            grad = np.sin(stacked_param + step)
            stacked_opt.step(stacked_param, grad)
            for i in range(k):
                per_seed_opts[i].step(per_seed_params[i], np.sin(per_seed_params[i] + step))
                np.testing.assert_array_equal(stacked_param[i], per_seed_params[i])
