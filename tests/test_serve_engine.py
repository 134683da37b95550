"""Inference engine: micro-batching, seed ensembles, OOD scoring, queue API."""

import threading
import time
import warnings

import numpy as np
import pytest

from repro.autograd import inference_mode
from repro.encoders import build_model
from repro.graph.data import Graph, GraphBatch
from repro.graph.generators import erdos_renyi
from repro.serve import (
    BatchBudget,
    EnergyCalibration,
    FeatureSchema,
    InferenceEngine,
    ModelArtifact,
    ModelSpec,
    PendingResult,
    energy_score,
    fit_energy_threshold,
    plan_microbatches,
)

FEATURE_DIM, OUT_DIM = 4, 3
SCHEMA = FeatureSchema(feature_dim=FEATURE_DIM, out_dim=OUT_DIM, task_type="multiclass", num_classes=OUT_DIM)


def make_graphs(rng, count=10, lo=5, hi=14):
    graphs = []
    for _ in range(count):
        g = erdos_renyi(int(rng.integers(lo, hi)), 0.5, rng)
        g.x = rng.normal(size=(g.num_nodes, FEATURE_DIM))
        graphs.append(g)
    return graphs


def make_engine(rng, num_seeds=1, **kwargs):
    models = [
        build_model("gin", FEATURE_DIM, OUT_DIM, np.random.default_rng(50 + k), hidden_dim=8, num_layers=2)
        for k in range(num_seeds)
    ]
    return InferenceEngine.from_models(models, SCHEMA, **kwargs), models


@pytest.fixture
def rng():
    return np.random.default_rng(11)


class TestBatchPlanning:
    def test_respects_max_graphs(self):
        plan = plan_microbatches([5] * 7, BatchBudget(max_graphs=3))
        assert plan == [[0, 1, 2], [3, 4, 5], [6]]

    def test_respects_max_nodes(self):
        plan = plan_microbatches([10, 10, 10, 10], BatchBudget(max_graphs=10, max_nodes=25))
        assert plan == [[0, 1], [2, 3]]

    def test_oversized_request_gets_own_batch(self):
        plan = plan_microbatches([5, 100, 5], BatchBudget(max_graphs=10, max_nodes=20))
        assert plan == [[0], [1], [2]]

    def test_order_preserved(self):
        plan = plan_microbatches([3, 30, 3, 3], BatchBudget(max_graphs=10, max_nodes=10))
        assert [i for batch in plan for i in batch] == [0, 1, 2, 3]

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            BatchBudget(max_graphs=0)
        with pytest.raises(ValueError):
            BatchBudget(max_graphs=1, max_nodes=0)


class TestEnergyScore:
    def test_multiclass_matches_manual_logsumexp(self, rng):
        logits = rng.normal(size=(6, 4))
        from scipy.special import logsumexp

        np.testing.assert_allclose(
            energy_score(logits, "multiclass", temperature=1.0), -logsumexp(logits, axis=1)
        )

    def test_temperature_scaling(self, rng):
        logits = rng.normal(size=(5, 4))
        t = 2.5
        from scipy.special import logsumexp

        np.testing.assert_allclose(
            energy_score(logits, "multiclass", temperature=t), -t * logsumexp(logits / t, axis=1)
        )

    def test_binary_matches_manual_symmetric_logsumexp(self, rng):
        from scipy.special import logsumexp

        logits = rng.normal(size=(5, 2))
        # Each task's logit z expands to the two-class logits [z/2, -z/2].
        two_class = np.stack([logits / 2.0, -logits / 2.0], axis=-1)
        expected = (-logsumexp(two_class, axis=-1)).mean(axis=1)
        np.testing.assert_allclose(energy_score(logits, "binary"), expected)

    def test_binary_energy_symmetric_and_peaks_at_uncertain(self):
        """Confident predictions of EITHER class get low energy; z=0 is max.

        The naive implicit-zero-logit form is monotone in z and would flag
        confident in-distribution negatives as OOD.
        """
        z = np.array([[-10.0], [-1.0], [0.0], [1.0], [10.0]])
        energies = energy_score(z, "binary")
        np.testing.assert_allclose(energies[0], energies[4])
        np.testing.assert_allclose(energies[1], energies[3])
        assert energies[2] == max(energies)
        assert energies[0] < energies[1] < energies[2]
        np.testing.assert_allclose(energies[2], -np.log(2.0))

    def test_single_row(self, rng):
        logits = rng.normal(size=4)
        assert np.isscalar(float(energy_score(logits, "multiclass")))

    def test_regression_has_no_energy(self):
        with pytest.raises(ValueError, match="regression"):
            energy_score(np.zeros((2, 1)), "regression")

    @pytest.mark.parametrize("temperature", [0.0, -1.0, float("nan")])
    def test_rejects_non_positive_temperature(self, temperature):
        with pytest.raises(ValueError, match="temperature must be > 0"):
            energy_score(np.zeros((2, 3)), "multiclass", temperature=temperature)

    def test_confident_logits_have_lower_energy(self):
        confident = np.array([[10.0, -5.0, -5.0]])
        diffuse = np.array([[0.1, 0.0, -0.1]])
        assert energy_score(confident, "multiclass")[0] < energy_score(diffuse, "multiclass")[0]


class TestCalibration:
    def test_threshold_is_quantile(self, rng):
        energies = rng.normal(size=500)
        cal = fit_energy_threshold(energies, quantile=0.9)
        assert cal.threshold == pytest.approx(np.quantile(energies, 0.9))
        flagged = cal.is_ood(energies).mean()
        assert 0.05 < flagged < 0.15

    def test_round_trip(self):
        cal = EnergyCalibration(threshold=1.5, temperature=2.0, quantile=0.9)
        assert EnergyCalibration.from_dict(cal.to_dict()) == cal

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            fit_energy_threshold(np.array([]))
        with pytest.raises(ValueError):
            fit_energy_threshold(np.ones(3), quantile=1.5)


class TestPredict:
    def test_matches_direct_forward_bitwise(self, rng):
        engine, (model,) = make_engine(rng, max_graphs=4)
        graphs = make_graphs(rng)
        results = engine.predict(graphs)
        model.eval()
        with inference_mode():
            direct = model(GraphBatch.from_graphs(graphs)).data
        for i, result in enumerate(results):
            np.testing.assert_allclose(result.output, direct[i], rtol=0, atol=1e-12)
            assert result.index == i
            assert result.label == int(np.argmax(result.probs))

    def test_single_request_is_exactly_direct(self, rng):
        engine, (model,) = make_engine(rng)
        (graph,) = make_graphs(rng, 1)
        result = engine.predict_one(graph)
        with inference_mode():
            expected = model(GraphBatch.from_graphs([graph])).data[0]
        np.testing.assert_array_equal(result.output, expected)

    def test_probs_sum_to_one(self, rng):
        engine, _ = make_engine(rng)
        for result in engine.predict(make_graphs(rng, 4)):
            assert result.probs.sum() == pytest.approx(1.0)
            assert result.energy is not None
            assert result.is_ood is None  # uncalibrated

    def test_calibrated_flags(self, rng):
        engine, _ = make_engine(rng)
        graphs = make_graphs(rng, 20)
        calibration = engine.calibrate(graphs, quantile=0.75)
        results = engine.predict(graphs)
        flags = [r.is_ood for r in results]
        assert any(flags) and not all(flags)
        manual = [r.energy > calibration.threshold for r in results]
        assert flags == manual

    def test_rejects_wrong_feature_dim(self, rng):
        engine, _ = make_engine(rng)
        bad = Graph(x=np.ones((3, FEATURE_DIM + 2)), edge_index=np.zeros((2, 0)))
        with pytest.raises(ValueError, match="node features"):
            engine.predict([bad])

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_features(self, rng, value):
        engine, _ = make_engine(rng)
        (graph,) = make_graphs(rng, 1)
        graph.x[0, 1] = value
        with pytest.raises(ValueError, match="finite"):
            engine.predict([graph])

    @pytest.mark.parametrize("temperature", [0.0, -1.0, float("nan")])
    def test_rejects_non_positive_temperature(self, rng, temperature):
        """A bad temperature fails construction, not every later request."""
        with pytest.raises(ValueError, match="temperature must be > 0"):
            make_engine(rng, temperature=temperature)

    def test_results_independent_of_budget(self, rng):
        """Packing must not change any answer (bitwise)."""
        graphs = make_graphs(rng, 12)
        big, _ = make_engine(rng, max_graphs=12)
        tiny, _ = make_engine(rng, max_graphs=1)
        capped, _ = make_engine(rng, max_graphs=12, max_nodes=18)
        a = big.predict(graphs)
        b = tiny.predict(graphs)
        c = capped.predict(graphs)
        for ra, rb, rc in zip(a, b, c):
            # One-at-a-time and packed forwards see different batch
            # compositions, so float accumulation may differ in the last
            # bits; identical packing (a vs engine re-run) is bitwise.
            np.testing.assert_allclose(ra.output, rb.output, rtol=0, atol=1e-10)
            np.testing.assert_allclose(ra.output, rc.output, rtol=0, atol=1e-10)
        rerun = big.predict(graphs)
        for ra, rr in zip(a, rerun):
            np.testing.assert_array_equal(ra.output, rr.output)


class TestSeedEnsembles:
    def test_stacked_matches_sequential_members(self, rng):
        engine, models = make_engine(rng, num_seeds=3)
        assert engine._stacked is not None
        graphs = make_graphs(rng, 6)
        results = engine.predict(graphs)
        with inference_mode():
            member_logits = np.stack(
                [m.eval()(GraphBatch.from_graphs(graphs)).data for m in models]
            )
        for i, result in enumerate(results):
            np.testing.assert_allclose(result.output, member_logits[:, i].mean(axis=0), atol=1e-10)

    def test_ensemble_energy_is_mean_of_member_energies(self, rng):
        engine, models = make_engine(rng, num_seeds=2)
        graphs = make_graphs(rng, 4)
        results = engine.predict(graphs)
        with inference_mode():
            member_logits = np.stack(
                [m.eval()(GraphBatch.from_graphs(graphs)).data for m in models]
            )
        expected = np.stack([energy_score(member_logits[k], "multiclass") for k in range(2)]).mean(axis=0)
        np.testing.assert_allclose([r.energy for r in results], expected, atol=1e-10)

    def test_unstackable_roster_warns_once_and_serves(self, rng):
        models = [
            build_model("factorgcn", FEATURE_DIM, OUT_DIM, np.random.default_rng(k), hidden_dim=8, num_layers=2)
            for k in range(2)
        ]
        import repro.nn.layers as layers

        layers._SEQUENTIAL_FALLBACK_WARNED.discard("serving/GraphClassifier/StackedEncoder")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            engine = InferenceEngine.from_models(models, SCHEMA)
            InferenceEngine.from_models(models, SCHEMA)  # second engine: no new warning
        serving_warnings = [w for w in caught if "serving" in str(w.message)]
        assert len(serving_warnings) == 1
        assert engine._stacked is None
        graphs = make_graphs(rng, 5)
        results = engine.predict(graphs)
        with inference_mode():
            member_logits = np.stack(
                [m.eval()(GraphBatch.from_graphs(graphs)).data for m in models]
            )
        for i, result in enumerate(results):
            np.testing.assert_allclose(result.output, member_logits[:, i].mean(axis=0), atol=1e-12)

    def test_artifact_to_engine_ensemble(self, rng, tmp_path):
        spec = ModelSpec("gin", hidden_dim=8, num_layers=2)
        models = [spec.build(SCHEMA) for _ in range(2)]
        for k, m in enumerate(models):
            nudge = np.random.default_rng(k)
            for p in m.parameters():
                p.data = p.data + nudge.normal(scale=0.05, size=p.data.shape)
        path = ModelArtifact.from_models(models, spec, SCHEMA).save(tmp_path / "ens.npz")
        engine = InferenceEngine(ModelArtifact.load(path))
        assert engine.num_seeds == 2
        results = engine.predict(make_graphs(rng, 3))
        assert len(results) == 3 and results[0].probs.shape == (OUT_DIM,)


class TestQueueFrontEnd:
    def test_submit_matches_sync_predict(self, rng):
        engine, _ = make_engine(rng, max_graphs=4)
        graphs = make_graphs(rng, 8)
        sync = engine.predict(graphs)
        engine.start()
        try:
            handles = [engine.submit(g) for g in graphs]
            results = [h.result(timeout=10.0) for h in handles]
        finally:
            engine.stop()
        for s, q in zip(sync, results):
            np.testing.assert_allclose(s.output, q.output, rtol=0, atol=1e-10)

    def test_concurrent_submitters(self, rng):
        engine, _ = make_engine(rng, max_graphs=8)
        graphs = make_graphs(rng, 8)
        sync = engine.predict(graphs)
        engine.start()
        outputs = [None] * len(graphs)

        def worker(i):
            outputs[i] = engine.submit(graphs[i]).result(timeout=10.0)

        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(graphs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            engine.stop()
        for s, q in zip(sync, outputs):
            np.testing.assert_allclose(s.output, q.output, rtol=0, atol=1e-10)

    def test_lone_submit_resolves_on_a_frozen_clock(self, rng):
        """An idle engine serves a lone request at once: no budget to
        fill and no window that time must close."""
        engine, _ = make_engine(rng, max_graphs=1000, clock=lambda: 100.0)
        (graph,) = make_graphs(rng, 1)
        engine.start()
        try:
            assert engine.submit(graph).result(timeout=5.0).probs is not None
        finally:
            engine.stop()

    def test_requests_queued_during_a_forward_run_as_one_pack(self, rng):
        engine, _ = make_engine(rng)
        graphs = make_graphs(rng, 6)
        entered, release = threading.Event(), threading.Event()
        packs = []
        real_forward = engine._forward

        def held_forward(batch):
            packs.append(batch.num_graphs)
            entered.set()
            release.wait(10.0)
            return real_forward(batch)

        engine._forward = held_forward
        engine.start()
        try:
            first = engine.submit(graphs[0])
            assert entered.wait(10.0)  # the first forward is running
            queued = [engine.submit(g) for g in graphs[1:]]
            release.set()
            for handle in [first, *queued]:
                assert handle.result(timeout=10.0).probs is not None
        finally:
            release.set()
            engine.stop()
        assert packs == [1, len(graphs) - 1]

    def test_grouped_submits_run_as_one_pack(self, rng):
        """A loop that wakes on a group's first request waits for the rest."""
        engine, _ = make_engine(rng)
        graphs = make_graphs(rng, 5)
        packs = []
        real_forward = engine._forward

        def recorded_forward(batch):
            packs.append(batch.num_graphs)
            return real_forward(batch)

        engine._forward = recorded_forward
        engine.start()
        try:
            handles = []
            with engine.grouped():
                for graph in graphs:
                    handles.append(engine.submit(graph))
                    time.sleep(0.02)  # an ungrouped loop serves what is queued
            for handle in handles:
                assert handle.result(timeout=10.0).probs is not None
        finally:
            engine.stop()
        assert packs == [len(graphs)]

    def test_stop_flushes_pending(self, rng):
        engine, _ = make_engine(rng, max_graphs=1000)
        graphs = make_graphs(rng, 3)
        engine.start()
        handles = [engine.submit(g) for g in graphs]
        engine.stop()  # every handle is answered by the time stop() returns
        for handle in handles:
            assert handle.result(timeout=0.1) is not None

    def test_submit_before_start_raises(self, rng):
        engine, _ = make_engine(rng)
        with pytest.raises(RuntimeError, match="start"):
            engine.submit(make_graphs(rng, 1)[0])

    def test_result_timeout(self, rng):
        pending = PendingResult()
        with pytest.raises(TimeoutError):
            pending.result(timeout=0.01)


class TestTaskTypes:
    def test_binary_predictions(self, rng):
        schema = FeatureSchema(feature_dim=FEATURE_DIM, out_dim=1, task_type="binary", metric="rocauc")
        model = build_model("gcn", FEATURE_DIM, 1, rng, hidden_dim=8, num_layers=2)
        engine = InferenceEngine.from_models([model], schema)
        results = engine.predict(make_graphs(rng, 4))
        for r in results:
            assert r.label in (0, 1)
            assert 0.0 <= r.probs[0] <= 1.0
            assert r.energy is not None

    def test_regression_predictions_have_no_energy(self, rng):
        schema = FeatureSchema(feature_dim=FEATURE_DIM, out_dim=1, task_type="regression", metric="rmse")
        model = build_model("gcn", FEATURE_DIM, 1, rng, hidden_dim=8, num_layers=2)
        engine = InferenceEngine.from_models([model], schema)
        engine.calibration = EnergyCalibration(threshold=0.0)
        for r in engine.predict(make_graphs(rng, 3)):
            assert isinstance(r.label, float)
            assert r.probs is None and r.energy is None and r.is_ood is None

    def test_regression_calibration_raises_clearly(self, rng):
        schema = FeatureSchema(feature_dim=FEATURE_DIM, out_dim=1, task_type="regression", metric="rmse")
        model = build_model("gcn", FEATURE_DIM, 1, rng, hidden_dim=8, num_layers=2)
        engine = InferenceEngine.from_models([model], schema)
        with pytest.raises(ValueError, match="no energy scores"):
            engine.calibrate(make_graphs(rng, 3))
        with pytest.raises(ValueError, match="non-finite"):
            fit_energy_threshold(np.array([1.0, np.nan]))
