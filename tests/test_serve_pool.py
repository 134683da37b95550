"""Multi-process serving: shared-memory weights, pool semantics, crashes.

Covers :mod:`repro.serve.pool`:

* :class:`SharedWeights` — publish/attach round-trips bitwise, views are
  read-only and genuinely zero-copy (no base copy per attach), and an
  engine rebuilt over the segment predicts bitwise-identically to one
  built from the artifact directly.
* :class:`WorkerPool` — submit/result parity with the in-process engine,
  bounded-queue admission control (QueueFull), per-request deadlines
  (DeadlineExceeded), drain-on-stop resolving every handle, poisoned
  requests answering with errors while the worker lives on, a SIGKILLed
  worker respawning (supervisor) with the pool still serving, and a
  crash-looping pool abandoning the slot / reporting down rather than
  stranding handles.
"""

import json
import os
import signal
import time

import warnings

import numpy as np
import pytest

from encoder_specs import STACKABLE_SPECS, spec_params
from repro.graph.data import GraphBatch
from repro.graph.generators import erdos_renyi
from repro.serve import (
    DeadlineExceeded,
    EngineStopped,
    FeatureSchema,
    InferenceEngine,
    ModelArtifact,
    ModelSpec,
    QueueFull,
    RespawnPolicy,
    SharedWeights,
    WorkerPool,
)
from repro.serve.pool import process_memory

FEATURE_DIM, OUT_DIM = 5, 3
SCHEMA = FeatureSchema(
    feature_dim=FEATURE_DIM, out_dim=OUT_DIM, task_type="multiclass",
    metric="accuracy", num_classes=OUT_DIM, dataset="unit-test",
)


def make_graphs(rng, count=6, lo=5, hi=12):
    graphs = []
    for _ in range(count):
        g = erdos_renyi(int(rng.integers(lo, hi)), 0.5, rng)
        g.x = rng.normal(size=(g.num_nodes, FEATURE_DIM))
        graphs.append(g)
    return graphs


def warm_up(model, graphs):
    model.train()
    model(GraphBatch.from_graphs(graphs))
    model.eval()
    return model


@pytest.fixture
def rng():
    return np.random.default_rng(41)


@pytest.fixture(scope="module")
def artifact():
    rng = np.random.default_rng(17)
    spec = ModelSpec("gin", hidden_dim=8, num_layers=2)
    models = [spec.build(SCHEMA) for _ in range(2)]
    graphs = make_graphs(rng, 6)
    for k, model in enumerate(models):
        nudge = np.random.default_rng(k)
        for p in model.parameters():
            p.data = p.data + nudge.normal(scale=0.05, size=p.data.shape)
        warm_up(model, graphs)  # batch-norm stats off their init
    return ModelArtifact.from_models(models, spec, SCHEMA)


class TestSharedWeights:
    def test_round_trip_is_bitwise(self, artifact):
        shared = SharedWeights.publish(artifact)
        try:
            attached = SharedWeights.attach(shared.manifest)
            try:
                rebuilt = attached.build_artifact()
                assert rebuilt.seeds == artifact.seeds
                for mine, theirs in zip(artifact.states, rebuilt.states):
                    assert set(mine) == set(theirs)
                    for name in mine:
                        np.testing.assert_array_equal(mine[name], theirs[name])
                for mine, theirs in zip(artifact.buffers, rebuilt.buffers):
                    for name in mine:
                        np.testing.assert_array_equal(mine[name], theirs[name])
            finally:
                attached.close()
        finally:
            shared.close(unlink=True)

    def test_views_are_read_only_and_zero_copy(self, artifact):
        shared = SharedWeights.publish(artifact)
        try:
            views = shared.arrays()
            some = next(iter(views["state"].values()))
            assert not some.flags.writeable
            with pytest.raises(ValueError):
                some[...] = 0.0
            # Zero-copy: every view's memory lives in the one shm block.
            total_view_bytes = sum(
                arr.nbytes for kind in views.values() for arr in kind.values()
            )
            assert total_view_bytes <= shared.nbytes
        finally:
            shared.close(unlink=True)

    def test_attach_after_unlink_raises_clear_error(self, artifact):
        shared = SharedWeights.publish(artifact)
        manifest = shared.manifest
        shared.close(unlink=True)
        with pytest.raises(RuntimeError, match="gone|republish"):
            SharedWeights.attach(manifest)

    def test_publisher_exit_without_close_unlinks_segment(self, artifact, tmp_path):
        """A publisher that never calls close() must not leak /dev/shm:
        the finalizer unlinks the segment when the process exits, and a
        late attach diagnoses the gone segment instead of raising a bare
        FileNotFoundError."""
        import multiprocessing as mp

        ctx = mp.get_context("fork")
        manifest_q = ctx.SimpleQueue()

        def publisher():
            shared = SharedWeights.publish(artifact)
            manifest_q.put(shared.manifest)
            # Exit without close(): only the finalizer stands between
            # this segment and a leak until reboot.

        proc = ctx.Process(target=publisher)
        proc.start()
        manifest = manifest_q.get()
        proc.join(timeout=10.0)
        assert proc.exitcode == 0
        with pytest.raises(RuntimeError, match="gone|republish"):
            SharedWeights.attach(manifest)

    def test_close_unlink_is_idempotent_with_finalizer(self, artifact):
        shared = SharedWeights.publish(artifact)
        shared.close(unlink=True)
        shared.close(unlink=True)  # finalizer already ran; must not raise

    def test_engine_over_shared_weights_is_bitwise_identical(self, artifact, rng):
        graphs = make_graphs(rng, 5)
        direct = InferenceEngine(artifact).predict(graphs)
        shared = SharedWeights.publish(artifact)
        try:
            engine = shared.build_engine()
            served = engine.predict(graphs)
            for d, s in zip(direct, served):
                np.testing.assert_array_equal(d.output, s.output)
        finally:
            shared.close(unlink=True)

    def test_dtype_cast_happens_at_publish(self, artifact):
        shared = SharedWeights.publish(artifact, dtype="float32")
        try:
            assert shared.dtype_name == "float32"
            for arr in shared.arrays()["state"].values():
                assert arr.dtype == np.float32
            # Workers then build float32 engines with zero further casting.
            assert shared.build_engine().dtype == np.float32
        finally:
            shared.close(unlink=True)

    def test_manifest_is_json_serialisable(self, artifact):
        """The manifest crosses process boundaries; keep it plain data."""
        shared = SharedWeights.publish(artifact)
        try:
            round_tripped = json.loads(json.dumps(shared.manifest))
            assert round_tripped["shm_name"] == shared.manifest["shm_name"]
        finally:
            shared.close(unlink=True)


class TestRosterPoolParity:
    """Pool-vs-in-process bitwise parity for every seed-stackable roster.

    Single-graph submissions resolved before the next submit force the pool
    workers into the same one-graph micro-batches as ``predict([g])``, so
    unlike :class:`TestWorkerPool`'s coalesced case the outputs must be
    *bitwise* equal — and the ensemble must serve via the seed-stacked
    forward, with no sequential-fallback warning.
    """

    @pytest.mark.parametrize("spec", spec_params(STACKABLE_SPECS))
    def test_pool_matches_in_process_bitwise(self, spec, rng):
        model_spec = ModelSpec(spec.name, hidden_dim=8, num_layers=2, kwargs=dict(spec.build_kwargs))
        graphs = make_graphs(rng, 4)
        models = []
        for k in range(2):
            model = model_spec.build(SCHEMA)
            nudge = np.random.default_rng(k)
            for p in model.parameters():
                p.data = p.data + nudge.normal(scale=0.05, size=p.data.shape)
            models.append(warm_up(model, graphs))
        artifact = ModelArtifact.from_models(models, model_spec, SCHEMA)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            engine = InferenceEngine(artifact)
            assert engine._stacked is not None, f"{spec.name} did not seed-stack"
            direct = [engine.predict([g])[0] for g in graphs]
        with WorkerPool(artifact, num_workers=1, flush_timeout=0.005) as pool:
            served = [pool.submit(g).result(timeout=30.0) for g in graphs]
        for d, s in zip(direct, served):
            np.testing.assert_array_equal(s["output"], d.output)
            assert s["prediction"] == d.label


class TestWorkerPool:
    def test_pool_matches_in_process_engine(self, artifact, rng):
        graphs = make_graphs(rng, 6)
        direct = InferenceEngine(artifact).predict(graphs)
        with WorkerPool(artifact, num_workers=2, flush_timeout=0.005) as pool:
            handles = [pool.submit(g) for g in graphs]
            served = [h.result(timeout=30.0) for h in handles]
        for d, s in zip(direct, served):
            # Worker-side coalescing packs different micro-batches than one
            # big sync predict, so float accumulation may differ in the
            # last bits (same tolerance as the engine's budget-independence
            # test); identical packing is bitwise per TestSharedWeights.
            np.testing.assert_allclose(s["output"], d.output, rtol=0, atol=1e-10)
            assert s["prediction"] == d.label
            assert s["energy"] == pytest.approx(d.energy)

    def test_schema_validation_at_submit(self, artifact, rng):
        from repro.graph.data import Graph

        with WorkerPool(artifact, num_workers=1, flush_timeout=0.005) as pool:
            bad = Graph(x=np.ones((3, FEATURE_DIM + 2)), edge_index=np.zeros((2, 0), dtype=np.int64))
            with pytest.raises(ValueError, match="node features"):
                pool.submit(bad)

    def test_expired_deadline_sheds(self, artifact, rng):
        with WorkerPool(artifact, num_workers=1, flush_timeout=0.005) as pool:
            handle = pool.submit(make_graphs(rng, 1)[0], deadline=time.monotonic() - 1.0)
            with pytest.raises(DeadlineExceeded):
                handle.result(timeout=30.0)

    def test_bounded_queue_sheds_with_queue_full(self, artifact, rng):
        """Admission control, white-box: with no worker draining the queue,
        the queue_depth'th+1 submit must shed immediately (429 upstream)."""
        pool = WorkerPool(artifact, num_workers=1, queue_depth=2, flush_timeout=0.005)
        pool._started = True  # workers deliberately not spawned
        graphs = make_graphs(rng, 3)
        pool.submit(graphs[0])
        pool.submit(graphs[1])
        with pytest.raises(QueueFull, match="capacity"):
            pool.submit(graphs[2])
        pool.stop()

    def test_stop_resolves_unserved_handles(self, artifact, rng):
        pool = WorkerPool(artifact, num_workers=1, queue_depth=4, flush_timeout=0.005)
        pool._started = True  # no workers: nothing will ever serve these
        handles = [pool.submit(g) for g in make_graphs(rng, 3)]
        pool.stop()
        for handle in handles:
            with pytest.raises(EngineStopped):
                handle.result(timeout=1.0)

    def test_submit_after_stop_fails_fast(self, artifact, rng):
        pool = WorkerPool(artifact, num_workers=1, flush_timeout=0.005).start()
        pool.stop()
        with pytest.raises(EngineStopped):
            pool.submit(make_graphs(rng, 1)[0])

    def test_stop_is_idempotent(self, artifact):
        pool = WorkerPool(artifact, num_workers=1, flush_timeout=0.005).start()
        pool.stop()
        pool.stop()

    def test_drain_serves_already_queued_work(self, artifact, rng):
        """stop() is a drain: accepted requests finish, not EngineStopped."""
        graphs = make_graphs(rng, 8)
        pool = WorkerPool(artifact, num_workers=2, flush_timeout=0.005).start()
        handles = [pool.submit(g) for g in graphs]
        pool.stop()
        for handle in handles:
            assert handle.result(timeout=1.0)["prediction"] is not None

    def test_poisoned_request_answers_error_and_worker_survives(self, artifact, rng):
        """A graph that explodes inside the worker's forward answers with a
        worker-error result; the next request on the same worker serves."""
        graphs = make_graphs(rng, 2)
        poison = graphs[0]
        poison.x = np.full_like(poison.x, np.nan)
        # NaN features pass schema validation but let us verify the pool
        # still answers; a genuinely raising forward is covered by the
        # engine-level poisoned-batch test (workers run the same engine).
        with WorkerPool(artifact, num_workers=1, flush_timeout=0.005) as pool:
            first = pool.submit(poison).result(timeout=30.0)
            assert first["prediction"] is not None  # NaN propagates, worker lives
            second = pool.submit(graphs[1]).result(timeout=30.0)
            assert second["prediction"] in range(OUT_DIM)

    def test_worker_crash_respawns_and_pool_keeps_serving(self, artifact, rng):
        """SIGKILL a worker: the supervisor respawns it against the same
        shared segment and later requests serve (pre-supervision: the
        first death wedged the pool in a permanent EngineStopped)."""
        pool = WorkerPool(
            artifact, num_workers=1, flush_timeout=0.005, retry_limit=3,
            respawn_policy=RespawnPolicy(backoff_base=0.01, jitter=0.0),
        ).start()
        try:
            # Let the worker finish starting, then take it down.
            pool.submit(make_graphs(rng, 1)[0]).result(timeout=30.0)
            (pid,) = pool.worker_pids()
            os.kill(pid, signal.SIGKILL)
            result = pool.submit(make_graphs(rng, 1)[0]).result(timeout=30.0)
            assert result["prediction"] in range(OUT_DIM)
            snap = pool.stats_snapshot()
            assert snap["supervisor"]["restarts_total"] >= 1
            assert pool.health()["status"] in ("ok", "degraded")
            new_pid = pool.worker_pids()
            assert new_pid and new_pid != [pid]
        finally:
            pool.stop()

    def test_crash_loop_abandons_slot_and_pool_reports_down(self, artifact, rng):
        """Repeated fast crashes exhaust the respawn budget: the slot is
        abandoned, outstanding handles fail (never strand), and the pool
        refuses new work with the outage recorded."""
        pool = WorkerPool(
            artifact, num_workers=1, flush_timeout=0.005, retry_limit=1,
            respawn_policy=RespawnPolicy(
                backoff_base=0.01, backoff_max=0.05, max_fast_crashes=2, jitter=0.0,
            ),
        ).start()
        try:
            pool.submit(make_graphs(rng, 1)[0]).result(timeout=30.0)
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                for pid in pool.worker_pids():
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                if pool.health()["status"] == "unhealthy":
                    break
                time.sleep(0.02)
            assert pool.health()["status"] == "unhealthy"
            with pytest.raises(EngineStopped, match="down|abandoned|serving"):
                for _ in range(50):  # submits until the down event lands
                    handle = pool.submit(make_graphs(rng, 1)[0])
                    with pytest.raises((EngineStopped, DeadlineExceeded, TimeoutError)):
                        handle.result(timeout=2.0)
        finally:
            pool.stop()

    def test_worker_memory_is_shared_not_copied(self, artifact, rng):
        """The weight bank shows up as shared pages, not per-worker copies.

        With fork + shared memory a worker's *private* RSS stays small;
        the weights live in the segment every worker maps.  (On this
        scale the weights are tiny; the structural assertion is that
        smaps accounting attributes them as shared.)
        """
        with WorkerPool(artifact, num_workers=2, flush_timeout=0.005) as pool:
            pool.submit(make_graphs(rng, 1)[0]).result(timeout=30.0)
            memories = [process_memory(pid) for pid in pool.worker_pids()]
        if not memories or not memories[0]:
            pytest.skip("no /proc/<pid>/smaps_rollup on this platform")
        for memory in memories:
            assert memory["shared"] > 0
            assert memory["rss"] == pytest.approx(memory["shared"] + memory["private"], rel=0.05)

    def test_invalid_configuration_rejected(self, artifact):
        with pytest.raises(ValueError, match="num_workers"):
            WorkerPool(artifact, num_workers=0)
        with pytest.raises(ValueError, match="queue_depth"):
            WorkerPool(artifact, num_workers=1, queue_depth=0)
        with pytest.raises(ValueError, match="flush_timeout"):
            WorkerPool(artifact, num_workers=1, flush_timeout=0.0)
