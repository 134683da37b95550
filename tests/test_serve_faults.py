"""Fault injection, supervision and crash recovery for the serving stack.

Covers :mod:`repro.serve.faults`, :mod:`repro.serve.supervisor` and the
retry machinery in :mod:`repro.serve.pool`:

* the fault grammar parses/round-trips and rejects bad specs loudly;
* injection is deterministic for a given spec + seed and each injection
  point (admission, engine loop, worker serve loop) actually fires;
* a worker killed by the ``worker_crash`` fault respawns and the
  requests it stranded are transparently retried to success — with
  **exactly-once** handle resolution asserted by instrumenting
  ``PendingResult._resolve``;
* retries respect ``retry_limit`` and the per-request deadline budget;
* the supervisor's backoff/abandon/health state machine.
"""

import threading
import time

import numpy as np
import pytest

from repro.graph.data import GraphBatch
from repro.graph.generators import erdos_renyi
from repro.serve import (
    DeadlineExceeded,
    EngineStopped,
    FeatureSchema,
    InferenceEngine,
    ModelArtifact,
    ModelSpec,
    PendingResult,
    QueueFull,
    RespawnPolicy,
    WorkerPool,
    WorkerSupervisor,
    injected_faults,
    parse_faults,
)
from repro.serve.faults import FaultInjector
from repro.serve.net import EngineBackend

FEATURE_DIM, OUT_DIM = 5, 3
SCHEMA = FeatureSchema(
    feature_dim=FEATURE_DIM, out_dim=OUT_DIM, task_type="multiclass",
    metric="accuracy", num_classes=OUT_DIM, dataset="unit-test",
)

#: Fast-recovery knobs shared by the chaos tests below: near-immediate
#: respawn, deterministic (jitter-free) backoff.
FAST_RESPAWN = RespawnPolicy(backoff_base=0.01, backoff_max=0.05, jitter=0.0)


def make_graphs(rng, count=6, lo=5, hi=12):
    graphs = []
    for _ in range(count):
        g = erdos_renyi(int(rng.integers(lo, hi)), 0.5, rng)
        g.x = rng.normal(size=(g.num_nodes, FEATURE_DIM))
        graphs.append(g)
    return graphs


@pytest.fixture
def rng():
    return np.random.default_rng(23)


@pytest.fixture(scope="module")
def artifact():
    rng = np.random.default_rng(17)
    spec = ModelSpec("gin", hidden_dim=8, num_layers=2)
    models = [spec.build(SCHEMA) for _ in range(2)]
    graphs = make_graphs(np.random.default_rng(3), 6)
    for model in models:
        model.train()
        model(GraphBatch.from_graphs(graphs))
        model.eval()
    return ModelArtifact.from_models(models, spec, SCHEMA)


# ----------------------------------------------------------------------
# Grammar + determinism
# ----------------------------------------------------------------------

class TestFaultGrammar:
    def test_full_spec_parses(self):
        plan = parse_faults("worker_crash@batch=3;slow_batch@p=0.1,ms=50;queue_reject@p=0.05")
        assert plan == {
            "worker_crash": {"batch": 3.0},
            "slow_batch": {"p": 0.1, "ms": 50.0},
            "queue_reject": {"p": 0.05},
        }

    def test_empty_and_none_disarm(self):
        assert parse_faults(None) == {}
        assert parse_faults("") == {}
        assert parse_faults("  ;  ") == {}
        assert not FaultInjector("").enabled

    def test_unknown_fault_rejected(self):
        with pytest.raises(ValueError, match="unknown fault 'disk_full'"):
            parse_faults("disk_full@p=0.1")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="unknown parameter 'q'"):
            parse_faults("slow_batch@q=1")

    def test_non_numeric_value_rejected(self):
        with pytest.raises(ValueError, match="numeric"):
            parse_faults("slow_batch@ms=fast")

    def test_probability_range_enforced(self):
        with pytest.raises(ValueError, match=r"p must be in \[0, 1\]"):
            parse_faults("queue_reject@p=1.5")

    def test_worker_crash_needs_a_trigger(self):
        with pytest.raises(ValueError, match="batch=N or p=F"):
            parse_faults("worker_crash")

    def test_describe_round_trips(self):
        spec = "slow_batch@ms=50,p=0.1;worker_crash@batch=3"
        injector = FaultInjector(spec, seed=7)
        assert parse_faults(injector.describe()) == parse_faults(spec)

    def test_injected_faults_context_restores(self):
        from repro.serve import FAULTS

        assert not FAULTS.enabled
        with injected_faults("queue_reject@p=1"):
            assert FAULTS.enabled
            assert FAULTS.queue_reject()
        assert not FAULTS.enabled


class TestDeterminism:
    def test_batch_crash_fires_every_nth(self):
        injector = FaultInjector("worker_crash@batch=3")
        fired = [injector.worker_crash() for _ in range(9)]
        assert fired == [False, False, True] * 3

    def test_probabilistic_draws_repeat_for_a_seed(self):
        a = FaultInjector("slow_batch@p=0.5,ms=10", seed=11)
        b = FaultInjector("slow_batch@p=0.5,ms=10", seed=11)
        assert [a.slow_batch_s() for _ in range(32)] == [b.slow_batch_s() for _ in range(32)]

    def test_different_seeds_diverge(self):
        a = FaultInjector("queue_reject@p=0.5", seed=1)
        b = FaultInjector("queue_reject@p=0.5", seed=2)
        assert [a.queue_reject() for _ in range(64)] != [b.queue_reject() for _ in range(64)]


# ----------------------------------------------------------------------
# Injection points
# ----------------------------------------------------------------------

class TestInjectionPoints:
    def test_queue_reject_sheds_pool_submissions(self, artifact, rng):
        pool = WorkerPool(artifact, num_workers=1, flush_timeout=0.005)
        pool._started = True  # admission only; no workers needed
        try:
            with injected_faults("queue_reject@p=1"):
                with pytest.raises(QueueFull, match="fault injection"):
                    pool.submit(make_graphs(rng, 1)[0])
        finally:
            pool.stop()

    def test_queue_reject_sheds_engine_backend_submissions(self, artifact, rng):
        engine = InferenceEngine(artifact)
        backend = EngineBackend(engine)
        try:
            with injected_faults("queue_reject@p=1"):
                with pytest.raises(QueueFull, match="fault injection"):
                    backend.submit(make_graphs(rng, 1)[0])
        finally:
            backend.stop()

    def test_slow_batch_stalls_the_engine_loop(self, artifact, rng):
        engine = InferenceEngine(artifact).start()
        try:
            graph = make_graphs(rng, 1)[0]
            engine.submit(graph).result(timeout=30.0)  # warm (compile/caches)
            with injected_faults("slow_batch@p=1,ms=120"):
                started = time.monotonic()
                engine.submit(graph).result(timeout=30.0)
                assert time.monotonic() - started >= 0.1
        finally:
            engine.stop()


# ----------------------------------------------------------------------
# Crash + retry end-to-end (the acceptance-criteria scenario)
# ----------------------------------------------------------------------

@pytest.fixture
def resolution_counts(monkeypatch):
    """Count successful ``PendingResult._resolve`` transitions per handle."""
    counts: dict[int, int] = {}
    lock = threading.Lock()
    original = PendingResult._resolve

    def counting(self, result, error=None):
        won = original(self, result, error)
        if won:
            with lock:
                counts[id(self)] = counts.get(id(self), 0) + 1
        return won

    monkeypatch.setattr(PendingResult, "_resolve", counting)
    return counts


class TestCrashRecovery:
    def test_injected_crashes_recover_exactly_once(self, artifact, rng, resolution_counts):
        """worker_crash@batch=3 on a 1-worker pool: every stranded request
        is retried to a successful answer, each handle resolves exactly
        once (no double set_result), and the supervisor logs restarts."""
        pool = WorkerPool(
            artifact, num_workers=1, flush_timeout=0.005,
            retry_limit=3, retry_backoff=0.01,
            respawn_policy=FAST_RESPAWN,
            faults="worker_crash@batch=3", faults_seed=0,
        ).start()
        handles = []
        try:
            deadline = pool.clock() + 60.0
            for graph in make_graphs(rng, 10):
                handle = pool.submit(graph, deadline=deadline)
                handles.append(handle)
                # Sequential round-trips pin batch boundaries: every 3rd
                # batch of each worker incarnation crashes deterministically.
                assert handle.result(timeout=30.0)["prediction"] in range(OUT_DIM)
            snap = pool.stats_snapshot()
            assert snap["supervisor"]["restarts_total"] >= 2
            assert snap["retries_total"] >= 2
        finally:
            pool.stop()
        assert len(resolution_counts) >= len(handles)
        assert set(resolution_counts.values()) == {1}
        for handle in handles:
            assert resolution_counts[id(handle)] == 1

    def test_retry_limit_exhaustion_surfaces_engine_stopped(self, artifact, rng):
        """retry_limit=0: the stranded request fails with the death recorded
        instead of retrying — but the *pool* stays up for later requests."""
        pool = WorkerPool(
            artifact, num_workers=1, flush_timeout=0.005,
            retry_limit=0, respawn_policy=FAST_RESPAWN,
            faults="worker_crash@batch=2", faults_seed=0,
        ).start()
        try:
            graphs = make_graphs(rng, 3)
            assert pool.submit(graphs[0]).result(timeout=30.0)["prediction"] is not None
            with pytest.raises(EngineStopped, match="retry limit"):
                pool.submit(graphs[1]).result(timeout=30.0)
            # Batch 1 of the respawned worker serves fine.
            assert pool.submit(graphs[2]).result(timeout=30.0)["prediction"] is not None
        finally:
            pool.stop()

    def test_retries_stay_inside_the_deadline_budget(self, artifact, rng):
        """Crash-on-every-batch + a short deadline: the request must fail
        with DeadlineExceeded when its budget runs out mid-recovery, not
        burn all retries serving an answer nobody waits for."""
        pool = WorkerPool(
            artifact, num_workers=1, flush_timeout=0.005,
            retry_limit=8, retry_backoff=0.05,
            respawn_policy=RespawnPolicy(
                backoff_base=0.05, backoff_max=0.2, max_fast_crashes=20, jitter=0.0,
            ),
            faults="worker_crash@batch=1", faults_seed=0,
        ).start()
        try:
            handle = pool.submit(make_graphs(rng, 1)[0], deadline=pool.clock() + 0.3)
            with pytest.raises(DeadlineExceeded):
                handle.result(timeout=30.0)
        finally:
            pool.stop()

    def test_chaos_under_concurrent_load_resolves_every_handle(
        self, artifact, rng, resolution_counts
    ):
        """Two workers, crashes every 4 batches, 24 concurrent requests:
        every handle resolves (success or a typed error), exactly once."""
        pool = WorkerPool(
            artifact, num_workers=2, flush_timeout=0.005, max_graphs=2,
            queue_depth=64, retry_limit=3, retry_backoff=0.01,
            respawn_policy=FAST_RESPAWN,
            faults="worker_crash@batch=4", faults_seed=0,
        ).start()
        try:
            deadline = pool.clock() + 60.0
            handles = [pool.submit(g, deadline=deadline) for g in make_graphs(rng, 24)]
            outcomes = {"ok": 0, "failed": 0}
            for handle in handles:
                try:
                    handle.result(timeout=30.0)
                    outcomes["ok"] += 1
                except (EngineStopped, DeadlineExceeded):
                    outcomes["failed"] += 1
            # Recovery must win for the vast majority; nothing may strand.
            assert outcomes["ok"] >= 20
        finally:
            pool.stop()
        assert set(resolution_counts.values()) == {1}


# ----------------------------------------------------------------------
# Supervisor state machine
# ----------------------------------------------------------------------

class _FakeProc:
    def __init__(self, alive=True, pid=4242):
        self._alive = alive
        self.pid = pid

    def is_alive(self):
        return self._alive


class TestSupervisor:
    def test_backoff_grows_and_caps(self):
        sup = WorkerSupervisor(
            lambda i: None, 1,
            policy=RespawnPolicy(backoff_base=0.1, backoff_max=0.5, jitter=0.0),
        )
        slot = sup._slots[0]
        delays = []
        for crashes in (1, 2, 3, 4, 5):
            slot.fast_crashes = crashes
            delays.append(sup._backoff(slot))
        assert delays == pytest.approx([0.1, 0.2, 0.4, 0.5, 0.5])

    def test_jitter_stays_within_fraction(self):
        sup = WorkerSupervisor(
            lambda i: None, 1,
            policy=RespawnPolicy(backoff_base=0.1, jitter=0.25, seed=3),
        )
        slot = sup._slots[0]
        slot.fast_crashes = 1
        for _ in range(64):
            assert 0.075 <= sup._backoff(slot) <= 0.125

    def test_health_degraded_when_a_slot_is_abandoned(self):
        sup = WorkerSupervisor(lambda i: None, 2)
        sup._slots[0].process = _FakeProc()
        sup._slots[1].abandoned = True
        health = sup.health()
        assert health["status"] == "degraded"
        assert "abandoned" in health["detail"]

    def test_health_unhealthy_when_nothing_can_serve(self):
        sup = WorkerSupervisor(lambda i: None, 1)
        sup._slots[0].abandoned = True
        assert sup.health()["status"] == "unhealthy"

    def test_health_degraded_while_respawn_pending(self):
        sup = WorkerSupervisor(lambda i: None, 1)
        sup._slots[0].respawn_at = 123.0
        health = sup.health()
        assert health["status"] == "degraded"
        assert "respawning" in health["detail"]

    def test_snapshot_shape(self):
        sup = WorkerSupervisor(lambda i: None, 2)
        sup._slots[0].process = _FakeProc()
        snap = sup.snapshot()
        assert snap["target_workers"] == 2
        assert snap["live_workers"] == 1
        assert snap["restarts_total"] == 0
        assert [s["slot"] for s in snap["slots"]] == [0, 1]

    def test_real_processes_respawn_after_kill(self):
        """Integration: supervise trivial sleeper processes, SIGKILL one,
        observe the death callback and the respawn."""
        import multiprocessing as mp
        import os
        import signal

        ctx = mp.get_context("fork")
        deaths = []

        def spawn(index):
            proc = ctx.Process(target=time.sleep, args=(60.0,), daemon=True)
            proc.start()
            return proc

        sup = WorkerSupervisor(
            spawn, 1,
            policy=RespawnPolicy(backoff_base=0.01, jitter=0.0),
            on_death=lambda slot, pid, code: deaths.append((slot, pid, code)),
        ).start()
        try:
            (pid,) = sup.worker_pids()
            os.kill(pid, signal.SIGKILL)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                pids = sup.worker_pids()
                if pids and pids != [pid]:
                    break
                time.sleep(0.01)
            assert sup.worker_pids() and sup.worker_pids() != [pid]
            assert deaths and deaths[0][0] == 0 and deaths[0][1] == pid
            assert sup.snapshot()["restarts_total"] == 1
        finally:
            sup.stop()
            for proc in sup.processes():
                proc.terminate()
                proc.join(timeout=5.0)
