"""Serving-path fault injection: crashes, deadlines, drains, races.

Regression suite for the hardening of the queue front-end
(:mod:`repro.serve.engine` + :mod:`repro.serve.futures`): before it, a
serve-loop death stranded every outstanding ``.result()`` waiter forever
and later ``submit()`` calls enqueued into a dead loop and hung too.
Every test here pins a production semantic: handles resolve exactly once,
no code path strands a waiter, deadlines shed late work, and one poisoned
request never takes the engine down.

Clocks are injected (:class:`FakeClock`) wherever the semantics allow, so
the deadline tests are deterministic rather than sleep-calibrated.
"""

import threading
import time

import numpy as np
import pytest

from repro.encoders import build_model
from repro.serve import (
    DeadlineExceeded,
    EngineStopped,
    FeatureSchema,
    InferenceEngine,
    PendingResult,
)

FEATURE_DIM, OUT_DIM = 4, 3
SCHEMA = FeatureSchema(feature_dim=FEATURE_DIM, out_dim=OUT_DIM, task_type="multiclass", num_classes=OUT_DIM)


def make_graphs(rng, count=10, lo=5, hi=14):
    from repro.graph.generators import erdos_renyi

    graphs = []
    for _ in range(count):
        g = erdos_renyi(int(rng.integers(lo, hi)), 0.5, rng)
        g.x = rng.normal(size=(g.num_nodes, FEATURE_DIM))
        graphs.append(g)
    return graphs


def make_engine(rng, **kwargs):
    model = build_model("gin", FEATURE_DIM, OUT_DIM, np.random.default_rng(7), hidden_dim=8, num_layers=2)
    return InferenceEngine.from_models([model], SCHEMA, **kwargs)


class FakeClock:
    """Settable monotonic time source."""

    def __init__(self, now=100.0):
        self.now = float(now)

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


@pytest.fixture
def rng():
    return np.random.default_rng(23)


class TestPendingResult:
    def test_resolves_exactly_once(self):
        handle = PendingResult()
        assert handle._resolve("first") is True
        assert handle._resolve("second") is False
        assert handle._resolve(None, RuntimeError("late")) is False
        assert handle.result(timeout=0.1) == "first"

    def test_error_resolution_raises_stored_error(self):
        handle = PendingResult()
        handle._resolve(None, DeadlineExceeded("too late"))
        assert handle.done()
        with pytest.raises(DeadlineExceeded, match="too late"):
            handle.result(timeout=0.1)

    def test_timeout_when_unresolved(self):
        with pytest.raises(TimeoutError):
            PendingResult().result(timeout=0.01)

    def test_done_callback_after_resolve_runs_immediately(self):
        handle = PendingResult()
        handle._resolve("x")
        seen = []
        handle.add_done_callback(seen.append)
        assert seen == [handle]

    def test_done_callback_fires_once_on_resolve(self):
        handle = PendingResult()
        seen = []
        handle.add_done_callback(seen.append)
        assert seen == []
        handle._resolve("x")
        handle._resolve("y")  # duplicate: callback must not re-fire
        assert seen == [handle]


class TestPoisonedBatch:
    """One request whose forward explodes must not take the engine down."""

    def test_waiters_get_the_error_and_loop_survives(self, rng):
        engine = make_engine(rng, max_graphs=1)
        poisoned = threading.Event()
        real_forward = engine._forward

        def forward(batch):
            if poisoned.is_set():
                poisoned.clear()
                raise RuntimeError("numerical blow-up in packed forward")
            return real_forward(batch)

        engine._forward = forward
        graphs = make_graphs(rng, 2)
        engine.start()
        try:
            poisoned.set()
            bad = engine.submit(graphs[0])
            with pytest.raises(RuntimeError, match="blow-up"):
                bad.result(timeout=10.0)
            # The serve loop is still alive: the next request serves fine.
            good = engine.submit(graphs[1])
            assert good.result(timeout=10.0).probs is not None
        finally:
            engine.stop()

    def test_sync_predict_poison_does_not_leak_state(self, rng):
        """The synchronous path raises to the caller and stays usable."""
        engine = make_engine(rng)
        graphs = make_graphs(rng, 2)
        real_forward = engine._forward
        engine._forward = lambda batch: (_ for _ in ()).throw(RuntimeError("boom"))
        with pytest.raises(RuntimeError, match="boom"):
            engine.predict([graphs[0]])
        engine._forward = real_forward
        assert engine.predict([graphs[1]])[0].probs is not None


class TestServeLoopDeath:
    """A bug outside the guarded forward kills the loop — strand nobody.

    Before the hardening, these ``result()`` calls blocked forever and
    every later ``submit()`` enqueued into the dead loop and hung too.
    """

    def _dead_engine(self, rng):
        engine = make_engine(rng, max_graphs=1)
        engine._run_pending = lambda items: (_ for _ in ()).throw(
            AttributeError("engine bug outside the guarded forward")
        )
        return engine

    def test_outstanding_handle_fails_instead_of_hanging(self, rng):
        engine = self._dead_engine(rng)
        engine.start()
        handle = engine.submit(make_graphs(rng, 1)[0])
        with pytest.raises((EngineStopped, AttributeError)) as excinfo:
            handle.result(timeout=10.0)
        # The in-flight batch sees the bug itself; anything still queued
        # sees EngineStopped chained to it.  Either way the cause is kept.
        err = excinfo.value
        root = err if isinstance(err, AttributeError) else err.__cause__
        assert isinstance(root, AttributeError)
        engine.stop()

    def test_submit_after_death_fails_fast(self, rng):
        engine = self._dead_engine(rng)
        graphs = make_graphs(rng, 2)
        engine.start()
        handle = engine.submit(graphs[0])
        with pytest.raises(Exception):
            handle.result(timeout=10.0)
        # The loop recorded its death; submitting must raise immediately,
        # not enqueue into a dead queue and hang the caller's result().
        deadline = time.monotonic() + 10.0
        while engine._loop_error is None and time.monotonic() < deadline:
            time.sleep(0.005)
        with pytest.raises(EngineStopped, match="died") as excinfo:
            engine.submit(graphs[1])
        assert isinstance(excinfo.value.__cause__, AttributeError)
        engine.stop()

    def test_stop_after_death_does_not_hang(self, rng):
        engine = self._dead_engine(rng)
        engine.start()
        handle = engine.submit(make_graphs(rng, 1)[0])
        with pytest.raises(Exception):
            handle.result(timeout=10.0)
        engine.stop()  # joins the already-dead worker; must not raise or hang
        assert engine._worker is None

    def test_requests_queued_behind_the_death_resolve(self, rng):
        """Items sitting in the queue when the loop dies get EngineStopped."""
        engine = make_engine(rng, max_graphs=1)
        graphs = make_graphs(rng, 6)
        release = threading.Event()

        def blocking_bug(items):
            release.wait(10.0)
            raise AttributeError("engine bug outside the guarded forward")

        engine._run_pending = blocking_bug
        engine.start()
        first = engine.submit(graphs[0])         # enters the loop, blocks
        backlog = []
        for g in graphs[1:]:                     # queue up behind it
            backlog.append(engine.submit(g))
        release.set()                            # now the loop dies
        with pytest.raises(Exception):
            first.result(timeout=10.0)
        for handle in backlog:
            with pytest.raises(EngineStopped):
                handle.result(timeout=10.0)
        engine.stop()


class TestDeadlines:
    def test_already_expired_request_is_shed_not_served(self, rng):
        clock = FakeClock(now=100.0)
        engine = make_engine(rng, max_graphs=1, clock=clock)
        served = []
        real_forward = engine._forward
        engine._forward = lambda batch: served.append(1) or real_forward(batch)
        engine.start()
        try:
            handle = engine.submit(make_graphs(rng, 1)[0], deadline=50.0)
            with pytest.raises(DeadlineExceeded, match="expired"):
                handle.result(timeout=10.0)
            assert served == []  # shed before the forward, not after
        finally:
            engine.stop()

    def test_future_deadline_serves_normally(self, rng):
        clock = FakeClock(now=100.0)
        engine = make_engine(rng, max_graphs=1, clock=clock)
        engine.start()
        try:
            handle = engine.submit(make_graphs(rng, 1)[0], deadline=1e9)
            assert handle.result(timeout=10.0).probs is not None
        finally:
            engine.stop()

    def test_deadline_expires_while_queued_behind_a_forward(self, rng):
        """A request whose deadline passes while it waits behind a running
        forward is shed when its pack starts, never served late."""
        clock = FakeClock(now=100.0)
        engine = make_engine(rng, clock=clock)
        graphs = make_graphs(rng, 2)
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
            late = engine.submit(graphs[1], deadline=101.0)
            clock.advance(2.0)  # past the deadline while it waits in the queue
            release.set()
            assert first.result(timeout=10.0).probs is not None
            with pytest.raises(DeadlineExceeded):
                late.result(timeout=10.0)
        finally:
            release.set()
            engine.stop()
        assert packs == [1]

    def test_mixed_batch_serves_live_and_sheds_expired(self, rng):
        clock = FakeClock(now=100.0)
        engine = make_engine(rng, max_graphs=2, clock=clock)
        graphs = make_graphs(rng, 2)
        engine.start()
        try:
            dead = engine.submit(graphs[0], deadline=50.0)   # already expired
            live = engine.submit(graphs[1])
            assert live.result(timeout=10.0).probs is not None
            with pytest.raises(DeadlineExceeded):
                dead.result(timeout=10.0)
        finally:
            engine.stop()


class TestDrain:
    def test_stop_resolves_every_handle_exactly_once(self, rng):
        engine = make_engine(rng, max_graphs=1000)
        graphs = make_graphs(rng, 5)
        engine.start()
        handles = [engine.submit(g) for g in graphs]
        resolutions = []
        for handle in handles:
            handle.add_done_callback(resolutions.append)
        engine.stop()
        assert all(h.done() for h in handles)
        assert len(resolutions) == len(handles)  # once each, no duplicates
        for handle in handles:
            assert handle.result(timeout=0.1).probs is not None

    def test_submit_racing_stop_never_strands_a_handle(self, rng):
        """Submitters hammering the engine while it stops: every handle
        either serves or fails with EngineStopped; none hang, none double-
        resolve, and no submit() call itself hangs."""
        engine = make_engine(rng, max_graphs=4)
        graphs = make_graphs(rng, 4)
        handles, errors = [], []
        lock = threading.Lock()
        go = threading.Event()

        def submitter(seed):
            go.wait(5.0)
            local_rng = np.random.default_rng(seed)
            for i in range(25):
                g = graphs[int(local_rng.integers(len(graphs)))]
                try:
                    h = engine.submit(g)
                except (EngineStopped, RuntimeError) as err:
                    with lock:
                        errors.append(err)
                    return
                with lock:
                    handles.append(h)

        engine.start()
        threads = [threading.Thread(target=submitter, args=(s,)) for s in range(4)]
        for t in threads:
            t.start()
        go.set()
        time.sleep(0.02)  # let some traffic through, then stop mid-flight
        engine.stop()
        for t in threads:
            t.join(timeout=10.0)
            assert not t.is_alive()
        assert handles, "race produced no accepted submissions"
        for handle in handles:
            try:
                result = handle.result(timeout=10.0)
                assert result.probs is not None
            except EngineStopped:
                pass  # rejected by the drain: legal, as long as it resolved
        # Post-stop submissions must keep failing fast.
        with pytest.raises((EngineStopped, RuntimeError)):
            engine.submit(graphs[0])

    def test_restart_after_stop_serves_again(self, rng):
        engine = make_engine(rng, max_graphs=1)
        (graph,) = make_graphs(rng, 1)
        engine.start()
        assert engine.submit(graph).result(timeout=10.0) is not None
        engine.stop()
        engine.start()
        try:
            assert engine.submit(graph).result(timeout=10.0) is not None
        finally:
            engine.stop()

    def test_restart_recovers_a_dead_serve_loop(self, rng):
        """``restart()`` is the recovery verb for a killed loop: after the
        loop dies (submit fails fast with EngineStopped), one call brings
        the queue front-end back over the same models."""
        engine = make_engine(rng, max_graphs=1)
        graphs = make_graphs(rng, 2)
        engine._run_pending = lambda items: (_ for _ in ()).throw(
            AttributeError("engine bug outside the guarded forward")
        )
        engine.start()
        handle = engine.submit(graphs[0])
        with pytest.raises(Exception):
            handle.result(timeout=10.0)
        deadline = time.monotonic() + 10.0
        while engine._loop_error is None and time.monotonic() < deadline:
            time.sleep(0.005)
        with pytest.raises(EngineStopped, match="died"):
            engine.submit(graphs[0])
        del engine._run_pending  # the bug is fixed; bring the loop back
        engine.restart()
        try:
            assert engine._loop_error is None
            assert engine.submit(graphs[1]).result(timeout=10.0).probs is not None
        finally:
            engine.stop()
