"""HTTP front-end and wire format: status mapping, stats, drain, validation.

Two layers of coverage for :mod:`repro.serve.net` / :mod:`repro.serve.wire`:

* Deterministic protocol tests against a :class:`StubBackend` that
  resolves handles however the test dictates — every row of the
  exception→status table (400/429/503/504/500) is pinned without any
  timing dependence.
* An end-to-end server over a real :class:`EngineBackend`
  (in-process engine, ephemeral port): predict parity with the engine,
  batch requests, ``/stats`` counters and the latency window,
  ``/healthz`` flipping on drain.

Plus boundary validation of :func:`repro.serve.wire.graph_from_json` —
the malformed payloads that used to surface as cryptic numpy errors (or
silently truncate float edge indices toward valid-looking wrong edges).

Fault-tolerance additions: the :class:`CircuitBreaker` state machine on a
fake clock, breaker shedding over real HTTP (503 + ``Retry-After``),
degraded-vs-unhealthy ``/healthz`` reporting, and a full-subprocess
SIGTERM drain of ``python -m repro.serve --http`` under live load.
"""

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from http.client import HTTPConnection
from pathlib import Path

import numpy as np
import pytest

import repro
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
    ServingStats,
    graph_from_json,
)
from repro.serve.futures import submit_each
from repro.serve.net import CircuitBreaker, EngineBackend, serve_http
from repro.encoders import build_model

FEATURE_DIM, OUT_DIM = 4, 3
SCHEMA = FeatureSchema(feature_dim=FEATURE_DIM, out_dim=OUT_DIM, task_type="multiclass", num_classes=OUT_DIM)


def make_graph_payload(rng, nodes=8):
    g = erdos_renyi(nodes, 0.5, rng)
    x = rng.normal(size=(nodes, FEATURE_DIM))
    return {"x": x.tolist(), "edge_index": g.edge_index.tolist()}


def http(url, payload=None, timeout=30.0):
    """(status, json_body) for GET (payload None) or POST."""
    try:
        if payload is None:
            response = urllib.request.urlopen(url, timeout=timeout)
        else:
            request = urllib.request.Request(
                url, data=json.dumps(payload).encode(),
                headers={"Content-Type": "application/json"},
            )
            response = urllib.request.urlopen(request, timeout=timeout)
        return response.status, json.loads(response.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


@pytest.fixture
def rng():
    return np.random.default_rng(77)


class TestWireValidation:
    """graph_from_json: clear ValueErrors at the boundary, never numpy noise."""

    def test_valid_payload_round_trips(self, rng):
        payload = make_graph_payload(rng)
        graph = graph_from_json(payload, schema=SCHEMA)
        assert graph.num_nodes == 8
        np.testing.assert_array_equal(graph.x, np.asarray(payload["x"]))

    def test_non_object_payload(self):
        with pytest.raises(ValueError, match="JSON object"):
            graph_from_json([1, 2, 3])

    def test_missing_x(self):
        with pytest.raises(ValueError, match="'x'"):
            graph_from_json({"edge_index": [[], []]})

    def test_ragged_feature_rows(self):
        """Used to explode as a numpy 'inhomogeneous shape' error."""
        with pytest.raises(ValueError, match="rectangular"):
            graph_from_json({"x": [[1.0, 2.0], [3.0]]})

    def test_non_numeric_features(self):
        with pytest.raises(ValueError, match="numbers"):
            graph_from_json({"x": [["a", "b"]]})

    def test_three_dimensional_x(self):
        with pytest.raises(ValueError, match="2-D"):
            graph_from_json({"x": [[[1.0]]]})

    def test_one_dimensional_x_promotes_to_column(self):
        graph = graph_from_json({"x": [1.0, 2.0, 3.0]})
        assert graph.x.shape == (3, 1)

    def test_wrong_edge_index_shape(self):
        with pytest.raises(ValueError, match=r"\(2, num_edges\)"):
            graph_from_json({"x": [[1.0]], "edge_index": [[0, 0, 0]]})

    def test_fractional_edge_index_rejected_not_truncated(self):
        """1.7 would int64-cast to node 1 — a valid-looking wrong edge."""
        with pytest.raises(ValueError, match="integers"):
            graph_from_json({"x": [[1.0], [2.0]], "edge_index": [[0.0], [1.7]]})

    def test_integral_float_edge_index_accepted(self):
        """JSON writers often emit 1.0 for 1; exact integers are fine."""
        graph = graph_from_json({"x": [[1.0], [2.0]], "edge_index": [[0.0], [1.0]]})
        assert graph.edge_index.dtype == np.int64

    def test_out_of_range_edge_index(self):
        with pytest.raises(ValueError, match="out of range|num_nodes|< num_nodes"):
            graph_from_json({"x": [[1.0], [2.0]], "edge_index": [[0], [5]]})

    def test_negative_edge_index(self):
        with pytest.raises(ValueError):
            graph_from_json({"x": [[1.0], [2.0]], "edge_index": [[0], [-1]]})

    def test_schema_rejects_wrong_feature_width(self, rng):
        payload = {"x": [[1.0, 2.0]]}  # schema expects FEATURE_DIM columns
        with pytest.raises(ValueError, match="node features"):
            graph_from_json(payload, schema=SCHEMA)


class StubBackend:
    """Scriptable backend: each submit pops the next programmed outcome.

    Validates against the schema first, as the real backends do.
    """

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.clock = time.monotonic
        self.stopped = False
        self.submitted = []

    def submit(self, graph, deadline=None, trace_id=None):
        SCHEMA.validate_graph(graph)
        self.submitted.append((graph, deadline))
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, BaseException):
            raise outcome
        handle = PendingResult()
        if isinstance(outcome, dict):
            handle._resolve(outcome)
        else:
            handle._resolve(None, outcome())
        return handle

    def submit_many(self, graphs, deadline=None, trace_id=None):
        return submit_each(self.submit, graphs, deadline, trace_id)

    def stop(self):
        self.stopped = True


OK = {"prediction": 1, "output": [0.0], "probs": [1.0], "energy": -2.0}


@pytest.fixture
def stub_server(request):
    servers = []

    def start(outcomes):
        backend = StubBackend(outcomes)
        server = serve_http(backend)
        servers.append(server)
        return backend, server

    yield start
    for server in servers:
        server.draining = True  # skip backend.stop noise
        server.shutdown()
        server.server_close()


class TestStatusMapping:
    """Every row of the exception→HTTP table, deterministically."""

    def test_ok(self, stub_server, rng):
        _backend, server = stub_server([OK])
        status, body = http(server.url + "/predict", make_graph_payload(rng))
        assert status == 200
        assert body == OK

    def test_queue_full_is_429(self, stub_server, rng):
        _backend, server = stub_server([QueueFull("inflight queue at capacity")])
        status, body = http(server.url + "/predict", make_graph_payload(rng))
        assert status == 429 and "capacity" in body["error"]

    def test_deadline_exceeded_is_504(self, stub_server, rng):
        _backend, server = stub_server([lambda: DeadlineExceeded("request expired")])
        status, body = http(server.url + "/predict", make_graph_payload(rng))
        assert status == 504 and "expired" in body["error"]

    def test_engine_stopped_is_503(self, stub_server, rng):
        _backend, server = stub_server([EngineStopped("draining")])
        status, _body = http(server.url + "/predict", make_graph_payload(rng))
        assert status == 503

    def test_engine_bug_is_500(self, stub_server, rng):
        _backend, server = stub_server([lambda: RuntimeError("worker error: boom")])
        status, body = http(server.url + "/predict", make_graph_payload(rng))
        assert status == 500 and "boom" in body["error"]

    def test_invalid_graph_is_400_and_never_reaches_backend(self, stub_server):
        backend, server = stub_server([OK])
        status, body = http(server.url + "/predict", {"x": [[1.0, 2.0], [3.0]]})
        assert status == 400 and "rectangular" in body["error"]
        assert backend.submitted == []

    def test_non_json_body_is_400(self, stub_server):
        _backend, server = stub_server([OK])
        request = urllib.request.Request(
            server.url + "/predict", data=b"not json{", headers={"Content-Type": "application/json"}
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30.0)
        assert excinfo.value.code == 400

    def test_unknown_endpoint_is_404(self, stub_server):
        _backend, server = stub_server([])
        assert http(server.url + "/nope")[0] == 404
        assert http(server.url + "/nope", {"x": [[0.0]]})[0] == 404

    def test_batch_mixes_per_position_errors(self, stub_server, rng):
        """Batch requests keep per-position error objects; HTTP status is
        the first failure's."""
        backend, server = stub_server([OK, QueueFull("shed")])
        good = make_graph_payload(rng)
        status, body = http(server.url + "/predict", {"graphs": [good, good, {"x": [[1], [2, 3]]}]})
        assert status == 429  # first error position wins the status
        results = body["results"]
        assert results[0]["prediction"] == 1
        assert results[1]["status"] == 429
        assert results[2]["status"] == 400
        assert len(backend.submitted) == 2  # the malformed one never submitted

    def test_empty_batch_is_400(self, stub_server):
        _backend, server = stub_server([])
        status, _ = http(server.url + "/predict", {"graphs": []})
        assert status == 400

    def test_bad_deadline_ms_is_400(self, stub_server, rng):
        _backend, server = stub_server([OK])
        status, body = http(
            server.url + "/predict", {"graphs": [make_graph_payload(rng)], "deadline_ms": -5}
        )
        assert status == 400 and "deadline_ms" in body["error"]

    def test_deadline_ms_propagates_as_absolute_monotonic_instant(self, stub_server, rng):
        backend, server = stub_server([OK])
        before = time.monotonic()
        status, _ = http(server.url + "/predict", {"graphs": [make_graph_payload(rng)], "deadline_ms": 250})
        assert status == 200
        (_graph, deadline), = backend.submitted
        assert before + 0.1 < deadline < time.monotonic() + 0.3


class TestStatsEndpoint:
    def test_counters_and_windows(self, stub_server, rng):
        _backend, server = stub_server(
            [OK, OK, QueueFull("shed"), lambda: DeadlineExceeded("late")]
        )
        good = make_graph_payload(rng)
        for _ in range(4):
            http(server.url + "/predict", good)
        http(server.url + "/predict", {"x": "nope"})
        status, stats = http(server.url + "/stats")
        assert status == 200
        counts = stats["counts"]
        assert counts["served"] == 2
        assert counts["shed"] == 1
        assert counts["expired"] == 1
        assert counts["bad_requests"] == 1
        assert counts["received"] == 5
        assert stats["latency_ms"]["window"] == 2
        assert stats["latency_ms"]["p50"] >= 0.0
        assert stats["latency_ms"]["p99"] >= stats["latency_ms"]["p50"]

    def test_latency_window_forgets_old_traffic(self):
        """The rolling window forgets old latencies; the counters don't."""
        stats = ServingStats(window=4, clock=lambda: 0.0)
        for _ in range(4):
            stats.record_served(0.001)
        assert stats.snapshot()["latency_ms"]["p99"] == pytest.approx(1.0)
        for _ in range(4):  # latency shifts: the window holds only slow requests
            stats.record_served(0.010)
        snap = stats.snapshot()
        assert snap["latency_ms"]["window"] == 4
        assert snap["latency_ms"]["p50"] == pytest.approx(10.0)
        assert snap["counts"]["served"] == 8

    def test_stats_window_validated(self):
        with pytest.raises(ValueError, match="window"):
            ServingStats(window=0)


class TestHealthAndDrain:
    def test_healthz_flips_on_drain_and_predicts_rejected(self, stub_server, rng):
        backend, server = stub_server([OK])
        assert http(server.url + "/healthz") == (200, {"status": "ok"})
        server.draining = True  # as server.drain() sets, without teardown
        assert http(server.url + "/healthz")[0] == 503
        status, _ = http(server.url + "/predict", make_graph_payload(rng))
        assert status == 503
        assert backend.submitted == []

    def test_drain_stops_backend_and_is_idempotent(self, stub_server):
        backend, server = stub_server([])
        server.drain()
        server.drain()
        assert backend.stopped
        assert server.draining


class TestEndToEndEngineBackend:
    """Real engine behind the real HTTP stack on an ephemeral port."""

    @pytest.fixture
    def served_engine(self, rng):
        model = build_model("gin", FEATURE_DIM, OUT_DIM, np.random.default_rng(3), hidden_dim=8, num_layers=2)
        engine = InferenceEngine.from_models([model], SCHEMA, max_graphs=8)
        backend = EngineBackend(engine, queue_depth=64)
        server = serve_http(backend)
        yield engine, server
        server.drain()

    def test_predict_matches_engine(self, served_engine, rng):
        engine, server = served_engine
        payload = make_graph_payload(rng)
        status, body = http(server.url + "/predict", payload)
        assert status == 200
        direct = engine.predict([graph_from_json(payload)])[0]
        np.testing.assert_allclose(body["output"], direct.output, rtol=0, atol=1e-10)
        assert body["prediction"] == direct.label

    def test_schema_mismatch_is_400_from_the_backend(self, served_engine):
        """The handler only decodes; the engine's submit is the one schema
        check, and its ValueError answers 400."""
        _engine, server = served_engine
        status, body = http(server.url + "/predict", {"x": [[1.0, 2.0]]})  # too narrow
        assert status == 400 and "node features" in body["error"]

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_features_are_400(self, served_engine, rng, value):
        """``json.loads`` accepts ``NaN``/``Infinity``; the schema check
        answers 400 instead of a 200 whose NaN body is not valid JSON."""
        _engine, server = served_engine
        payload = make_graph_payload(rng)
        payload["x"][0][0] = value  # json.dumps writes the NaN / Infinity token
        status, body = http(server.url + "/predict", payload)
        assert status == 400 and "finite" in body["error"]

    def test_non_finite_graph_in_a_batch_fails_alone(self, served_engine, rng):
        _engine, server = served_engine
        good, bad = make_graph_payload(rng), make_graph_payload(rng)
        bad["x"][1][2] = float("nan")
        status, body = http(server.url + "/predict", {"graphs": [good, bad]})
        assert status == 400
        served, failed = body["results"]
        assert served["prediction"] in range(OUT_DIM)
        assert failed["status"] == 400 and "finite" in failed["error"]

    def test_batch_request(self, served_engine, rng):
        _engine, server = served_engine
        graphs = [make_graph_payload(rng, nodes=5 + i) for i in range(4)]
        status, body = http(server.url + "/predict", {"graphs": graphs, "deadline_ms": 30000})
        assert status == 200
        assert len(body["results"]) == 4
        assert all(r["prediction"] in range(OUT_DIM) for r in body["results"])

    def test_batch_request_runs_as_one_forward(self, served_engine, rng, monkeypatch):
        """A request's graphs reach the engine loop as one group, so they
        share a forward however slowly they are submitted."""
        engine, server = served_engine
        packs = []
        real_forward = engine._forward

        def recorded_forward(batch):
            packs.append(batch.num_graphs)
            return real_forward(batch)

        engine._forward = recorded_forward
        validate = FeatureSchema.validate_graph

        def slow_validate(schema, graph):
            time.sleep(0.01)  # an ungrouped loop serves the first graphs meanwhile
            return validate(schema, graph)

        monkeypatch.setattr(FeatureSchema, "validate_graph", slow_validate)
        graphs = [make_graph_payload(rng, nodes=5 + i) for i in range(6)]
        status, body = http(server.url + "/predict", {"graphs": graphs})
        assert status == 200 and len(body["results"]) == 6
        assert packs == [6]

    def test_stats_track_served_traffic(self, served_engine, rng):
        _engine, server = served_engine
        for _ in range(3):
            assert http(server.url + "/predict", make_graph_payload(rng))[0] == 200
        _status, stats = http(server.url + "/stats")
        assert stats["counts"]["served"] == 3
        assert set(stats) == {"uptime_s", "counts", "latency_ms", "breaker", "health"}
        assert stats["latency_ms"]["window"] == 3

    def test_drain_flips_health_and_stops_engine(self, served_engine, rng):
        engine, server = served_engine
        assert http(server.url + "/healthz")[0] == 200
        server.drain()
        assert engine._worker is None  # drain stopped the engine

    def test_engine_backend_admission_control(self, rng):
        """queue_depth inflight requests, then QueueFull — released after."""
        model = build_model("gin", FEATURE_DIM, OUT_DIM, np.random.default_rng(3), hidden_dim=8, num_layers=2)
        engine = InferenceEngine.from_models([model], SCHEMA, max_graphs=1000)
        release = threading.Event()
        real_forward = engine._forward
        # Hold the forward so both admitted requests stay in flight.
        engine._forward = lambda batch: release.wait(10.0) and real_forward(batch)
        backend = EngineBackend(engine, queue_depth=2)
        graph = graph_from_json(make_graph_payload(rng))
        try:
            h1 = backend.submit(graph)
            h2 = backend.submit(graph)
            with pytest.raises(QueueFull):
                backend.submit(graph)
            assert not h1.done() and not h2.done()
        finally:
            release.set()
            backend.stop()  # serves both
        assert h1.result(timeout=1.0) is not None
        # Resolution released the inflight slots.
        assert backend._inflight == 0


# ----------------------------------------------------------------------
# Fault tolerance: circuit breaker, health reporting, SIGTERM drain
# ----------------------------------------------------------------------

class FakeClock:
    """Settable monotonic time source for deterministic breaker tests."""

    def __init__(self, now=100.0):
        self.now = float(now)

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


class TestCircuitBreaker:
    def breaker(self, clock, **overrides):
        kwargs = dict(window=8, min_requests=4, error_threshold=0.5,
                      open_duration=5.0, half_open_probes=2, clock=clock)
        kwargs.update(overrides)
        return CircuitBreaker(**kwargs)

    def test_stays_closed_below_threshold(self):
        br = self.breaker(FakeClock())
        for ok in (True, True, True, False, True, False):  # 2/6 < 0.5
            br.record(ok)
        assert br.state == CircuitBreaker.CLOSED
        assert br.allow() == (True, None)

    def test_trips_at_error_fraction_over_min_requests(self):
        br = self.breaker(FakeClock())
        br.record(False)  # 1/1 = 100% but below min_requests: stays closed
        assert br.state == CircuitBreaker.CLOSED
        for ok in (True, False, False):  # now 3/4 >= 0.5 with 4 observed
            br.record(ok)
        assert br.state == CircuitBreaker.OPEN
        assert br.opens_total == 1

    def test_open_sheds_with_retry_after_then_half_opens(self):
        clock = FakeClock()
        br = self.breaker(clock)
        for _ in range(4):
            br.record(False)
        allowed, retry_after = br.allow()
        assert not allowed
        assert 0.0 < retry_after <= 5.0
        assert br.shed_total == 1
        clock.advance(2.0)
        _, retry_after = br.allow()
        assert retry_after == pytest.approx(3.0)  # counts down the window
        clock.advance(3.0)  # open_duration elapsed
        assert br.allow() == (True, None)  # half-open probe admitted
        assert br.state == CircuitBreaker.HALF_OPEN

    def test_half_open_success_closes(self):
        clock = FakeClock()
        br = self.breaker(clock)
        for _ in range(4):
            br.record(False)
        clock.advance(5.0)
        assert br.allow()[0]
        br.record(True)
        assert br.state == CircuitBreaker.CLOSED
        assert br.allow() == (True, None)

    def test_half_open_failure_reopens(self):
        clock = FakeClock()
        br = self.breaker(clock)
        for _ in range(4):
            br.record(False)
        clock.advance(5.0)
        assert br.allow()[0]
        br.record(False)
        assert br.state == CircuitBreaker.OPEN
        assert br.opens_total == 2
        assert not br.allow()[0]  # a fresh open window starts

    def test_half_open_bounds_concurrent_probes(self):
        clock = FakeClock()
        br = self.breaker(clock, half_open_probes=2)
        for _ in range(4):
            br.record(False)
        clock.advance(5.0)
        assert br.allow()[0] and br.allow()[0]  # two probes pass
        allowed, retry_after = br.allow()       # third sheds until a verdict
        assert not allowed and retry_after == pytest.approx(1.0)

    def test_release_frees_a_half_open_probe_slot(self):
        clock = FakeClock()
        br = self.breaker(clock, half_open_probes=2)
        for _ in range(4):
            br.record(False)
        clock.advance(5.0)
        assert br.allow()[0] and br.allow()[0]
        assert not br.allow()[0]
        br.release()  # a probe ended neutral: its slot is free again
        assert br.allow()[0]
        for _ in range(3):
            br.release()  # never more free slots than probes
        assert br.allow()[0] and br.allow()[0]
        assert not br.allow()[0]
        assert br.state == CircuitBreaker.HALF_OPEN

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="error_threshold"):
            CircuitBreaker(error_threshold=0.0)
        with pytest.raises(ValueError, match="min_requests"):
            CircuitBreaker(min_requests=0)

    def test_snapshot_shape(self):
        br = self.breaker(FakeClock())
        br.record(False)
        snap = br.snapshot()
        assert snap["state"] == CircuitBreaker.CLOSED
        assert snap["window_errors"] == 1 and snap["window_size"] == 1
        assert snap["opens_total"] == 0 and snap["shed_total"] == 0


def _stop_server(server):
    server.draining = True  # skip backend.stop noise
    server.shutdown()
    server.server_close()


class TestBreakerOverHttp:
    def test_backend_errors_trip_breaker_and_shed_with_retry_after(self, rng):
        """Consecutive backend errors open the breaker: 500s, and 504s from
        a handler that gave up on a wedged backend.  The next request sheds
        with 503 + a Retry-After header before ever reaching the backend."""
        backend = StubBackend(
            [lambda: RuntimeError("backend on fire"), lambda: TimeoutError("no answer")] * 2
        )
        server = serve_http(
            backend,
            breaker=CircuitBreaker(window=8, min_requests=4, error_threshold=0.5,
                                   open_duration=60.0),
        )
        try:
            payload = make_graph_payload(rng)
            for _ in range(2):
                assert http(server.url + "/predict", payload)[0] == 500
                assert http(server.url + "/predict", payload)[0] == 504
            submitted_before = len(backend.submitted)
            request = urllib.request.Request(
                server.url + "/predict", data=json.dumps(payload).encode(),
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=30.0)
            assert excinfo.value.code == 503
            assert int(excinfo.value.headers["Retry-After"]) >= 1
            assert "circuit breaker" in json.loads(excinfo.value.read())["error"]
            assert len(backend.submitted) == submitted_before  # shed pre-backend
            _, stats = http(server.url + "/stats")
            assert stats["breaker"]["state"] == "open"
            assert stats["breaker"]["opens_total"] == 1
            assert stats["breaker"]["shed_total"] >= 1
        finally:
            _stop_server(server)

    def test_shed_post_leaves_the_keep_alive_connection_usable(self, rng):
        """The breaker's early 503 still consumes the request body, so the
        next request on the same connection is parsed from its own bytes."""
        backend = StubBackend([lambda: RuntimeError("backend on fire")] * 4)
        server = serve_http(
            backend,
            breaker=CircuitBreaker(window=8, min_requests=4, error_threshold=0.5,
                                   open_duration=60.0),
        )
        conn = HTTPConnection("127.0.0.1", server.port, timeout=30.0)
        try:
            payload = make_graph_payload(rng)
            for _ in range(4):
                assert http(server.url + "/predict", payload)[0] == 500
            conn.request("POST", "/predict", body=json.dumps(payload).encode(),
                         headers={"Content-Type": "application/json"})
            shed = conn.getresponse()
            assert shed.status == 503
            shed.read()
            conn.request("GET", "/stats")
            stats = conn.getresponse()
            assert stats.status == 200
            assert json.loads(stats.read())["breaker"]["state"] == "open"
        finally:
            conn.close()
            _stop_server(server)

    def test_client_errors_do_not_trip_the_breaker(self, rng):
        """400s (client's fault), 429s (admission working) and 504s on an
        expired deadline (overload shedding) are neutral."""
        backend = StubBackend([QueueFull("shed"), lambda: DeadlineExceeded("request expired")] * 3)
        server = serve_http(
            backend,
            breaker=CircuitBreaker(window=8, min_requests=2, error_threshold=0.5,
                                   open_duration=60.0),
        )
        try:
            good = make_graph_payload(rng)
            for _ in range(3):
                assert http(server.url + "/predict", {"x": [[1.0], [2.0, 3.0]]})[0] == 400
                assert http(server.url + "/predict", good)[0] == 429
                assert http(server.url + "/predict", good)[0] == 504
            _, stats = http(server.url + "/stats")
            assert stats["counts"]["expired"] == 3
            assert stats["breaker"]["state"] == "closed"
            assert stats["breaker"]["opens_total"] == 0
        finally:
            _stop_server(server)

    @pytest.mark.parametrize("probe", ["expired", "shed", "bad-request"])
    def test_neutral_half_open_probes_free_their_slots(self, rng, probe):
        """Half-open probes that end neutral hand their slot back: after
        three of them a good request is still admitted and closes the
        breaker."""
        outcome, status = {
            "expired": (lambda: DeadlineExceeded("request expired"), 504),
            "shed": (QueueFull("shed"), 429),
            "bad-request": (None, 400),
        }[probe]
        probes = [] if outcome is None else [outcome] * 3
        backend = StubBackend([lambda: RuntimeError("backend on fire")] * 4 + probes + [OK])
        clock = FakeClock()
        server = serve_http(
            backend,
            breaker=CircuitBreaker(window=8, min_requests=4, error_threshold=0.5,
                                   open_duration=5.0, half_open_probes=3, clock=clock),
        )
        try:
            good = make_graph_payload(rng)
            probe_payload = {"x": [[1.0], [2.0, 3.0]]} if outcome is None else good
            for _ in range(4):
                assert http(server.url + "/predict", good)[0] == 500
            # Each request lands a full open window after the last, so the
            # good one is admitted whether or not a probe reopened the
            # breaker; only a probe slot never handed back sheds it.
            for _ in range(3):
                clock.advance(5.0)
                assert http(server.url + "/predict", probe_payload)[0] == status
            clock.advance(5.0)
            assert http(server.url + "/predict", good) == (200, OK)
            _, stats = http(server.url + "/stats")
            assert stats["breaker"]["state"] == "closed"
        finally:
            _stop_server(server)


class HealthStub(StubBackend):
    """Stub backend with a programmable health probe."""

    def __init__(self, outcomes, health):
        super().__init__(outcomes)
        self._health = health

    def health(self):
        return self._health


class TestHealthReporting:
    def test_degraded_is_200_with_detail(self):
        backend = HealthStub([], {"status": "degraded",
                                  "detail": "1/2 workers live; respawning slots [1]"})
        server = serve_http(backend)
        try:
            status, body = http(server.url + "/healthz")
            assert status == 200  # degraded still serves: do NOT eject from LB
            assert body["status"] == "degraded"
            assert "respawning" in body["detail"]
        finally:
            _stop_server(server)

    def test_unhealthy_is_503_with_detail(self):
        backend = HealthStub([], {"status": "unhealthy",
                                  "detail": "worker pool is down"})
        server = serve_http(backend)
        try:
            status, body = http(server.url + "/healthz")
            assert status == 503
            assert body["status"] == "unhealthy" and "down" in body["detail"]
        finally:
            _stop_server(server)

    def test_broken_probe_reports_unhealthy(self):
        class BrokenProbe(StubBackend):
            def health(self):
                raise RuntimeError("probe exploded")

        server = serve_http(BrokenProbe([]))
        try:
            status, body = http(server.url + "/healthz")
            assert status == 503 and "probe" in body["detail"]
        finally:
            _stop_server(server)

    def test_stats_carries_health_and_breaker_blocks(self):
        backend = HealthStub([], {"status": "ok"})
        server = serve_http(backend)
        try:
            _, stats = http(server.url + "/stats")
            assert stats["health"] == {"status": "ok"}
            assert stats["breaker"]["state"] == "closed"
        finally:
            _stop_server(server)


@pytest.fixture(scope="module")
def artifact_path(tmp_path_factory):
    spec = ModelSpec("gin", hidden_dim=8, num_layers=2)
    artifact = ModelArtifact.from_models([spec.build(SCHEMA)], spec, SCHEMA)
    path = tmp_path_factory.mktemp("artifact") / "model.npz"
    artifact.save(path)
    return path


class TestSigtermDrain:
    def test_sigterm_drains_the_server_under_load(self, artifact_path, rng):
        """Full subprocess: ``python -m repro.serve --http``, live traffic,
        SIGTERM.  The process must exit 0 (graceful drain), never answer
        500, and keep serving 200s until the drain flips."""
        src_dir = Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src_dir) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", str(artifact_path),
             "--http", "--port", "0"],
            stderr=subprocess.PIPE, text=True, env=env,
        )
        stderr_lines: list[str] = []
        url_box: list[str] = []
        ready = threading.Event()

        def read_stderr():
            for line in proc.stderr:
                stderr_lines.append(line)
                match = re.search(r"on (http://[\d.]+:\d+)", line)
                if match and not url_box:
                    url_box.append(match.group(1))
                    ready.set()
            ready.set()  # EOF without a serving line: fail fast below

        reader = threading.Thread(target=read_stderr, daemon=True)
        reader.start()
        stop_loading = threading.Event()
        loader = None
        try:
            assert ready.wait(120.0) and url_box, (
                f"server never announced its port; stderr: {''.join(stderr_lines)}"
            )
            url = url_box[0]
            payload = make_graph_payload(rng)
            warm = [http(url + "/predict", payload, timeout=60.0)[0] for _ in range(3)]
            assert warm == [200, 200, 200]
            statuses: list[int] = []

            def load():
                while not stop_loading.is_set():
                    try:
                        statuses.append(http(url + "/predict", payload, timeout=60.0)[0])
                    except Exception:
                        return  # connection refused once the socket closed

            loader = threading.Thread(target=load, daemon=True)
            loader.start()
            time.sleep(0.2)  # in-flight traffic when the signal lands
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60.0) == 0
            stop_loading.set()
            loader.join(timeout=10.0)
            assert all(status in (200, 503) for status in statuses), statuses
            assert statuses.count(200) >= 1
        finally:
            stop_loading.set()
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10.0)
