"""Observability through the serving stack: /metrics, trace ids, access log.

End-to-end coverage for the observability integration:

* ``GET /metrics`` serves valid Prometheus text carrying the process
  registry and this server's :class:`ServingStats`;
* every ``/predict`` response echoes an ``X-Trace-Id`` header (the
  client's when supplied), and the id is handed to the backend;
* ``GET /stats`` **before any traffic** answers 200 with zero latency
  percentiles (regression: ``np.percentile`` on an empty window used to
  be a 500);
* the opt-in structured access log emits one JSON line per request.
"""

import io
import json
import re
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.graph.generators import erdos_renyi
from repro.serve import FeatureSchema, InferenceEngine, PendingResult, ServingStats
from repro.serve.futures import submit_each
from repro.serve.net import EngineBackend, serve_http

FEATURE_DIM, OUT_DIM = 4, 3
SCHEMA = FeatureSchema(feature_dim=FEATURE_DIM, out_dim=OUT_DIM, task_type="multiclass", num_classes=OUT_DIM)

SAMPLE_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$")


def make_graph_payload(rng, nodes=8):
    g = erdos_renyi(nodes, 0.5, rng)
    x = rng.normal(size=(nodes, FEATURE_DIM))
    return {"x": x.tolist(), "edge_index": g.edge_index.tolist()}


def http(url, payload=None, headers=None, timeout=30.0):
    """(status, response headers, parsed JSON body)."""
    try:
        if payload is None:
            request = urllib.request.Request(url, headers=headers or {})
        else:
            request = urllib.request.Request(
                url, data=json.dumps(payload).encode(),
                headers={"Content-Type": "application/json", **(headers or {})},
            )
        response = urllib.request.urlopen(request, timeout=timeout)
        return response.status, dict(response.headers), json.loads(response.read())
    except urllib.error.HTTPError as err:
        return err.code, dict(err.headers), json.loads(err.read())


def http_text(url, timeout=30.0):
    """(status, content type, body text) — for the /metrics scrape."""
    response = urllib.request.urlopen(url, timeout=timeout)
    return response.status, response.headers.get("Content-Type"), response.read().decode()


def assert_valid_prometheus(text):
    assert text.endswith("\n")
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        assert SAMPLE_RE.match(line), f"malformed sample line: {line!r}"


@pytest.fixture
def rng():
    return np.random.default_rng(91)


OK = {"prediction": 1, "output": [0.0], "probs": [1.0], "energy": -2.0}


class StubBackend:
    """Scriptable backend that validates and records like the real ones."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.clock = time.monotonic
        self.submitted = []

    def submit(self, graph, deadline=None, trace_id=None):
        SCHEMA.validate_graph(graph)
        self.submitted.append((graph, deadline, trace_id))
        outcome = self.outcomes.pop(0)
        handle = PendingResult()
        if isinstance(outcome, dict):
            handle._resolve(outcome)
        else:
            handle._resolve(None, outcome())
        return handle

    def submit_many(self, graphs, deadline=None, trace_id=None):
        return submit_each(self.submit, graphs, deadline, trace_id)

    def stop(self):
        pass


@pytest.fixture
def stub_server(request):
    servers = []

    def start(outcomes, **server_kwargs):
        backend = StubBackend(outcomes)
        server = serve_http(backend, **server_kwargs)
        servers.append(server)
        return backend, server

    yield start
    for server in servers:
        server.draining = True
        server.shutdown()
        server.server_close()


class TestStatsBeforeTraffic:
    def test_stats_endpoint_is_200_with_zero_percentiles(self, stub_server):
        """Regression: /stats before any request used to 500 inside
        np.percentile on the empty latency window."""
        _backend, server = stub_server([])
        status, _headers, stats = http(server.url + "/stats")
        assert status == 200
        assert stats["latency_ms"]["window"] == 0
        assert stats["latency_ms"]["p50"] == 0.0
        assert stats["latency_ms"]["p99"] == 0.0
        assert stats["counts"]["served"] == 0

    def test_empty_stats_object_snapshots_clean(self):
        snap = ServingStats(clock=lambda: 0.0).snapshot()
        assert snap["latency_ms"] == {"window": 0, "p50": 0.0, "p99": 0.0}

    def test_engine_backend_has_no_workers_key(self, rng):
        from repro.encoders import build_model

        model = build_model("gin", FEATURE_DIM, OUT_DIM, np.random.default_rng(3),
                            hidden_dim=8, num_layers=2)
        engine = InferenceEngine.from_models([model], SCHEMA, max_graphs=8)
        server = serve_http(EngineBackend(engine, queue_depth=16))
        try:
            _status, _headers, stats = http(server.url + "/stats")
            assert "workers" not in stats
        finally:
            server.drain()


class TestTraceIdHeader:
    def test_minted_trace_id_echoed(self, stub_server, rng):
        _backend, server = stub_server([OK])
        _status, headers, _body = http(server.url + "/predict", make_graph_payload(rng))
        assert re.fullmatch(r"[0-9a-f]{16}", headers["X-Trace-Id"])

    def test_client_supplied_trace_id_echoed_verbatim(self, stub_server, rng):
        backend, server = stub_server([OK])
        _status, headers, _body = http(
            server.url + "/predict", make_graph_payload(rng),
            headers={"X-Trace-Id": "client-chose-this"},
        )
        assert headers["X-Trace-Id"] == "client-chose-this"
        (_graph, _deadline, trace_id), = backend.submitted
        assert trace_id == "client-chose-this"  # handed to the backend too

    def test_error_responses_carry_the_header_too(self, stub_server):
        _backend, server = stub_server([])
        status, headers, _body = http(
            server.url + "/predict", {"x": [[1.0, 2.0], [3.0]]},
            headers={"X-Trace-Id": "badreq"},
        )
        assert status == 400 and headers["X-Trace-Id"] == "badreq"


class TestMetricsEndpoint:
    def test_scrape_is_valid_prometheus_with_serving_and_cache_families(self, stub_server, rng):
        _backend, server = stub_server([OK])
        http(server.url + "/predict", make_graph_payload(rng))
        status, content_type, text = http_text(server.url + "/metrics")
        assert status == 200
        assert content_type.startswith("text/plain; version=0.0.4")
        assert_valid_prometheus(text)
        assert "# TYPE repro_serving_requests_total counter" in text
        assert 'repro_serving_requests_total{outcome="served"} 1' in text
        assert "repro_serving_uptime_seconds" in text


class TestAccessLog:
    def test_one_json_line_per_request(self, stub_server, rng):
        stream = io.StringIO()
        _backend, server = stub_server(
            [OK], access_log=True, access_log_stream=stream
        )
        http(server.url + "/predict", make_graph_payload(rng),
             headers={"X-Trace-Id": "logged-request"})
        request = urllib.request.Request(
            server.url + "/predict", data=b"not json{",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError):
            urllib.request.urlopen(request, timeout=30.0)
        # The handler logs *after* responding, so the client can observe
        # the response a hair before the line lands; poll briefly.
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            lines = [json.loads(line) for line in stream.getvalue().splitlines()]
            if len(lines) == 2:
                break
            time.sleep(0.01)
        assert len(lines) == 2
        ok_line, bad_line = lines
        assert ok_line["trace_id"] == "logged-request"
        assert ok_line["status"] == 200
        assert ok_line["latency_ms"] >= 0.0
        assert ok_line["graphs"] == 1
        assert ok_line["energy"] == pytest.approx(-2.0)
        assert bad_line["status"] == 400 and bad_line["graphs"] == 0

    def test_disabled_by_default(self, stub_server, rng, capsys):
        _backend, server = stub_server([OK])
        http(server.url + "/predict", make_graph_payload(rng))
        assert server.access_log is False
        assert capsys.readouterr().err == ""
