"""Stdlib HTTP front-end: real traffic onto the serving stack.

``python -m repro.serve model.npz --http`` starts a
:class:`ServingServer` — a :class:`ThreadingMixIn` ``http.server`` whose
handler threads submit into a *backend* and block until the answer is
ready.  A backend has one surface
(``submit(graph, deadline, trace_id) -> PendingResult`` /
``submit_many(graphs, deadline, trace_id) -> list[PendingResult]`` /
``stop()`` / ``clock``), and ``submit`` is where a request graph is
checked against the artifact's schema — once; its ``ValueError`` answers
400.  The handler decodes all graphs of a request first and hands them
over in one ``submit_many``.  :class:`EngineBackend` puts the in-process
:class:`~repro.serve.engine.InferenceEngine` queue front-end behind that
surface: requests from all handler threads queue into one engine loop,
which packs whatever queued during its last forward; a request's graphs
queue as one group, so they share a pass.  Tests drive the server
through scriptable stub backends with the same surface.

Wire format is :mod:`repro.serve.wire` — the same JSON graphs the stdin
CLI accepts::

    POST /predict   {"x": [[...], ...], "edge_index": [[s], [t]]}
                    or {"graphs": [...], "deadline_ms": 50}
    GET  /stats     live counters, p50/p99 latency, breaker state,
                    backend health
    GET  /metrics   Prometheus text exposition (process registry +
                    this server's stats and breaker)
    GET  /healthz   200 {"status": "ok"} / 503 {"status": "unhealthy"|"draining"}

``deadline_ms`` is the request's budget, counted from its arrival (before
the body is read); anything but a finite number > 0 answers 400.

Every ``/predict`` response carries an ``X-Trace-Id`` header — the
client's, when it sent one, else freshly minted — and the id is
propagated through ``backend.submit(..., trace_id=...)`` into the
serving spans.  ``access_log=True`` additionally emits one structured
JSON line per predict request (trace id, status, latency, energy).

Production semantics, mapped onto HTTP status codes (the exception
vocabulary of :mod:`repro.serve.futures`):

====  =======================  =========================================
400   ``ValueError``           malformed / schema-invalid request graph
429   ``QueueFull``            admission control shed the request
503   ``EngineStopped``        backend stopped / draining
504   ``DeadlineExceeded``     deadline passed before a forward served it
500   anything else            engine-side failure
====  =======================  =========================================

Two failure-control layers sit in front of the backend:

* **Health** (``/healthz``): a backend exposes ``health() -> {"status":
  "ok"|"unhealthy", "detail": ...}`` (:class:`EngineBackend` reports
  the engine loop's liveness).  ``unhealthy`` answers 503 so load
  balancers eject the instance; any other report answers 200 with the
  backend's body.
* **Circuit breaker** (:class:`CircuitBreaker`): when the recent
  backend error rate (500s, 503s and timeouts waiting on a wedged
  backend; not 400s, 429s or expired deadlines) trips the threshold, the
  server stops submitting and sheds new predicts with 503 +
  ``Retry-After`` until the open window elapses; then a few *half-open*
  probe requests are let through — one success closes the breaker, a
  failure reopens it, and a neutral probe frees its slot for the next.
  This converts a collapsing backend's pile-up into fast, cheap
  rejections the client can back off on.

Shutdown is a **drain**: SIGTERM (or :meth:`ServingServer.drain`) flips
``/healthz`` to 503 so load balancers stop routing here, rejects new
predicts with 503, lets in-flight requests finish, then stops the
backend (which flushes its queues) and closes the socket.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import deque
from http.server import BaseHTTPRequestHandler, HTTPServer
from socketserver import ThreadingMixIn

from repro.obs.registry import render_prometheus
from repro.obs.trace import new_trace_id, trace_context
from repro.serve.futures import (
    DeadlineExceeded, EngineStopped, PendingResult, QueueFull, submit_each,
)
from repro.serve.stats import ServingStats
from repro.serve.wire import graph_from_json, result_to_json

__all__ = ["CircuitBreaker", "EngineBackend", "ServingServer", "serve_http"]

#: Ceiling on how long a handler thread waits for a backend answer when
#: the request carries no deadline (seconds).  Keeps a wedged backend
#: from accumulating handler threads forever.
DEFAULT_RESULT_TIMEOUT = 60.0

#: How long a handler waits past a request's deadline (seconds): the grace
#: covers the backend's own expiry pass reporting ``DeadlineExceeded``;
#: only a wedged backend exhausts it.
_DEADLINE_GRACE = 5.0

#: The longest ``deadline_ms`` whose wait still fits a thread timeout.
_MAX_DEADLINE_MS = (threading.TIMEOUT_MAX - _DEADLINE_GRACE) * 1e3


def _deadline_seconds(deadline_ms) -> float:
    """A request's ``deadline_ms`` budget in seconds; ``ValueError`` (400)
    unless it is a finite number > 0 whose wait fits a thread timeout."""
    if (isinstance(deadline_ms, bool) or not isinstance(deadline_ms, (int, float))
            or not 0 < deadline_ms <= _MAX_DEADLINE_MS):
        raise ValueError(
            f"deadline_ms must be a number in (0, {_MAX_DEADLINE_MS:.0f}], got {deadline_ms!r}"
        )
    return deadline_ms / 1e3


class CircuitBreaker:
    """Error-rate circuit breaker over the predict path (module docstring).

    State machine: **closed** (serving; outcomes fold into a rolling
    window of the last ``window`` backend attempts) → **open** when, with
    at least ``min_requests`` outcomes observed, the error fraction
    reaches ``error_threshold`` (every request sheds with 503 +
    ``Retry-After`` for ``open_duration`` seconds) → **half-open**
    (up to ``half_open_probes`` requests pass through; the first success
    closes the breaker, any failure reopens it, and a probe that ends
    neutral hands its slot back through :meth:`release`).

    The server decides which outcomes count as errors
    (:meth:`ServingServer._breaker_record`).  Thread-safe; ``clock`` is
    injectable so tests drive the open window deterministically.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(self, *, window: int = 64, min_requests: int = 16,
                 error_threshold: float = 0.5, open_duration: float = 5.0,
                 half_open_probes: int = 3, clock=time.monotonic):
        if not 0.0 < error_threshold <= 1.0:
            raise ValueError(f"error_threshold must be in (0, 1], got {error_threshold}")
        if min_requests < 1:
            raise ValueError(f"min_requests must be >= 1, got {min_requests}")
        self.window = int(window)
        self.min_requests = int(min_requests)
        self.error_threshold = float(error_threshold)
        self.open_duration = float(open_duration)
        self.half_open_probes = int(half_open_probes)
        self.clock = clock
        self._lock = threading.Lock()
        self._outcomes: deque = deque(maxlen=self.window)
        self._state = self.CLOSED
        self._opened_at = 0.0
        self._probes_left = 0
        self.opens_total = 0
        self.shed_total = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def allow(self) -> tuple[bool, float | None]:
        """``(admit, retry_after_seconds)`` for one incoming request."""
        with self._lock:
            if self._state == self.OPEN:
                elapsed = self.clock() - self._opened_at
                if elapsed < self.open_duration:
                    self.shed_total += 1
                    return False, max(self.open_duration - elapsed, 0.0)
                self._state = self.HALF_OPEN
                self._probes_left = self.half_open_probes
            if self._state == self.HALF_OPEN:
                if self._probes_left > 0:
                    self._probes_left -= 1
                    return True, None
                self.shed_total += 1
                return False, 1.0  # probes already in flight; retry shortly
            return True, None

    def record(self, ok: bool) -> None:
        """Fold one backend outcome in; may trip or close the breaker."""
        with self._lock:
            now = self.clock()
            if self._state == self.HALF_OPEN:
                if ok:
                    self._state = self.CLOSED
                    self._outcomes.clear()
                else:
                    self._state = self.OPEN
                    self._opened_at = now
                    self.opens_total += 1
                return
            if self._state == self.OPEN:
                return  # stragglers admitted before the trip
            self._outcomes.append(0 if ok else 1)
            if not ok and len(self._outcomes) >= self.min_requests:
                if sum(self._outcomes) / len(self._outcomes) >= self.error_threshold:
                    self._state = self.OPEN
                    self._opened_at = now
                    self.opens_total += 1
                    self._outcomes.clear()

    def release(self) -> None:
        """End one admitted request; a half-open probe frees its slot.

        Called once for every request :meth:`allow` admitted, after it is
        answered.  A probe whose outcome counted has already left
        half-open, so this hands back the slots of probes that ended
        neutral (a 400, a 429, an expired deadline); free slots never
        exceed ``half_open_probes``.  Without it a half-open breaker
        whose probes all ended neutral would shed every later request.
        As in :meth:`record`, a straggler admitted before the trip is not
        told apart from a probe.
        """
        with self._lock:
            if self._state == self.HALF_OPEN:
                self._probes_left = min(self._probes_left + 1, self.half_open_probes)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "state": self._state,
                "opens_total": self.opens_total,
                "shed_total": self.shed_total,
                "window_errors": sum(self._outcomes),
                "window_size": len(self._outcomes),
            }


class EngineBackend:
    """The in-process engine behind the server's ``submit`` surface.

    Adds the admission control the raw engine queue lacks: at most
    ``queue_depth`` requests in flight (submitted, not yet resolved) —
    beyond that :meth:`submit` sheds with
    :class:`~repro.serve.futures.QueueFull`.
    """

    def __init__(self, engine, queue_depth: int = 256):
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
        self.engine = engine
        self.queue_depth = int(queue_depth)
        self.clock = engine.clock
        self._inflight = 0
        self._lock = threading.Lock()
        if engine._worker is None:
            engine.start()

    def submit(self, graph, deadline: float | None = None,
               trace_id: str | None = None) -> PendingResult:
        with self._lock:
            if self._inflight >= self.queue_depth:
                raise QueueFull(
                    f"inflight queue at capacity ({self.queue_depth}); request shed"
                )
            self._inflight += 1
        try:
            handle = self.engine.submit(graph, deadline=deadline, trace_id=trace_id)
        except BaseException:
            with self._lock:
                self._inflight -= 1
            raise
        handle.add_done_callback(self._release)
        return handle

    def submit_many(self, graphs, deadline: float | None = None,
                    trace_id: str | None = None) -> list[PendingResult]:
        """Submit one request's graphs as a group: they share a serve-loop pass."""
        with self.engine.grouped():
            return submit_each(self.submit, graphs, deadline, trace_id)

    def _release(self, _handle) -> None:
        with self._lock:
            self._inflight -= 1

    def health(self) -> dict:
        """Engine-loop liveness for ``/healthz`` (ok / unhealthy)."""
        if self.engine._loop_error is not None:
            return {
                "status": "unhealthy",
                "detail": "engine serve loop died; restart the engine",
            }
        if self.engine._worker is None:
            return {"status": "unhealthy", "detail": "engine is not started"}
        return {"status": "ok"}

    def stop(self) -> None:
        self.engine.stop()


def _error_status(err: BaseException) -> int:
    """The status-code half of the module-docstring table."""
    if isinstance(err, QueueFull):
        return 429
    if isinstance(err, EngineStopped):
        return 503
    if isinstance(err, (DeadlineExceeded, TimeoutError)):
        return 504
    if isinstance(err, ValueError):
        return 400
    return 500


class _Handler(BaseHTTPRequestHandler):
    """One HTTP request; the server object carries all shared state."""

    protocol_version = "HTTP/1.1"
    # Status line/headers and the JSON body go out as separate writes;
    # with Nagle on, the body then waits on the client's delayed ACK
    # (~40 ms per request on Linux loopback) — disastrous for a
    # keep-alive request/response protocol.
    disable_nagle_algorithm = True
    server: "ServingServer"

    # ------------------------------------------------------------------
    def _respond(self, status: int, payload: dict, headers: dict | None = None) -> None:
        body = json.dumps(payload).encode()
        self._respond_bytes(status, body, "application/json", headers)

    def _respond_bytes(self, status: int, body: bytes, content_type: str,
                       headers: dict | None = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # stdlib's unstructured lines would swamp load tests;
        # the opt-in structured access log below replaces them.

    # ------------------------------------------------------------------
    def do_GET(self) -> None:
        if self.path == "/stats":
            payload = self.server.stats.snapshot()
            if self.server.breaker is not None:
                payload["breaker"] = self.server.breaker.snapshot()
            payload["health"] = self.server.backend_health()
            self._respond(200, payload)
        elif self.path == "/metrics":
            text = render_prometheus(extra_collectors=self.server.metrics_collectors())
            self._respond_bytes(200, text.encode(), "text/plain; version=0.0.4; charset=utf-8")
        elif self.path == "/healthz":
            if self.server.draining:
                self._respond(503, {"status": "draining"})
            else:
                health = self.server.backend_health()
                code = 503 if health.get("status") == "unhealthy" else 200
                self._respond(code, health)
        else:
            self._respond(404, {"error": f"no such endpoint: {self.path}"})

    def do_POST(self) -> None:
        started = time.perf_counter()
        # A request's deadline budget counts from here, before the body
        # is read and parsed.
        arrived = self.server.backend.clock()
        # Read the body before any answer: on a keep-alive connection an
        # unread body would be parsed as the next request line.
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            length = -1
        if length >= 0:
            body = self.rfile.read(length)
        else:
            body = None  # unframed: answer, then hang up
            self.close_connection = True
        if self.path != "/predict":
            self._respond(404, {"error": f"no such endpoint: {self.path}"})
            return
        server = self.server
        # Every predict request gets a trace id — the client's, if it sent
        # one — bound to this handler thread and echoed back so the caller
        # can correlate its request with spans and access-log lines.
        trace_id = self.headers.get("X-Trace-Id") or new_trace_id()
        headers = {"X-Trace-Id": trace_id}
        if server.draining:
            self._respond(503, {"error": "server is draining"}, headers)
            return
        breaker = server.breaker
        if breaker is not None:
            allowed, retry_after = breaker.allow()
            if not allowed:
                headers["Retry-After"] = str(max(1, round(retry_after or 1.0)))
                self._respond(
                    503,
                    {"error": "circuit breaker open: recent backend errors; retry later"},
                    headers,
                )
                server._access_log(trace_id, 503, started, graphs=0)
                return
        try:
            self._predict(body, trace_id, headers, started, arrived)
        finally:
            if breaker is not None:
                breaker.release()

    def _predict(self, body, trace_id: str, headers: dict, started: float,
                 arrived: float) -> None:
        """Answer one admitted ``/predict`` request that arrived at
        ``arrived`` on the backend clock."""
        server = self.server
        stats = server.stats
        try:
            request = json.loads(body)
        except (ValueError, TypeError):
            stats.record_bad_request()
            self._respond(400, {"error": "request body is not valid JSON"}, headers)
            server._access_log(trace_id, 400, started, graphs=0)
            return
        try:
            payloads, single = self._request_graphs(request)
            deadline_ms = request.get("deadline_ms") if isinstance(request, dict) else None
            deadline = None if deadline_ms is None else arrived + _deadline_seconds(deadline_ms)
            with trace_context(trace_id):
                results, status = self._serve(payloads, deadline, trace_id)
        except ValueError as err:
            stats.record_bad_request()
            self._respond(400, {"error": str(err)}, headers)
            server._access_log(trace_id, 400, started, graphs=0)
            return
        if single:
            self._respond(status, results[0], headers)
            energy = results[0].get("energy") if isinstance(results[0], dict) else None
        else:
            self._respond(status, {"results": results}, headers)
            energy = None
        server._access_log(trace_id, status, started, graphs=len(results), energy=energy)

    @staticmethod
    def _request_graphs(request) -> tuple[list, bool]:
        """Accept one graph object or ``{"graphs": [...]}``; ValueError otherwise."""
        if isinstance(request, dict) and "graphs" in request:
            graphs = request["graphs"]
            if not isinstance(graphs, list) or not graphs:
                raise ValueError("'graphs' must be a non-empty list of request graphs")
            return graphs, False
        return [request], True

    def _serve(self, payloads: list, deadline: float | None,
               trace_id: str) -> tuple[list[dict], int]:
        """Decode every graph, submit them as one group, await each; per-graph error objects.

        ``deadline`` is an absolute instant on the backend clock, or None.
        The response status is the status of the first graph, in request
        order, that failed (200 when all succeed) — single-graph requests
        therefore surface their error as the HTTP status, batch requests
        keep per-position error objects.
        """
        server = self.server
        stats = server.stats
        backend = server.backend
        clock = backend.clock
        results: list[dict | None] = [None] * len(payloads)
        failed = []    # positions of the graphs that failed
        decoded = []   # (position, graph)
        for pos, payload in enumerate(payloads):
            stats.record_received()
            try:
                decoded.append((pos, graph_from_json(payload)))
            except Exception as err:
                results[pos] = self._failure(err)
                failed.append(pos)
        handles = backend.submit_many(
            [graph for _pos, graph in decoded], deadline=deadline, trace_id=trace_id
        )
        started = clock()
        for (pos, _graph), handle in zip(decoded, handles):
            if deadline is not None:
                timeout = max(0.0, deadline - clock()) + _DEADLINE_GRACE
            else:
                timeout = server.result_timeout
            try:
                raw = handle.result(timeout=timeout)
            except BaseException as err:
                results[pos] = self._failure(err)
                failed.append(pos)
                continue
            results[pos] = raw if isinstance(raw, dict) else result_to_json(raw)
            stats.record_served(clock() - started)
            self.server._breaker_record(None)
        return results, results[min(failed)]["status"] if failed else 200

    def _failure(self, err: BaseException) -> dict:
        """Record one graph's failure; its per-position error object."""
        status = _error_status(err)
        stats = self.server.stats
        if status == 400:
            stats.record_bad_request()
        elif status == 429:
            stats.record_shed()
        elif status == 504:
            stats.record_expired()
        else:
            stats.record_error()
        self.server._breaker_record(err)
        return {"error": str(err), "status": status}


class ServingServer(ThreadingMixIn, HTTPServer):
    """Threaded HTTP server over a serving backend (module docstring)."""

    daemon_threads = True

    def __init__(
        self,
        backend,
        address: tuple[str, int] = ("127.0.0.1", 0),
        stats: ServingStats | None = None,
        result_timeout: float = DEFAULT_RESULT_TIMEOUT,
        access_log: bool = False,
        access_log_stream=None,
        breaker: "CircuitBreaker | None | str" = "default",
    ):
        super().__init__(address, _Handler)
        self.backend = backend
        self.stats = stats if stats is not None else ServingStats(clock=backend.clock)
        self.result_timeout = result_timeout
        self.draining = False
        self.access_log = access_log
        self.access_log_stream = access_log_stream
        # "default" builds a breaker on the backend's clock (so tests with
        # a fake clock drive the open window); None disables shedding.
        if breaker == "default":
            breaker = CircuitBreaker(clock=backend.clock)
        self.breaker = breaker

    # ------------------------------------------------------------------
    def backend_health(self) -> dict:
        """The backend's health report; backends without one are ``ok``."""
        probe = getattr(self.backend, "health", None)
        if not callable(probe):
            return {"status": "ok"}
        try:
            return probe()
        except Exception as err:  # a broken probe is itself a bad sign
            return {"status": "unhealthy", "detail": f"health probe failed: {err}"}

    def _breaker_record(self, err: BaseException | None) -> None:
        """Fold one predict outcome into the breaker; ``None`` is a success.

        An engine failure (500), a stopped backend (503) and a handler
        that gave up on a wedged backend (``TimeoutError``, 504) count as
        backend errors.  A 400 is the client's fault, a 429 admission
        control doing its job, and an expired deadline
        (``DeadlineExceeded``, 504) overload shedding: none of them says
        the backend is failing.  Counting expiries would let an overload
        open the breaker, which would then shed most of what follows.
        """
        if self.breaker is None:
            return
        if err is None:
            self.breaker.record(ok=True)
        elif _error_status(err) >= 500 and not isinstance(err, DeadlineExceeded):
            self.breaker.record(ok=False)

    def _collect_breaker(self):
        """Pull-time breaker metrics for the ``/metrics`` scrape."""
        snap = self.breaker.snapshot()
        state_code = {CircuitBreaker.CLOSED: 0.0, CircuitBreaker.HALF_OPEN: 1.0,
                      CircuitBreaker.OPEN: 2.0}
        yield ("repro_serving_breaker_state", "gauge",
               "Circuit breaker state (0 closed / 1 half-open / 2 open)",
               [({}, state_code.get(snap["state"], 2.0))])
        yield ("repro_serving_breaker_opens_total", "counter",
               "Times the circuit breaker tripped open",
               [({}, float(snap["opens_total"]))])
        yield ("repro_serving_breaker_shed_total", "counter",
               "Requests shed while the breaker was open",
               [({}, float(snap["shed_total"]))])

    def metrics_collectors(self) -> list:
        """Pull-time sources merged into this server's ``/metrics`` scrape."""
        collectors = [self.stats.collect]
        if self.breaker is not None:
            collectors.append(self._collect_breaker)
        return collectors

    def _access_log(self, trace_id: str, status: int, started: float,
                    graphs: int, energy=None) -> None:
        """One structured JSON line per predict request (opt-in)."""
        if not self.access_log:
            return
        line = {
            "trace_id": trace_id,
            "status": status,
            "latency_ms": round((time.perf_counter() - started) * 1e3, 3),
            "graphs": graphs,
        }
        if energy is not None:
            line["energy"] = energy
        stream = self.access_log_stream if self.access_log_stream is not None else sys.stderr
        print(json.dumps(line), file=stream, flush=True)

    @property
    def port(self) -> int:
        return self.server_address[1]

    @property
    def url(self) -> str:
        host = self.server_address[0]
        return f"http://{host}:{self.port}"

    def drain(self) -> None:
        """Graceful shutdown: unhealthy → reject new → flush → close.

        Safe to call from a signal handler or any thread; idempotent.
        """
        if self.draining:
            return
        self.draining = True
        # shutdown() must come from outside serve_forever's thread; it
        # returns after the accept loop exits.  In-flight handler threads
        # finish independently; the backend flush below waits for the
        # work they already submitted.
        threading.Thread(target=self.shutdown, daemon=True).start()
        self.backend.stop()

    def serve_until_stopped(self) -> None:
        """``serve_forever`` + orderly socket close (blocking call)."""
        try:
            self.serve_forever(poll_interval=0.05)
        finally:
            self.server_close()


def serve_http(
    backend,
    host: str = "127.0.0.1",
    port: int = 0,
    stats: ServingStats | None = None,
    result_timeout: float = DEFAULT_RESULT_TIMEOUT,
    access_log: bool = False,
    access_log_stream=None,
    breaker: "CircuitBreaker | None | str" = "default",
) -> ServingServer:
    """Build a :class:`ServingServer` and start its accept loop in a thread.

    Returns the server (bound, serving); ``server.drain()`` shuts it
    down.  ``port=0`` binds an ephemeral port (tests, bench harnesses) —
    read it back from ``server.port``.
    """
    server = ServingServer(
        backend, address=(host, port), stats=stats,
        result_timeout=result_timeout, access_log=access_log,
        access_log_stream=access_log_stream, breaker=breaker,
    )
    thread = threading.Thread(target=server.serve_until_stopped, daemon=True)
    thread.start()
    server._serve_thread = thread
    return server
