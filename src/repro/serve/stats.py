"""Live serving telemetry: request counters and latency percentiles.

:class:`ServingStats` is the thread-safe sink every networked front-end
(:mod:`repro.serve.net`) records into, and what ``GET /stats`` snapshots:
the production counters (received / served / bad requests / shed /
expired / errors) and p50/p99 latency over the last ``window`` served
responses.

All timing uses the monotonic clock (injectable for tests).
"""

from __future__ import annotations

import threading
import time
from collections import deque

import numpy as np

__all__ = ["ServingStats"]


def _percentiles(values, points=(50.0, 99.0)) -> dict[str, float]:
    """Percentile summary of ``values``; all-zero on an empty window.

    ``np.percentile`` raises on empty input, which would turn a ``GET
    /stats`` before any traffic into a 500 — zeros are the honest
    pre-traffic answer and keep the payload shape stable.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return {f"p{point:g}": 0.0 for point in points}
    return {f"p{point:g}": float(np.percentile(arr, point)) for point in points}


class ServingStats:
    """Thread-safe serving counters with a rolling latency window.

    Parameters
    ----------
    window:
        Number of most-recent served responses the latency percentiles
        are computed over.
    clock:
        Monotonic time source (injectable for deterministic tests).
    """

    def __init__(self, window: int = 512, clock=time.monotonic):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.clock = clock
        self._lock = threading.Lock()
        self._started = clock()
        self._counts = {
            "received": 0,      # requests admitted past parsing
            "served": 0,        # answered with a prediction
            "bad_requests": 0,  # malformed / schema-invalid (HTTP 400)
            "shed": 0,          # rejected by admission control (HTTP 429)
            "expired": 0,       # deadline passed before serving (HTTP 504)
            "errors": 0,        # engine-side failures (HTTP 500)
        }
        self._latencies: deque = deque(maxlen=window)     # seconds, served only

    def record_received(self, count: int = 1) -> None:
        with self._lock:
            self._counts["received"] += count

    def record_served(self, latency_s: float) -> None:
        """Record one answered prediction."""
        with self._lock:
            self._counts["served"] += 1
            self._latencies.append(float(latency_s))

    def record_bad_request(self) -> None:
        with self._lock:
            self._counts["bad_requests"] += 1

    def record_shed(self) -> None:
        with self._lock:
            self._counts["shed"] += 1

    def record_expired(self) -> None:
        with self._lock:
            self._counts["expired"] += 1

    def record_error(self) -> None:
        with self._lock:
            self._counts["errors"] += 1

    def snapshot(self) -> dict:
        """One consistent, JSON-serialisable view (the ``/stats`` payload)."""
        with self._lock:
            counts = dict(self._counts)
            latencies = list(self._latencies)
            uptime = self.clock() - self._started
        latency = {"window": len(latencies)}
        # Percentile keys are always present (zeros pre-traffic) so
        # dashboards and the regression test see a stable payload shape.
        latency.update(
            {k: v * 1e3 for k, v in _percentiles(latencies).items()}
        )
        return {
            "uptime_s": uptime,
            "counts": counts,
            "latency_ms": latency,
        }

    def collect(self):
        """Pull-time metrics source in the registry-collector shape.

        Lets a front-end merge this sink into a ``/metrics`` scrape via
        :func:`repro.obs.render_prometheus` (``extra_collectors``) without
        registering request-scoped state process-wide.
        """
        snap = self.snapshot()
        yield ("repro_serving_requests_total", "counter",
               "Front-end requests by outcome",
               [({"outcome": name}, value) for name, value in snap["counts"].items()])
        yield ("repro_serving_uptime_seconds", "gauge",
               "Seconds since this stats sink was created",
               [({}, snap["uptime_s"])])
        latency = snap["latency_ms"]
        yield ("repro_serving_latency_window_ms", "gauge",
               "Rolling served-latency percentiles (window, not cumulative)",
               [({"quantile": key}, latency[key]) for key in latency if key != "window"])
