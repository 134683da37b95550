"""Live serving telemetry: counters, latency percentiles, OOD-rate drift.

:class:`ServingStats` is the thread-safe sink every networked front-end
(:mod:`repro.serve.net`) records into, and what ``GET /stats`` snapshots.
Besides the plain production counters (served / shed / expired / errors),
it keeps a **rolling energy-OOD-rate** over the last ``window`` responses:
per-response energy scores (:mod:`repro.serve.ood`) are computed anyway,
and their flag rate over recent traffic is a live distribution-shift
monitor — a calibrated threshold flags ~``1 - quantile`` of in-distribution
traffic, so a rolling rate drifting well above that says the serving
distribution has moved, without any retraining or labels.

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
    """Thread-safe serving counters with rolling OOD and latency windows.

    Parameters
    ----------
    window:
        Number of most-recent responses the rolling OOD-rate and latency
        percentiles are computed over.  Small enough to react to drift
        within seconds at production rates, large enough that one flagged
        request moves the rate by well under a percent.
    clock:
        Monotonic time source (injectable for deterministic tests).
    """

    def __init__(self, window: int = 512, clock=time.monotonic):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = window
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
        self._ood_flags: deque = deque(maxlen=window)     # per scored response: 0/1
        self._energies: deque = deque(maxlen=window)
        self._latencies: deque = deque(maxlen=window)     # seconds, served only
        self._ood_flagged_total = 0
        self._ood_scored_total = 0

    def record_received(self, count: int = 1) -> None:
        with self._lock:
            self._counts["received"] += count

    def record_served(self, latency_s: float, energy: float | None = None, is_ood: bool | None = None) -> None:
        """Record one answered prediction (and its OOD telemetry, if scored)."""
        with self._lock:
            self._counts["served"] += 1
            self._latencies.append(float(latency_s))
            if energy is not None:
                self._energies.append(float(energy))
            if is_ood is not None:
                flag = 1 if is_ood else 0
                self._ood_flags.append(flag)
                self._ood_flagged_total += flag
                self._ood_scored_total += 1

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
            flags = list(self._ood_flags)
            energies = list(self._energies)
            latencies = list(self._latencies)
            flagged_total = self._ood_flagged_total
            scored_total = self._ood_scored_total
            uptime = self.clock() - self._started
        ood: dict = {
            "window": self.window,
            "window_scored": len(flags),
            "scored_total": scored_total,
            "flagged_total": flagged_total,
        }
        if flags:
            ood["rolling_rate"] = float(np.mean(flags))
        if scored_total:
            ood["lifetime_rate"] = flagged_total / scored_total
        if energies:
            ood["rolling_mean_energy"] = float(np.mean(energies))
        latency = {"window": len(latencies)}
        # Percentile keys are always present (zeros pre-traffic) so
        # dashboards and the regression test see a stable payload shape.
        latency.update(
            {k: v * 1e3 for k, v in _percentiles(latencies).items()}
        )
        return {
            "uptime_s": uptime,
            "counts": counts,
            "ood": ood,
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
        ood = snap["ood"]
        samples = [({"stat": key}, float(ood[key])) for key in
                   ("window_scored", "scored_total", "flagged_total") if key in ood]
        if "rolling_rate" in ood:
            samples.append(({"stat": "rolling_rate"}, ood["rolling_rate"]))
        if "lifetime_rate" in ood:
            samples.append(({"stat": "lifetime_rate"}, ood["lifetime_rate"]))
        yield ("repro_serving_ood", "gauge",
               "Rolling energy-OOD drift telemetry", samples)
