"""Process-wide metrics registry: counters, gauges, histograms, exposition.

One :class:`Registry` instance (:data:`repro.obs.registry`) is the sink
every instrumented layer records into — the fused reweighting loops, the
batched multi-seed trainer, the message-passing operator builds and the
whole serving stack.  It is
deliberately **stdlib-only** (no numpy) so importing it from the hottest
modules costs nothing beyond the module itself.

Design rules, in order of importance:

* **No-op cheap when disabled.**  Every mutator checks the module-level
  :class:`ObsFlags` singleton (:data:`FLAGS`) *before* touching any dict
  or lock, so a disabled registry costs one attribute read per event.
  Instrumented hot loops additionally guard their own call sites with the
  same flag, so even argument packing is skipped.
* **Lock-free-read snapshots.**  Writers serialise on a tiny per-metric
  lock (an unguarded ``+=`` is a read-modify-write that loses updates
  under thread preemption); readers never take it — CPython guarantees a
  torn-free read of each individual float/int under the GIL, and
  :meth:`Registry.snapshot` only ever *reads*.  A snapshot is therefore a
  consistent-enough view for monitoring (a histogram's sum may trail its
  counts by an in-flight observation) and can never block or be blocked
  by the serving hot path.
* **Monotonic-clock timing.**  All duration helpers use
  :func:`time.perf_counter`; wall-clock never enters a measurement.

Label handling follows the Prometheus data model: a metric family owns a
set of label *names*; each distinct label-value tuple is its own series.
:func:`render_prometheus` emits the text exposition format (``# HELP`` /
``# TYPE`` / ``name{label="value"} 1234``) with the required escaping of
backslashes, quotes and newlines in label values.
"""

from __future__ import annotations

import threading
import time

__all__ = [
    "ObsFlags",
    "FLAGS",
    "Counter",
    "Gauge",
    "Histogram",
    "Registry",
    "registry",
    "render_prometheus",
    "DEFAULT_BUCKETS",
    "LATENCY_MS_BUCKETS",
]


class ObsFlags:
    """Module-level switchboard the hot paths read one attribute from.

    ``metrics`` gates every registry mutator (default on — the measured
    overhead is < 2% on the serving bench, see ``benchmarks/BENCH_obs.json``);
    ``tracing`` gates span recording (default off — spans allocate);
    ``profiling`` is flipped by :func:`repro.obs.profile.profile_mode`.
    """

    __slots__ = ("metrics", "tracing", "profiling")

    def __init__(self):
        import os

        self.metrics = os.environ.get("REPRO_OBS_METRICS", "1") != "0"
        self.tracing = os.environ.get("REPRO_OBS_TRACE", "0") == "1"
        self.profiling = False


#: The process-wide flag singleton.  Hot call sites do
#: ``if FLAGS.metrics: counter.inc()`` — one attribute read when disabled.
FLAGS = ObsFlags()


def _check_name(name: str) -> str:
    if not name or not all(c.isalnum() or c in "_:" for c in name):
        raise ValueError(
            f"invalid metric name {name!r}: use [a-zA-Z0-9_:] (Prometheus data model)"
        )
    return name


def _escape_label_value(value: str) -> str:
    """Prometheus text-format escaping: backslash, double-quote, newline."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


class _Timer:
    """``with metric.time():`` — observe elapsed seconds on exit."""

    __slots__ = ("_metric", "_labels", "_start")

    def __init__(self, metric, labels):
        self._metric = metric
        self._labels = labels
        self._start = 0.0

    def __enter__(self):
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self._start
        self._metric._observe_elapsed(elapsed, self._labels)
        return False


class _Metric:
    """Shared family machinery: label resolution and series creation."""

    kind = "untyped"

    __slots__ = ("name", "help", "labelnames", "_series", "_lock")

    def __init__(self, name: str, help: str = "", labelnames: tuple = ()):
        self.name = _check_name(name)
        self.help = help
        self.labelnames = tuple(labelnames)
        self._series: dict = {}
        self._lock = threading.Lock()

    def _key(self, labels: dict) -> tuple:
        if not self.labelnames:
            if labels:
                raise ValueError(f"metric {self.name} takes no labels, got {labels}")
            return ()
        try:
            return tuple(str(labels[name]) for name in self.labelnames)
        except KeyError as err:
            raise ValueError(
                f"metric {self.name} requires labels {self.labelnames}, got {tuple(labels)}"
            ) from err

    def _get_series(self, key: tuple):
        series = self._series.get(key)
        if series is None:
            with self._lock:
                series = self._series.get(key)
                if series is None:
                    series = self._new_series()
                    self._series[key] = series
        return series

    def _new_series(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def clear(self) -> None:
        with self._lock:
            self._series.clear()

    def time(self, **labels) -> _Timer:
        """Context manager measuring perf_counter seconds into this metric."""
        return _Timer(self, labels)

    def _observe_elapsed(self, seconds: float, labels: dict) -> None:
        raise NotImplementedError


class _CounterSeries:
    __slots__ = ("value", "lock")

    def __init__(self):
        self.value = 0.0
        self.lock = threading.Lock()


class Counter(_Metric):
    """Monotonically increasing count (events, seconds, bytes)."""

    kind = "counter"
    __slots__ = ()

    def _new_series(self):
        return _CounterSeries()

    def inc(self, value: float = 1.0, **labels) -> None:
        """Add ``value`` (must be >= 0) to the labelled series."""
        if not FLAGS.metrics:
            return
        if value < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {value})")
        series = self._get_series(self._key(labels))
        with series.lock:
            series.value += value

    def value(self, **labels) -> float:
        series = self._series.get(self._key(labels))
        return 0.0 if series is None else series.value

    def _observe_elapsed(self, seconds: float, labels: dict) -> None:
        self.inc(seconds, **labels)

    def collect(self):
        for key, series in list(self._series.items()):
            yield self.name, key, series.value


class _GaugeSeries:
    __slots__ = ("value", "lock")

    def __init__(self):
        self.value = 0.0
        self.lock = threading.Lock()


class Gauge(_Metric):
    """A value that can go up and down (sizes, inflight counts)."""

    kind = "gauge"
    __slots__ = ()

    def _new_series(self):
        return _GaugeSeries()

    def set(self, value: float, **labels) -> None:
        if not FLAGS.metrics:
            return
        series = self._get_series(self._key(labels))
        series.value = float(value)

    def inc(self, value: float = 1.0, **labels) -> None:
        if not FLAGS.metrics:
            return
        series = self._get_series(self._key(labels))
        with series.lock:
            series.value += value

    def dec(self, value: float = 1.0, **labels) -> None:
        self.inc(-value, **labels)

    def value(self, **labels) -> float:
        series = self._series.get(self._key(labels))
        return 0.0 if series is None else series.value

    def _observe_elapsed(self, seconds: float, labels: dict) -> None:
        self.set(seconds, **labels)

    def collect(self):
        for key, series in list(self._series.items()):
            yield self.name, key, series.value


#: Generic duration buckets (seconds), log-spaced 100µs .. 10s.
DEFAULT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Millisecond latency buckets for the serving-path histograms
#: (``queue_wait_ms`` / ``deadline_slack_ms``).
LATENCY_MS_BUCKETS = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0,
)


class _HistogramSeries:
    __slots__ = ("counts", "sum", "count", "lock")

    def __init__(self, num_buckets: int):
        self.counts = [0] * (num_buckets + 1)  # +Inf tail bucket
        self.sum = 0.0
        self.count = 0
        self.lock = threading.Lock()


class Histogram(_Metric):
    """Cumulative-bucket histogram, Prometheus semantics.

    ``observe(v)`` increments the first bucket whose upper bound admits
    ``v`` (buckets are *non*-cumulative internally; exposition renders
    the cumulative ``_bucket{le=...}`` series plus ``_sum`` / ``_count``).
    """

    kind = "histogram"
    __slots__ = ("buckets",)

    def __init__(self, name: str, help: str = "", labelnames: tuple = (),
                 buckets=DEFAULT_BUCKETS):
        super().__init__(name, help, labelnames)
        buckets = tuple(sorted(float(b) for b in buckets))
        if not buckets:
            raise ValueError("histogram needs at least one bucket bound")
        self.buckets = buckets

    def _new_series(self):
        return _HistogramSeries(len(self.buckets))

    def observe(self, value: float, **labels) -> None:
        if not FLAGS.metrics:
            return
        series = self._get_series(self._key(labels))
        # Linear scan: bucket lists are short (<= ~16) and observations
        # cluster in the low buckets; bisect would cost more in call
        # overhead than it saves.
        index = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                index = i
                break
        with series.lock:
            series.counts[index] += 1
            series.sum += value
            series.count += 1

    def _observe_elapsed(self, seconds: float, labels: dict) -> None:
        self.observe(seconds, **labels)

    def value(self, **labels) -> dict:
        """Snapshot of one series: ``{"count", "sum", "buckets": {le: n}}``."""
        series = self._series.get(self._key(labels))
        if series is None:
            return {"count": 0, "sum": 0.0, "buckets": {}}
        counts = list(series.counts)
        cumulative: dict = {}
        running = 0
        for bound, n in zip(self.buckets, counts):
            running += n
            cumulative[bound] = running
        cumulative[float("inf")] = running + counts[-1]
        return {"count": series.count, "sum": series.sum, "buckets": cumulative}

    def collect(self):
        for key, series in list(self._series.items()):
            counts = list(series.counts)
            yield self.name, key, {
                "sum": series.sum,
                "count": series.count,
                "bucket_counts": counts,
                "bounds": self.buckets,
            }


class Registry:
    """Named metric families plus pull-time collectors.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create (idempotent
    across modules that instrument lazily); re-registering a name with a
    different kind or label set is an error — silent aliasing would
    corrupt the exposition.

    ``register_collector(fn)`` adds a zero-argument callable returning an
    iterable of ``(metric_name, kind, help, samples)`` where ``samples``
    is ``[(labels_dict, value)]`` — the pull-time bridge that lets a
    source keeping its own counters (the kernel profiler's per-op table)
    publish into ``/metrics`` without adding a single instruction to its
    hot path.
    """

    def __init__(self):
        self._metrics: dict[str, _Metric] = {}
        self._collectors: list = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _get_or_create(self, cls, name, help, labelnames, **kwargs):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls or existing.labelnames != tuple(labelnames):
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind} "
                        f"with labels {existing.labelnames}"
                    )
                return existing
            metric = cls(name, help=help, labelnames=tuple(labelnames), **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "", labelnames: tuple = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames: tuple = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(self, name: str, help: str = "", labelnames: tuple = (),
                  buckets=DEFAULT_BUCKETS) -> Histogram:
        return self._get_or_create(Histogram, name, help, labelnames, buckets=buckets)

    def register_collector(self, collector) -> None:
        """Add a pull-time sample source (see class docstring); idempotent."""
        with self._lock:
            if collector not in self._collectors:
                self._collectors.append(collector)

    def unregister_collector(self, collector) -> None:
        with self._lock:
            if collector in self._collectors:
                self._collectors.remove(collector)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-ready ``{metric: {kind, help, series: [{labels, value}]}}``.

        Takes no locks on the write path (see module docstring); the
        registry lock is held only to copy the family list.
        """
        with self._lock:
            metrics = list(self._metrics.values())
            collectors = list(self._collectors)
        out: dict = {}
        for metric in metrics:
            series = []
            for name, key, value in metric.collect():
                labels = dict(zip(metric.labelnames, key))
                if isinstance(value, dict):
                    value = dict(value)
                    value.pop("bounds", None)
                series.append({"labels": labels, "value": value})
            out[metric.name] = {"kind": metric.kind, "help": metric.help, "series": series}
        for collector in collectors:
            for name, kind, help_text, samples in collector():
                entry = out.setdefault(name, {"kind": kind, "help": help_text, "series": []})
                for labels, value in samples:
                    entry["series"].append({"labels": dict(labels), "value": value})
        return out

    def render(self) -> str:
        """Prometheus text exposition of every family and collector."""
        with self._lock:
            metrics = list(self._metrics.values())
            collectors = list(self._collectors)
        lines: list[str] = []
        seen: set[str] = set()
        for metric in metrics:
            _render_family(lines, metric.name, metric.kind, metric.help)
            seen.add(metric.name)
            for name, key, value in metric.collect():
                labels = dict(zip(metric.labelnames, key))
                if metric.kind == "histogram":
                    _render_histogram(lines, name, labels, value)
                else:
                    lines.append(_sample_line(name, labels, value))
        for collector in collectors:
            for name, kind, help_text, samples in collector():
                if name not in seen:
                    _render_family(lines, name, kind, help_text)
                    seen.add(name)
                for labels, value in samples:
                    lines.append(_sample_line(name, dict(labels), value))
        return "\n".join(lines) + "\n"

    def reset(self) -> None:
        """Drop every series (not the families or collectors) — test isolation."""
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            metric.clear()

    def clear(self) -> None:
        """Drop families *and* collectors (full re-registration required)."""
        with self._lock:
            self._metrics.clear()
            self._collectors.clear()


def _render_family(lines: list, name: str, kind: str, help_text: str) -> None:
    if help_text:
        lines.append(f"# HELP {name} {_escape_help(help_text)}")
    lines.append(f"# TYPE {name} {kind}")


def _sample_line(name: str, labels: dict, value) -> str:
    if labels:
        body = ",".join(
            f'{key}="{_escape_label_value(str(val))}"' for key, val in labels.items()
        )
        return f"{name}{{{body}}} {_format_value(float(value))}"
    return f"{name} {_format_value(float(value))}"


def _render_histogram(lines: list, name: str, labels: dict, value: dict) -> None:
    running = 0
    for bound, count in zip(value["bounds"], value["bucket_counts"]):
        running += count
        lines.append(_sample_line(f"{name}_bucket", {**labels, "le": _format_value(bound)}, running))
    running += value["bucket_counts"][-1]
    lines.append(_sample_line(f"{name}_bucket", {**labels, "le": "+Inf"}, running))
    lines.append(_sample_line(f"{name}_sum", labels, value["sum"]))
    lines.append(_sample_line(f"{name}_count", labels, value["count"]))


#: The process-wide registry every instrumented layer records into.
registry = Registry()


def render_prometheus(extra_collectors=()) -> str:
    """Text exposition of :data:`registry` plus ad-hoc collectors.

    ``extra_collectors`` lets a front-end merge request-scoped sources
    (e.g. a :class:`~repro.serve.stats.ServingStats` and the circuit
    breaker's counters) into one scrape without registering them
    process-wide.
    """
    if not extra_collectors:
        return registry.render()
    text = registry.render()
    lines = [text.rstrip("\n")] if text.strip() else []
    for collector in extra_collectors:
        for name, kind, help_text, samples in collector():
            _render_family(lines, name, kind, help_text)
            for labels, value in samples:
                lines.append(_sample_line(name, dict(labels), value))
    return "\n".join(lines) + "\n"
