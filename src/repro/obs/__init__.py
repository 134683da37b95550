"""Unified observability: metrics registry, tracing spans, kernel profiling.

Three pillars, one package (all stdlib-only):

* :data:`registry` — the process-wide metrics sink
  (:class:`Counter` / :class:`Gauge` / :class:`Histogram`, labelled
  series, lock-free-read snapshots, Prometheus text exposition via
  :func:`render_prometheus`).  Metrics default **on**; measured overhead
  on the serving bench is gated < 2% in CI (``benchmarks/BENCH_obs.json``).
* :func:`span` / :func:`trace_context` / :func:`dump_trace` — nested
  tracing spans with per-request trace-id propagation and a Chrome
  trace-event exporter.  Tracing defaults **off** (:func:`enable_tracing`
  or ``REPRO_OBS_TRACE=1`` to arm).
* :func:`profile_mode` — per-op time/bytes accounting for the autograd
  tape; ``python -m repro.obs report`` prints the top-k kernel table.

Every switch lives on :data:`FLAGS` and is checked before any dict or
lock work, so disabled instrumentation costs one attribute read.
"""

from repro.obs.registry import (
    DEFAULT_BUCKETS,
    FLAGS,
    LATENCY_MS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    Registry,
    registry,
    render_prometheus,
)
from repro.obs.trace import (
    clear_trace,
    current_trace_id,
    disable_tracing,
    dump_trace,
    enable_tracing,
    new_trace_id,
    span,
    trace_context,
    trace_events,
    tracing_enabled,
)
from repro.obs.profile import (
    dump_profile,
    format_report,
    profile_mode,
    profile_snapshot,
    reset_profile,
)

__all__ = [
    # registry
    "FLAGS",
    "Counter",
    "Gauge",
    "Histogram",
    "Registry",
    "registry",
    "render_prometheus",
    "DEFAULT_BUCKETS",
    "LATENCY_MS_BUCKETS",
    # tracing
    "span",
    "trace_context",
    "current_trace_id",
    "new_trace_id",
    "enable_tracing",
    "disable_tracing",
    "tracing_enabled",
    "dump_trace",
    "clear_trace",
    "trace_events",
    # profiling
    "profile_mode",
    "profile_snapshot",
    "reset_profile",
    "dump_profile",
    "format_report",
]
