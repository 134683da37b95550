"""Tracing spans: nested wall-time/alloc accounting and Chrome-trace export.

Usage::

    from repro.obs import enable_tracing, span, dump_trace

    enable_tracing()
    with span("reweight.epoch", n=n, K=K):
        ...
    dump_trace("trace.json")        # load in chrome://tracing / Perfetto

Spans nest via a thread-local stack: each records its parent span id and
the current **trace id** — the request-scoped correlation key the serving
stack propagates from ``InferenceEngine.submit`` through the engine queue's
pack and the (process-pool) worker forward to the ``X-Trace-Id`` HTTP response
header.  Binding is explicit (:func:`trace_context`) or automatic (a root
span with no bound trace id mints one).

Completed spans land in a fixed-size **ring buffer** (old spans fall off;
tracing a long serving run cannot grow memory without bound) and
:func:`dump_trace` exports them in the Chrome trace-event JSON format
(``ph: "X"`` complete events, microsecond timestamps), which both
``chrome://tracing`` and Perfetto load directly.

Alloc accounting piggybacks on :mod:`tracemalloc` when it is already
tracing (``python -X tracemalloc ...`` or an explicit ``tracemalloc.start()``):
each span then records the net traced-allocation delta across its body as
``alloc_bytes``.  When tracemalloc is off the field is omitted — starting
it implicitly would slow the process by far more than any span.

Overhead discipline: when tracing is disabled (:data:`FLAGS.tracing`,
default off) :func:`span` returns a shared no-op context manager without
allocating, so instrumented hot loops pay one flag read plus one call.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from collections import deque

from repro.obs.registry import FLAGS

__all__ = [
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
    "TRACE_RING_SIZE",
]

#: Completed spans kept in memory (ring buffer; oldest evicted first).
TRACE_RING_SIZE = 4096

_ring: deque = deque(maxlen=TRACE_RING_SIZE)
_ring_lock = threading.Lock()
_tls = threading.local()

#: perf_counter origin shared by every span in the process, so Chrome's
#: timeline lines spans from different threads up on one clock.
_EPOCH = time.perf_counter()


def new_trace_id() -> str:
    """A fresh 16-hex-char trace id (collision-safe per process lifetime)."""
    return uuid.uuid4().hex[:16]


def current_trace_id() -> str | None:
    """The trace id bound to this thread (None outside any trace)."""
    return getattr(_tls, "trace_id", None)


class trace_context:
    """Bind ``trace_id`` to the current thread for the ``with`` body.

    Nested bindings restore the previous id on exit; ``None`` mints a
    fresh id.  Used by the serving loops to tag the spans of one packed
    forward with the ids of the requests it serves.
    """

    __slots__ = ("trace_id", "_previous")

    def __init__(self, trace_id: str | None = None):
        self.trace_id = trace_id if trace_id is not None else new_trace_id()
        self._previous = None

    def __enter__(self) -> str:
        self._previous = getattr(_tls, "trace_id", None)
        _tls.trace_id = self.trace_id
        return self.trace_id

    def __exit__(self, exc_type, exc, tb):
        _tls.trace_id = self._previous
        return False


def enable_tracing() -> None:
    """Start recording spans into the ring buffer (process-wide)."""
    FLAGS.tracing = True


def disable_tracing() -> None:
    FLAGS.tracing = False


def tracing_enabled() -> bool:
    return FLAGS.tracing


class _NullSpan:
    """Shared zero-cost stand-in returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

    def set(self, **attrs) -> None:
        """Attribute setter that drops everything (API parity with _Span)."""


_NULL_SPAN = _NullSpan()
_span_counter_lock = threading.Lock()
_span_counter = [0]


def _next_span_id() -> int:
    with _span_counter_lock:
        _span_counter[0] += 1
        return _span_counter[0]


class _Span:
    """One live span; records itself into the ring buffer on exit."""

    __slots__ = ("name", "args", "span_id", "parent_id", "trace_id",
                 "_start", "_alloc_start", "_owns_trace")

    def __init__(self, name: str, args: dict):
        self.name = name
        self.args = args
        self.span_id = _next_span_id()
        self.parent_id = None
        self.trace_id = None
        self._start = 0.0
        self._alloc_start = None
        self._owns_trace = False

    def set(self, **attrs) -> None:
        """Attach attributes discovered mid-span (batch size, cache hits...)."""
        self.args.update(attrs)

    def __enter__(self) -> "_Span":
        stack = getattr(_tls, "spans", None)
        if stack is None:
            stack = _tls.spans = []
        if stack:
            self.parent_id = stack[-1].span_id
        trace_id = getattr(_tls, "trace_id", None)
        if trace_id is None:
            # A root span outside any bound trace mints its own id so the
            # export is always correlatable.
            trace_id = new_trace_id()
            _tls.trace_id = trace_id
            self._owns_trace = True
        self.trace_id = trace_id
        stack.append(self)
        try:
            import tracemalloc

            if tracemalloc.is_tracing():
                self._alloc_start = tracemalloc.get_traced_memory()[0]
        except ImportError:  # pragma: no cover - tracemalloc is stdlib
            pass
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        end = time.perf_counter()
        stack = getattr(_tls, "spans", None)
        # Unwind defensively: an exception deeper in the stack must never
        # leave this thread's span stack pointing at a dead span.
        if stack:
            while stack and stack[-1] is not self:
                stack.pop()
            if stack:
                stack.pop()
        if self._owns_trace:
            _tls.trace_id = None
        record = {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": self._start - _EPOCH,
            "duration_s": end - self._start,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "args": self.args,
        }
        if exc_type is not None:
            record["error"] = exc_type.__name__
        if self._alloc_start is not None:
            import tracemalloc

            record["alloc_bytes"] = tracemalloc.get_traced_memory()[0] - self._alloc_start
        with _ring_lock:
            _ring.append(record)
        return False  # never swallow the exception


def span(name: str, **args):
    """Open a span named ``name`` with static attributes ``args``.

    Returns a context manager.  While tracing is disabled this is a
    shared no-op object — safe (and cheap) to leave in hot loops.
    """
    if not FLAGS.tracing:
        return _NULL_SPAN
    return _Span(name, args)


def trace_events() -> list[dict]:
    """Copy of the completed-span records currently in the ring buffer."""
    with _ring_lock:
        return list(_ring)


def clear_trace() -> None:
    """Empty the ring buffer (test isolation / start of a fresh capture)."""
    with _ring_lock:
        _ring.clear()


def dump_trace(path: str | None = None) -> dict:
    """Export the ring buffer as Chrome trace-event JSON.

    Returns the trace dict; when ``path`` is given it is also written
    there (load the file in ``chrome://tracing`` or https://ui.perfetto.dev).
    Span attributes, trace ids and parent span ids ride in ``args``.
    """
    events = []
    for record in trace_events():
        args = {"trace_id": record["trace_id"], "span_id": record["span_id"]}
        if record["parent_id"] is not None:
            args["parent_span_id"] = record["parent_id"]
        if "error" in record:
            args["error"] = record["error"]
        if "alloc_bytes" in record:
            args["alloc_bytes"] = record["alloc_bytes"]
        for key, value in record["args"].items():
            if not isinstance(value, (str, int, float, bool, type(None))):
                value = str(value)
            args[key] = value
        events.append(
            {
                "name": record["name"],
                "cat": record["name"].split(".", 1)[0],
                "ph": "X",
                "ts": record["start_s"] * 1e6,
                "dur": record["duration_s"] * 1e6,
                "pid": record["pid"],
                "tid": record["tid"],
                "args": args,
            }
        )
    trace = {"traceEvents": events, "displayTimeUnit": "ms"}
    if path is not None:
        with open(path, "w") as fh:
            json.dump(trace, fh, indent=2)
            fh.write("\n")
    return trace
