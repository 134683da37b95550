"""Shared serving primitives: result handles and failure vocabulary.

Every serving front-end — the in-process worker-thread queue
(:meth:`repro.serve.engine.InferenceEngine.submit`) and the HTTP layer
(:mod:`repro.serve.net`) — answers a request through a
:class:`PendingResult` and fails it with one of the exception types below.
Keeping the vocabulary in one module lets the HTTP layer map outcomes to
status codes without knowing which backend served the request:

===================  ===========================================  =====
exception            meaning                                      HTTP
===================  ===========================================  =====
``ValueError``       malformed / schema-invalid request           400
:class:`QueueFull`   admission control shed the request           429
:class:`DeadlineExceeded`  expired before a forward ran           504
:class:`EngineStopped`     backend stopped or died first          503
anything else        engine bug surfaced to the waiter            500
===================  ===========================================  =====
"""

from __future__ import annotations

import threading

__all__ = ["PendingResult", "DeadlineExceeded", "EngineStopped", "QueueFull", "submit_each"]


class DeadlineExceeded(RuntimeError):
    """The request's deadline passed before it was served (load shedding
    prefers dropping late work over serving answers nobody is waiting for)."""


class EngineStopped(RuntimeError):
    """The serving backend stopped (drain) or died before this request ran."""


class QueueFull(RuntimeError):
    """Admission control rejected the request: the bounded inflight queue is
    at capacity.  Clients should back off and retry (HTTP 429)."""


class PendingResult:
    """Future-like handle for one submitted request.

    A handle is resolved exactly once — with a result or with an error —
    by whichever backend served (or failed) the request; ``result()``
    blocks until then.  The first ``_resolve`` wins: late duplicates (e.g.
    a dying serve loop failing a pass it had already answered) are
    ignored, so waiters can never observe a result changing underneath
    them.
    """

    def __init__(self):
        self._event = threading.Event()
        self._lock = threading.Lock()
        self._result = None
        self._error: BaseException | None = None
        self._callbacks: list = []
        # Observability metadata stamped by the submitting front-end:
        # the request's trace id (propagated to spans and the X-Trace-Id
        # response header) and its enqueue instant on the backend clock
        # (feeds the queue-wait histogram).
        self.trace_id: str | None = None
        self.enqueued_at: float | None = None

    def _resolve(self, result, error: BaseException | None = None) -> bool:
        """Deliver the outcome; returns False if already resolved."""
        with self._lock:
            if self._event.is_set():
                return False
            self._result = result
            self._error = error
            self._event.set()
            callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)
        return True

    def add_done_callback(self, callback) -> None:
        """Run ``callback(handle)`` once resolved (immediately if already).

        Callbacks run on the resolving thread (usually the serve loop)
        and must be cheap and non-raising — the front-ends use them for
        inflight accounting.
        """
        with self._lock:
            if not self._event.is_set():
                self._callbacks.append(callback)
                return
        callback(self)

    def done(self) -> bool:
        """Whether a result (or error) is available."""
        return self._event.is_set()

    def result(self, timeout: float | None = None):
        """Block until resolved; raises the stored error if the request failed."""
        if not self._event.wait(timeout):
            raise TimeoutError("prediction not ready within timeout")
        if self._error is not None:
            raise self._error
        return self._result


def submit_each(submit, graphs, deadline=None, trace_id=None) -> list[PendingResult]:
    """``submit`` every graph; a graph it refuses gets a handle failed with the refusal.

    The shared body of the backends' ``submit_many``: one refused graph (a
    schema ``ValueError``, a ``QueueFull`` shed) fails only its own handle,
    so a multi-graph request keeps one outcome per graph.
    """
    handles = []
    for graph in graphs:
        try:
            handle = submit(graph, deadline=deadline, trace_id=trace_id)
        except Exception as err:
            handle = PendingResult()
            handle._resolve(None, err)
        handles.append(handle)
    return handles
