"""Multi-process serving workers over one shared-memory weight bank.

The in-process :class:`~repro.serve.engine.InferenceEngine` is bounded by
one interpreter: HTTP parsing, JSON, request packing and the Python halves
of the forward all contend for a single GIL.  :class:`WorkerPool` runs K
worker *processes*, each owning a full engine, behind bounded admission —
and shares the model weights instead of duplicating them:

* :class:`SharedWeights` packs an artifact's stacked per-seed parameters
  and buffers into **one** :class:`multiprocessing.shared_memory`
  segment.  Workers attach and rebuild their models over read-only numpy
  views into that segment (``ModelArtifact.build_models(copy=False)`` →
  ``load_state_dict(copy=False)``), so worker RSS grows by page-table
  entries, not by a weight copy per process.  (The npz route —
  ``np.load(..., mmap_mode="r")`` — cannot do this: npz members live
  inside a zip archive and are decompressed on access, so ``mmap_mode``
  is silently ignored; a flat shared-memory bank is the layout that
  actually maps.)
* Production semantics are first-class: admission is **bounded**
  (``queue_depth`` outstanding requests — over it, :meth:`WorkerPool.submit`
  raises :class:`~repro.serve.futures.QueueFull`, HTTP 429), requests
  carry absolute monotonic **deadlines** (expired ones are dropped with
  :class:`~repro.serve.futures.DeadlineExceeded`, HTTP 504 — Linux's
  ``CLOCK_MONOTONIC`` is system-wide, so parent and worker clocks agree),
  ``stop()`` **drains**: it stops admission, lets workers flush what was
  queued, joins them, and fails anything left with
  :class:`~repro.serve.futures.EngineStopped`.
* Worker death is **survivable**, not terminal: a
  :class:`~repro.serve.supervisor.WorkerSupervisor` notices a dead worker
  via its sentinel pipe, respawns it against the *existing* shared
  segment (no re-publish), and the requests the dead worker held are
  transparently re-enqueued — at most ``retry_limit`` times, with
  jittered backoff, always inside the remaining per-request deadline —
  before anything surfaces to the client.  Each worker reads its **own**
  request queue (the parent dispatches least-outstanding-first), so a
  SIGKILL mid-``get`` can only poison the dead worker's queue, which is
  discarded and replaced on respawn; exactly-once handle resolution is
  preserved because a retried request gets a fresh id and stale
  responses for the old id are dropped.

Request/response payloads cross process boundaries as the JSON-ready
dicts of :mod:`repro.serve.wire`, so the HTTP layer can hand them straight
to the client without re-encoding.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue
import random
import threading
import time
import weakref
from multiprocessing import connection

import numpy as np

from repro.obs.registry import FLAGS
from repro.obs.trace import span
from repro.serve.artifact import FeatureSchema, ModelArtifact, ModelSpec
from repro.serve.faults import FAULT_EXIT_CODE, FAULTS
from repro.serve.futures import (
    DeadlineExceeded, EngineStopped, PendingResult, QueueFull, submit_each,
)
from repro.serve.ood import EnergyCalibration
from repro.serve.stats import ServingStats, aggregate_snapshots
from repro.serve.supervisor import RespawnPolicy, WorkerSupervisor

__all__ = ["SharedWeights", "WorkerPool", "process_memory"]

#: Minimum seconds between a worker's stats publications — keeps them to a
#: few messages per second per worker at any request rate.
STATS_PUBLISH_INTERVAL = 0.2

_ALIGN = 64  # align every array in the bank (cache-line / SIMD friendly)

#: Extra seconds past a request's deadline before the parent-side reaper
#: fails it — normally the worker reports ``expired`` first; the reaper
#: only catches requests stranded where no worker will ever see them
#: (e.g. queued to a slot that died before pulling them).
_REAP_GRACE = 0.25


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


class SharedWeights:
    """One artifact's weights in one shared-memory segment.

    The parent calls :meth:`publish` once; each worker calls
    :meth:`attach` with the (picklable) ``manifest`` and gets back an
    equivalent object whose :meth:`build_artifact` reconstructs a
    :class:`~repro.serve.artifact.ModelArtifact` over read-only views.
    The parent owns the segment: workers ``close()`` their mapping, the
    parent ``close(unlink=True)`` destroys it at shutdown — and a
    finalizer registered at :meth:`publish` unlinks it even when the
    publisher exits without ever calling ``close`` (an unhandled
    exception, ``sys.exit``), so abnormal exits cannot leak ``/dev/shm``
    segments until reboot.
    """

    def __init__(self, shm, manifest: dict, owner: bool):
        self._shm = shm
        self.manifest = manifest
        self._owner = owner
        # The finalizer fires on garbage collection or interpreter
        # shutdown, whichever comes first; close(unlink=True) invokes it
        # explicitly (weakref.finalize is exactly-once).
        self._finalizer = weakref.finalize(self, _unlink_segment, shm) if owner else None

    # ------------------------------------------------------------------
    # Parent side
    # ------------------------------------------------------------------
    @classmethod
    def publish(cls, artifact: ModelArtifact, dtype=None) -> "SharedWeights":
        """Pack ``artifact`` (cast to the serving ``dtype``) into shared memory."""
        from multiprocessing import shared_memory

        if dtype is not None:
            artifact = artifact.astype(dtype)
        entries = []
        offset = 0
        stacked: list[tuple[str, str, np.ndarray]] = []
        for kind, dicts in (("state", artifact.states), ("buffer", artifact.buffers)):
            for name in dicts[0]:
                arr = np.stack([np.asarray(d[name]) for d in dicts])
                offset = _aligned(offset)
                entries.append(
                    {"kind": kind, "name": name, "offset": offset,
                     "shape": list(arr.shape), "dtype": arr.dtype.str}
                )
                stacked.append((kind, name, arr))
                offset += arr.nbytes
        shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
        for entry, (_kind, _name, arr) in zip(entries, stacked):
            view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf, offset=entry["offset"])
            view[...] = arr
        manifest = {
            "shm_name": shm.name,
            "nbytes": int(offset),
            "entries": entries,
            "spec": artifact.spec.to_dict(),
            "schema": artifact.schema.to_dict(),
            "seeds": list(artifact.seeds),
            "dtype": artifact.dtype.name,
        }
        return cls(shm, manifest, owner=True)

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    @classmethod
    def attach(cls, manifest: dict) -> "SharedWeights":
        """Map the published segment in this process (no copy).

        Raises a descriptive :class:`RuntimeError` (not a bare
        :class:`FileNotFoundError`) when the segment no longer exists —
        the publishing process exited or unlinked it — so a respawned
        worker racing a pool shutdown dies with a diagnosis, not a
        mystery path error.
        """
        from multiprocessing import resource_tracker, shared_memory

        # CPython < 3.13 registers attached (not just created) segments
        # with the resource tracker, which would unlink the parent-owned
        # segment when the first worker exits — and with forked workers
        # the tracker process is shared, so even an attach-side
        # ``unregister`` would clobber the parent's registration.  The
        # parent owns cleanup; suppress registration during the attach
        # (3.13+ spells this ``track=False``).
        original_register = resource_tracker.register
        resource_tracker.register = lambda *_args, **_kwargs: None
        try:
            shm = shared_memory.SharedMemory(name=manifest["shm_name"])
        except FileNotFoundError:
            raise RuntimeError(
                f"shared weight segment {manifest['shm_name']!r} is gone — the "
                "publishing process exited or unlinked it; republish the "
                "artifact with SharedWeights.publish before attaching"
            ) from None
        finally:
            resource_tracker.register = original_register
        return cls(shm, manifest, owner=False)

    @property
    def nbytes(self) -> int:
        """Bytes of packed weights (the single copy all workers share)."""
        return self.manifest["nbytes"]

    @property
    def dtype_name(self) -> str:
        return self.manifest["dtype"]

    def arrays(self) -> dict[str, dict[str, np.ndarray]]:
        """Read-only seed-stacked views ``{"state": {...}, "buffer": {...}}``."""
        out: dict[str, dict[str, np.ndarray]] = {"state": {}, "buffer": {}}
        for entry in self.manifest["entries"]:
            view = np.ndarray(
                tuple(entry["shape"]),
                dtype=np.dtype(entry["dtype"]),
                buffer=self._shm.buf,
                offset=entry["offset"],
            )
            view.flags.writeable = False
            out[entry["kind"]][entry["name"]] = view
        return out

    def build_artifact(self) -> ModelArtifact:
        """A :class:`ModelArtifact` whose arrays are views into the segment."""
        views = self.arrays()
        seeds = self.manifest["seeds"]
        states = [{n: arr[k] for n, arr in views["state"].items()} for k in range(len(seeds))]
        buffers = [{n: arr[k] for n, arr in views["buffer"].items()} for k in range(len(seeds))]
        return ModelArtifact(
            ModelSpec.from_dict(self.manifest["spec"]),
            FeatureSchema.from_dict(self.manifest["schema"]),
            states,
            buffers,
            seeds,
        )

    def build_engine(self, **engine_kwargs):
        """An :class:`InferenceEngine` over zero-copy models from the segment."""
        from repro.serve.engine import InferenceEngine

        artifact = self.build_artifact()
        models = artifact.build_models(copy=False)
        return InferenceEngine.from_models(
            models, artifact.schema, dtype=self.dtype_name, **engine_kwargs
        )

    def close(self, unlink: bool = False) -> None:
        """Unmap the segment; ``unlink=True`` (owner) destroys it."""
        if unlink and self._owner and self._finalizer is not None:
            self._finalizer()
            return
        try:
            self._shm.close()
        finally:
            if unlink and self._owner:
                try:
                    self._shm.unlink()
                except FileNotFoundError:
                    pass


def _unlink_segment(shm) -> None:
    """Owner-side finalizer: unmap and destroy the segment, exactly once."""
    try:
        shm.close()
    except BufferError:
        # Numpy views into the bank are still alive (interpreter
        # shutdown order is arbitrary); unlinking the name is what
        # prevents the /dev/shm leak, so proceed regardless.
        pass
    try:
        shm.unlink()
    except FileNotFoundError:
        pass


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------

def _batch_span(live):
    """Span for one worker batch; skips the trace-id join when tracing is off."""
    if not FLAGS.tracing:
        return span("pool.batch")
    trace_ids = ",".join(t for _r, _g, t, _e in live if t is not None)
    return span("pool.batch", graphs=len(live), trace_ids=trace_ids)


def _serve_items(engine, items, answers, clock, stats: ServingStats) -> None:
    """Serve one coalesced batch; answer every item exactly once."""
    from repro.serve.wire import result_to_json

    now = clock()
    live = []
    for req_id, graph, deadline, trace_id, enqueued in items:
        stats.record_received()
        if deadline is not None and now >= deadline:
            answers.send((req_id, "expired", None))
            stats.record_expired()
        else:
            live.append((req_id, graph, trace_id, enqueued))
    if not live:
        return
    try:
        with _batch_span(live):
            results = engine.predict([graph for _r, graph, _t, _e in live])
    except Exception as err:
        # One poisoned batch answers its own requests with the error and
        # leaves the worker alive for everything queued behind it.
        for req_id, _graph, _t, _e in live:
            answers.send((req_id, "error", f"{type(err).__name__}: {err}"))
            stats.record_error()
        return
    done = clock()
    for (req_id, _graph, trace_id, enqueued), result in zip(live, results):
        payload = result_to_json(result)
        if trace_id is not None:
            # Propagate the request's trace id back through the wire
            # payload so the front-end (and clients) can correlate the
            # response with spans recorded in this worker process.
            payload["trace_id"] = trace_id
        answers.send((req_id, "ok", payload))
        latency = done - enqueued if enqueued is not None else 0.0
        stats.record_served(
            latency,
            energy=payload.get("energy"),
            is_ood=payload.get("ood"),
        )


def _publish_stats(answers, stats: ServingStats) -> None:
    """Best-effort snapshot publication; a closed pipe never kills serving."""
    try:
        answers.send((os.getpid(), "stats", stats.snapshot()))
    except OSError:
        pass


def _worker_main(manifest: dict, engine_kwargs: dict, request_q, answers,
                 faults_cfg=None) -> None:
    """Worker entry point: attach shared weights, serve until sentinel.

    ``request_q`` is this worker's **private** slot queue — the parent
    dispatches to it and puts exactly one ``None`` sentinel into it at
    drain, so a sentinel seen mid-coalesce just flushes the batch and
    exits (no sibling accounting needed).  ``faults_cfg`` is the
    ``(spec, seed)`` the parent resolved for this slot; it re-arms the
    process-local :data:`~repro.serve.faults.FAULTS` injector explicitly
    so forked workers neither miss a configured chaos plan nor inherit
    one the pool did not ask for.

    ``answers`` is the write end of this worker's own pipe to the parent.
    Every message is a ``(key, status, payload)`` triple, sent
    synchronously: a request's answer keyed by its id, or (status
    ``"stats"``) a snapshot of the process-local :class:`ServingStats`
    sink keyed by pid — throttled to one per
    :data:`STATS_PUBLISH_INTERVAL` while serving, plus one final snapshot
    on exit — so the parent can aggregate worker-side counters into the
    front-end's ``/stats`` and ``/metrics`` views.  No feeder thread and
    no lock shared with siblings: a worker killed mid-send can only
    truncate its own pipe.
    """
    if faults_cfg is not None:
        FAULTS.configure(*faults_cfg)
    calibration = engine_kwargs.pop("calibration", None)
    flush_timeout = engine_kwargs.pop("flush_timeout")
    shared = SharedWeights.attach(manifest)
    stats = ServingStats(clock=time.monotonic)
    last_publish = 0.0
    try:
        engine = shared.build_engine(**engine_kwargs)
        if calibration is not None:
            engine.calibration = EnergyCalibration.from_dict(calibration)
        max_graphs = engine.budget.max_graphs
        stopping = False
        while not stopping:
            item = request_q.get()
            if item is None:
                break
            items = [item]
            started = time.monotonic()
            # Coalesce a micro-batch: keep pulling until the budget fills
            # or the flush window (from the first request) elapses.
            while len(items) < max_graphs:
                remaining = flush_timeout - (time.monotonic() - started)
                if remaining <= 0:
                    break
                try:
                    nxt = request_q.get(timeout=remaining)
                except queue.Empty:
                    break
                if nxt is None:
                    # Sentinel mid-coalesce: flush what we have, then exit.
                    stopping = True
                    break
                items.append(nxt)
            if FAULTS.enabled:
                stall = FAULTS.slow_batch_s()
                if stall > 0.0:
                    time.sleep(stall)
                if FAULTS.worker_crash():
                    # Hard exit between pulling a batch and serving it —
                    # the exact window where requests are stranded and
                    # the supervisor + retry path must recover them.
                    os._exit(FAULT_EXIT_CODE)
            _serve_items(engine, items, answers, time.monotonic, stats)
            now = time.monotonic()
            if now - last_publish >= STATS_PUBLISH_INTERVAL:
                last_publish = now
                _publish_stats(answers, stats)
    finally:
        # Final snapshot first, then unmap: the parent reads the pipe to
        # EOF, so it holds the complete per-worker totals once stop() joins.
        _publish_stats(answers, stats)
        answers.close()
        shared.close()


# ----------------------------------------------------------------------
# Parent-side pool
# ----------------------------------------------------------------------

class _Inflight:
    """Parent-side record of one admitted request (handle + enough to retry it)."""

    __slots__ = ("handle", "graph", "deadline", "trace_id", "enqueued", "retries", "slot")

    def __init__(self, handle, graph, deadline, trace_id, enqueued):
        self.handle = handle
        self.graph = graph
        self.deadline = deadline
        self.trace_id = trace_id
        self.enqueued = enqueued
        self.retries = 0
        self.slot = -1


class _PoolSlot:
    """Parent-side view of one worker slot: its private queue + dispatch count."""

    __slots__ = ("index", "queue", "outstanding", "abandoned")

    def __init__(self, index: int, q):
        self.index = index
        self.queue = q
        self.outstanding = 0
        self.abandoned = False


class WorkerPool:
    """K serving processes over one shared weight bank (module docstring).

    Parameters mirror :class:`~repro.serve.engine.InferenceEngine` where
    they configure the per-worker engines (``max_graphs`` / ``max_nodes``
    / ``dtype`` / ``temperature`` / ``calibration``).  ``flush_timeout``
    is the worker loop's own coalescing window: a worker that pulled one
    request keeps pulling until ``max_graphs`` are in hand or
    ``flush_timeout`` seconds have passed.  (The in-process engine has no
    window; its loop serves as soon as it is idle.)

    ``queue_depth`` bounds the outstanding-request count — the admission
    control knob: over it, :meth:`submit` raises
    :class:`~repro.serve.futures.QueueFull` immediately instead of
    building an unbounded backlog of requests that will all miss their
    deadlines (default: ``4 * num_workers * max_graphs``).

    Fault tolerance: ``retry_limit`` caps how many times a request
    stranded by a worker death is re-enqueued (with jittered exponential
    backoff starting at ``retry_backoff`` seconds, clipped to the
    remaining deadline budget); ``respawn``/``respawn_policy`` configure
    the :class:`~repro.serve.supervisor.WorkerSupervisor` that replaces
    dead workers against the existing shared segment.  ``faults`` /
    ``faults_seed`` pin the chaos plan workers arm at startup (default:
    inherit the process-global :data:`~repro.serve.faults.FAULTS`, i.e.
    ``REPRO_FAULTS``); each slot arms ``seed + slot_index`` so siblings
    do not inject in lockstep.

    ``start_method`` picks the :mod:`multiprocessing` context
    (default ``"fork"`` where available — instant worker start; pass
    ``"spawn"`` for fork-hostile embedders).
    """

    def __init__(
        self,
        artifact: ModelArtifact,
        *,
        num_workers: int = 2,
        dtype=None,
        max_graphs: int = 64,
        max_nodes: int | None | str = "auto",
        flush_timeout: float = 0.01,
        queue_depth: int | None = None,
        temperature: float = 1.0,
        calibration: EnergyCalibration | None = None,
        start_method: str | None = None,
        clock=time.monotonic,
        retry_limit: int = 2,
        retry_backoff: float = 0.05,
        respawn: bool = True,
        respawn_policy: RespawnPolicy | None = None,
        faults: str | None = None,
        faults_seed: int | None = None,
    ):
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        if retry_limit < 0:
            raise ValueError(f"retry_limit must be >= 0, got {retry_limit}")
        if flush_timeout <= 0:
            raise ValueError(f"flush_timeout must be > 0, got {flush_timeout}")
        self.schema = artifact.schema
        self.num_workers = int(num_workers)
        self.clock = clock
        self.retry_limit = int(retry_limit)
        self.retry_backoff = float(retry_backoff)
        self._respawn = bool(respawn)
        self._policy = respawn_policy or RespawnPolicy()
        self._faults_spec = faults if faults is not None else FAULTS.describe()
        self._faults_seed = int(faults_seed) if faults_seed is not None else FAULTS.seed
        self._shared = SharedWeights.publish(artifact, dtype=dtype)
        self._engine_kwargs = {
            "max_graphs": max_graphs,
            "max_nodes": max_nodes,
            "flush_timeout": flush_timeout,
            "temperature": temperature,
            "calibration": None if calibration is None else calibration.to_dict(),
        }
        if start_method is None:
            start_method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        self._ctx = mp.get_context(start_method)
        self.queue_depth = int(queue_depth) if queue_depth is not None else 4 * self.num_workers * max_graphs
        if self.queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
        # One private request queue per slot (created up front so tests
        # can exercise admission without spawning workers): the parent is
        # the only writer and the slot's worker the only reader, so a
        # worker killed mid-``get`` can only poison its own queue — which
        # is discarded and replaced when the supervisor respawns the slot.
        self._slots = [_PoolSlot(i, self._ctx.Queue()) for i in range(self.num_workers)]
        # The read ends of the live workers' answer pipes (one per worker,
        # see _worker_main), plus a pipe that wakes the dispatcher when
        # that set changes.
        self._readers: set = set()
        self._wake_reader, self._wake_writer = self._ctx.Pipe(duplex=False)
        self._worker_snapshots: dict[int, dict] = {}
        self._supervisor: WorkerSupervisor | None = None
        self._dispatcher: threading.Thread | None = None
        self._handles: dict[int, _Inflight] = {}
        self._retry_timers: dict[threading.Timer, _Inflight] = {}
        self._retry_rng = random.Random(self._faults_seed ^ 0x5EED)
        self._retries_total = 0
        self._lock = threading.Lock()
        self._next_id = 0
        self._started = False
        self._closed = False
        self._failed: str | None = None

    # ------------------------------------------------------------------
    @property
    def weights_nbytes(self) -> int:
        """Size of the single shared weight bank all workers map."""
        return self._shared.nbytes

    def worker_pids(self) -> list[int]:
        if self._supervisor is None:
            return []
        return self._supervisor.worker_pids()

    def _spawn_worker(self, slot_index: int):
        """Supervisor spawn factory: fork a worker on the slot's current queue."""
        slot = self._slots[slot_index]
        reader, writer = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(self._shared.manifest, dict(self._engine_kwargs), slot.queue,
                  writer, (self._faults_spec, self._faults_seed + slot_index)),
            daemon=True,
        )
        proc.start()
        # The worker now holds the only write end: its death reads as EOF
        # here, even halfway through a message.
        writer.close()
        with self._lock:
            self._readers.add(reader)
        self._wake_writer.send_bytes(b"")
        return proc

    def start(self) -> "WorkerPool":
        """Spawn the workers, the supervisor, and the response dispatcher."""
        if self._started:
            raise RuntimeError("pool already started")
        self._started = True
        self._supervisor = WorkerSupervisor(
            self._spawn_worker,
            self.num_workers,
            policy=self._policy,
            respawn=self._respawn,
            clock=self.clock,
            on_death=self._on_worker_death,
            on_abandon=self._on_slot_abandoned,
            on_down=self._on_pool_down,
        ).start()
        self._dispatcher = threading.Thread(target=self._dispatch_loop, daemon=True)
        self._dispatcher.start()
        return self

    # ------------------------------------------------------------------
    # Admission + dispatch
    # ------------------------------------------------------------------
    def submit(self, graph, deadline: float | None = None, trace_id: str | None = None) -> PendingResult:
        """Enqueue one request; full admission sheds with :class:`QueueFull`.

        Returns a :class:`~repro.serve.futures.PendingResult` whose
        ``result()`` is the JSON-ready response dict
        (:func:`repro.serve.wire.result_to_json` format).  ``trace_id``
        travels with the request into the worker process: spans recorded
        around the worker forward carry it, and it comes back verbatim as
        a ``"trace_id"`` key on the response payload.
        """
        self.schema.validate_graph(graph)
        if FAULTS.enabled and FAULTS.queue_reject():
            raise QueueFull("fault injection: queue_reject shed this request")
        handle = PendingResult()
        enqueued = self.clock()
        handle.trace_id = trace_id
        handle.enqueued_at = enqueued
        rec = _Inflight(handle, graph, deadline, trace_id, enqueued)
        with self._lock:
            if self._closed or not self._started:
                raise EngineStopped("worker pool is not serving")
            if self._failed is not None:
                raise EngineStopped(self._failed)
            if len(self._handles) + len(self._retry_timers) >= self.queue_depth:
                raise QueueFull(
                    f"inflight queue at capacity ({self.queue_depth}); request shed"
                )
            req_id = self._enqueue_locked(rec)
        self._put_request(req_id, rec)
        return handle

    def submit_many(self, graphs, deadline: float | None = None,
                    trace_id: str | None = None) -> list[PendingResult]:
        """:meth:`submit` each graph of one request; a refused graph fails only its handle."""
        return submit_each(self.submit, graphs, deadline, trace_id)

    def _enqueue_locked(self, rec: _Inflight) -> int:
        """Assign a fresh id + the least-loaded live slot; register the record."""
        slot = min(
            (s for s in self._slots if not s.abandoned),
            key=lambda s: (s.outstanding, s.index),
            default=None,
        )
        if slot is None:
            raise EngineStopped(self._failed or "worker pool has no serviceable workers")
        req_id = self._next_id
        self._next_id += 1
        rec.slot = slot.index
        slot.outstanding += 1
        self._handles[req_id] = rec
        return req_id

    def _put_request(self, req_id: int, rec: _Inflight) -> None:
        """Ship an admitted record to its slot queue; failure resolves the handle."""
        try:
            self._slots[rec.slot].queue.put((req_id, rec.graph, rec.deadline,
                                             rec.trace_id, rec.enqueued))
        except (ValueError, OSError, AssertionError):
            # The queue was closed under us (stop() racing submit).
            with self._lock:
                self._pop_rec_locked(req_id)
            rec.handle._resolve(None, EngineStopped("worker pool is not serving"))

    def _pop_rec_locked(self, req_id: int) -> _Inflight | None:
        rec = self._handles.pop(req_id, None)
        if rec is not None and 0 <= rec.slot < len(self._slots):
            slot = self._slots[rec.slot]
            slot.outstanding = max(0, slot.outstanding - 1)
        return rec

    def _dispatch_loop(self) -> None:
        """Route worker messages; return once the pool is done and every
        answer pipe has reached EOF (a dead worker's pipe is dropped —
        the supervisor's death callback retries what that worker held)."""
        while True:
            with self._lock:
                readers = list(self._readers)
                done = self._closed or self._failed is not None
            if done and not readers:
                return
            ready = connection.wait([self._wake_reader, *readers], timeout=0.2)
            if not ready:
                self._reap_expired()
            for conn in ready:
                try:
                    msg = conn.recv_bytes() if conn is self._wake_reader else conn.recv()
                except (EOFError, OSError):
                    with self._lock:
                        self._readers.discard(conn)
                    conn.close()
                    continue
                if conn is not self._wake_reader:
                    self._deliver(*msg)

    def _deliver(self, key, status: str, payload) -> None:
        """Resolve the handle one worker message answers, or file its stats."""
        if status == "stats":
            with self._lock:
                self._worker_snapshots[key] = payload
            return
        with self._lock:
            rec = self._pop_rec_locked(key)
        if rec is None:
            return  # reaped, retried under a new id, or already failed
        if status == "ok":
            rec.handle._resolve(payload)
        elif status == "expired":
            rec.handle._resolve(None, DeadlineExceeded("request expired before a worker served it"))
        else:
            rec.handle._resolve(None, RuntimeError(f"worker error: {payload}"))

    def _reap_expired(self) -> None:
        """Fail requests stranded past deadline where no worker will see them."""
        now = self.clock()
        with self._lock:
            expired = [
                req_id for req_id, rec in self._handles.items()
                if rec.deadline is not None and now >= rec.deadline + _REAP_GRACE
            ]
            recs = [self._pop_rec_locked(req_id) for req_id in expired]
        for rec in recs:
            if rec is not None:
                rec.handle._resolve(
                    None, DeadlineExceeded("request expired before a worker served it")
                )

    # ------------------------------------------------------------------
    # Worker-death recovery (supervisor callbacks, monitor thread)
    # ------------------------------------------------------------------
    def _on_worker_death(self, slot_index: int, pid: int, exitcode: int) -> None:
        """A worker died: discard its (possibly poisoned) queue, retry its requests."""
        old_q = self._slots[slot_index].queue
        with self._lock:
            # Replace the queue *before* recovering requests so concurrent
            # submits dispatch into the fresh queue the respawned worker
            # will actually read.
            self._slots[slot_index].queue = self._ctx.Queue()
        try:
            old_q.close()
            old_q.cancel_join_thread()
        except Exception:
            pass
        cause = f"worker process (pid {pid}) died with exit code {exitcode}"
        self._recover_slot_requests(slot_index, cause)

    def _on_slot_abandoned(self, slot_index: int, reason: str) -> None:
        """A slot was written off: stop dispatching to it, move its requests."""
        with self._lock:
            self._slots[slot_index].abandoned = True
        self._recover_slot_requests(slot_index, reason)

    def _recover_slot_requests(self, slot_index: int, cause: str) -> None:
        with self._lock:
            stranded = [
                req_id for req_id, rec in self._handles.items()
                if rec.slot == slot_index
            ]
            recs = [self._pop_rec_locked(req_id) for req_id in stranded]
        for rec in recs:
            if rec is not None:
                self._retry_or_fail(rec, cause)

    def _retry_or_fail(self, rec: _Inflight, cause: str) -> None:
        """Re-enqueue a stranded request inside its budget, or surface the failure."""
        now = self.clock()
        if rec.deadline is not None and now >= rec.deadline:
            rec.handle._resolve(
                None,
                DeadlineExceeded(f"deadline passed while recovering from: {cause}"),
            )
            return
        if rec.retries >= self.retry_limit:
            rec.handle._resolve(
                None,
                EngineStopped(f"{cause}; retry limit ({self.retry_limit}) exhausted"),
            )
            return
        rec.retries += 1
        delay = self._retry_delay(rec, now)
        timer_box: list[threading.Timer] = []

        def fire() -> None:
            with self._lock:
                if self._retry_timers.pop(timer_box[0], None) is None:
                    return  # stop() already resolved this record
            self._requeue(rec)

        timer = threading.Timer(delay, fire)
        timer.daemon = True
        timer_box.append(timer)
        with self._lock:
            if self._closed or self._failed is not None:
                rec.handle._resolve(
                    None, EngineStopped(self._failed or "worker pool is not serving")
                )
                return
            self._retry_timers[timer] = rec
            self._retries_total += 1
        timer.start()

    def _retry_delay(self, rec: _Inflight, now: float) -> float:
        """Jittered exponential backoff, clipped to the remaining deadline budget."""
        base = self.retry_backoff * (2 ** (rec.retries - 1))
        delay = base * (0.5 + self._retry_rng.random())  # 0.5x .. 1.5x
        if rec.deadline is not None:
            # Never sleep more than half the remaining budget: the retry
            # still needs queue + serve time to land inside the deadline.
            delay = min(delay, max(0.0, (rec.deadline - now) / 2.0))
        return min(delay, 2.0)

    def _requeue(self, rec: _Inflight) -> None:
        with self._lock:
            if self._closed or self._failed is not None:
                rec.handle._resolve(
                    None, EngineStopped(self._failed or "worker pool is not serving")
                )
                return
            try:
                req_id = self._enqueue_locked(rec)
            except EngineStopped as err:
                rec.handle._resolve(None, err)
                return
        self._put_request(req_id, rec)

    def _on_pool_down(self, message: str) -> None:
        """Last slot gone: fail everything outstanding, refuse new work."""
        with self._lock:
            if self._closed or self._failed is not None:
                # A drain (or an earlier down event) is already failing
                # leftovers with its own error.
                return
            self._failed = message
            stranded = [self._pop_rec_locked(req_id) for req_id in list(self._handles)]
            pending = list(self._retry_timers.items())
            self._retry_timers.clear()
        error = EngineStopped(message)
        for timer, rec in pending:
            timer.cancel()
            rec.handle._resolve(None, error)
        for rec in stranded:
            if rec is not None:
                rec.handle._resolve(None, error)

    # ------------------------------------------------------------------
    # Stats + metrics
    # ------------------------------------------------------------------
    def stats_snapshot(self) -> dict:
        """Aggregated + per-worker serving counters (for ``GET /stats``).

        Workers publish their local :class:`~repro.serve.stats.ServingStats`
        snapshots over their answer pipes (throttled, plus once at exit), so this
        is eventually consistent — at most ~one publish interval stale per
        worker under load.  The ``supervisor`` block carries the fault-
        tolerance view: health state, live workers, restart totals,
        per-slot crash counts.
        """
        with self._lock:
            snaps = dict(self._worker_snapshots)
            retries = self._retries_total
        out = {
            "aggregate": aggregate_snapshots(snaps.values()),
            "per_worker": {str(pid): snap for pid, snap in snaps.items()},
            "retries_total": retries,
        }
        if self._supervisor is not None:
            out["supervisor"] = self._supervisor.snapshot()
        return out

    def health(self) -> dict:
        """``{"status": "ok"|"degraded"|"unhealthy", "detail": ...}`` for /healthz."""
        with self._lock:
            failed = self._failed
            serving = self._started and not self._closed
        if failed is not None:
            return {"status": "unhealthy", "detail": failed}
        if not serving:
            return {"status": "unhealthy", "detail": "worker pool is not serving"}
        if self._supervisor is None:
            return {"status": "ok"}
        return self._supervisor.health()

    def collect_metrics(self):
        """Pull-time ``/metrics`` source: aggregated worker-pool counters.

        Same collector shape as :meth:`ServingStats.collect`, consumed via
        :func:`repro.obs.render_prometheus` ``extra_collectors``.
        """
        snapshot = self.stats_snapshot()
        aggregate = snapshot["aggregate"]
        sup = snapshot.get("supervisor") or {}
        yield ("repro_pool_workers", "gauge",
               "Worker processes in the serving pool",
               [({}, float(sup.get("target_workers", self.num_workers)))])
        yield ("repro_pool_workers_live", "gauge",
               "Worker processes currently alive",
               [({}, float(sup.get("live_workers", 0)))])
        yield ("repro_pool_workers_reporting", "gauge",
               "Workers whose stats snapshots have been received",
               [({}, float(aggregate["workers"]))])
        yield ("repro_pool_worker_restarts_total", "counter",
               "Dead workers respawned by the supervisor",
               [({}, float(sup.get("restarts_total", 0)))])
        yield ("repro_pool_request_retries_total", "counter",
               "Requests re-enqueued after a worker death",
               [({}, float(snapshot["retries_total"]))])
        health_code = {"ok": 0.0, "degraded": 1.0, "unhealthy": 2.0}
        yield ("repro_pool_health", "gauge",
               "Pool health state (0 ok / 1 degraded / 2 unhealthy)",
               [({}, health_code.get(self.health()["status"], 2.0))])
        yield ("repro_pool_requests_total", "counter",
               "Worker-side request outcomes, summed across the pool",
               [({"outcome": name}, float(value))
                for name, value in aggregate["counts"].items()])
        ood = aggregate["ood"]
        yield ("repro_pool_ood_total", "counter",
               "Worker-side energy-OOD scoring totals, summed across the pool",
               [({"stat": "scored"}, float(ood["scored_total"])),
                ({"stat": "flagged"}, float(ood["flagged_total"]))])

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def stop(self, join_timeout: float = 10.0) -> None:
        """Drain and shut down: stop admission, flush, join, fail leftovers."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pending = list(self._retry_timers.items())
            self._retry_timers.clear()
        stop_error = EngineStopped("pool stopped before the request was served")
        for timer, rec in pending:
            timer.cancel()
            rec.handle._resolve(None, stop_error)
        if self._started:
            if self._supervisor is not None:
                # No more respawns; worker exit code 0 is now expected.
                self._supervisor.drain()
                processes = self._supervisor.processes()
            else:
                processes = []
            for slot in self._slots:
                try:
                    slot.queue.put(None, timeout=join_timeout)
                except (queue.Full, ValueError, OSError):
                    pass
            for proc in processes:
                proc.join(timeout=join_timeout)
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=1.0)
            if self._supervisor is not None:
                self._supervisor.stop()
            # Every worker sent its answers and final stats before exiting;
            # the dispatcher reads each pipe to EOF, then returns.
            self._wake_writer.send_bytes(b"")
            if self._dispatcher is not None:
                self._dispatcher.join(timeout=join_timeout)
        with self._lock:
            stranded = [self._pop_rec_locked(req_id) for req_id in list(self._handles)]
            readers, self._readers = self._readers, set()
        for rec in stranded:
            if rec is not None:
                rec.handle._resolve(None, stop_error)
        for slot in self._slots:
            slot.queue.close()
            slot.queue.cancel_join_thread()
        for conn in (*readers, self._wake_reader, self._wake_writer):
            conn.close()
        self._shared.close(unlink=True)

    def __enter__(self) -> "WorkerPool":
        return self.start() if not self._started else self

    def __exit__(self, *exc) -> None:
        self.stop()


def process_memory(pid: int | None = None) -> dict[str, float]:
    """Memory breakdown of a process in MiB, from ``/proc/<pid>/smaps_rollup``.

    Keys: ``rss`` (mapped), ``pss`` (rss with shared pages divided among
    sharers), ``shared`` and ``private`` (clean+dirty).  The serving
    bench uses ``private`` to show worker weights are *shared*, not
    per-process copies: K workers over one bank keep per-worker private
    memory roughly constant while ``shared`` carries the weights.
    Returns ``{}`` on platforms without smaps_rollup.
    """
    path = f"/proc/{pid or os.getpid()}/smaps_rollup"
    fields = {"Rss": "rss", "Pss": "pss", "Shared_Clean": "shared", "Shared_Dirty": "shared",
              "Private_Clean": "private", "Private_Dirty": "private"}
    out: dict[str, float] = {}
    try:
        with open(path) as fh:
            for line in fh:
                key = line.split(":", 1)[0]
                name = fields.get(key)
                if name is not None:
                    kib = float(line.split()[1])
                    out[name] = out.get(name, 0.0) + kib / 1024.0
    except OSError:
        return {}
    return out
