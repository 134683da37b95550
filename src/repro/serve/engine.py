"""The inference engine: micro-batched, seed-ensembled, OOD-scored serving.

:class:`InferenceEngine` takes a :class:`~repro.serve.artifact.ModelArtifact`
and answers prediction requests:

* **Micro-batching** — requests are coalesced into packed
  :class:`~repro.graph.data.GraphBatch` forwards under a
  :class:`~repro.serve.batcher.BatchBudget` (``max_graphs``/``max_nodes``),
  then per-request results are scattered back in arrival order.  One packed
  forward amortises the per-op Python/tape overhead that dominates
  small-graph latency (``benchmarks/bench_inference.py``).
* **Tape-free forwards** — every forward runs inside
  :func:`repro.autograd.inference_mode`, the allocation-free fast path.
* **One topology plan per pack** — each packed batch's
  :class:`~repro.graph.data.Topology` builds every conv operator once,
  shares it across the layers of that forward and is freed with the
  batch; nothing derived from a topology outlives its forward.
* **Seed ensembles** — a K-seed artifact serves the ensemble: stackable
  rosters (the whole encoder zoo — GCN/GIN families, GAT, SAGE, PNA,
  virtual-node and hierarchical-pooling models) run one seed-stacked
  forward via :func:`~repro.nn.layers.try_stack_seed_modules`; the only
  unstackable roster (FactorGCN) falls back to K sequential forwards with
  the same one-time warning pattern as training.
* **Energy OOD scores** — every response carries the free energy of its
  logits (:mod:`repro.serve.ood`), and :meth:`InferenceEngine.calibrate`
  fits a flagging threshold on held-in validation graphs.

Front-ends: :meth:`InferenceEngine.predict` is the synchronous batch API;
:meth:`start`/:meth:`submit`/:meth:`stop` expose a worker-thread queue whose
loop is **work-conserving**: it blocks for one request, takes every request
already queued without waiting for more, and packs them with the same
:func:`~repro.serve.batcher.plan_microbatches` as ``predict``.  A batch
therefore holds exactly the requests that queued during the previous
forward — an idle engine answers at once and a loaded one still packs.
Submits made inside :meth:`InferenceEngine.grouped` reach the loop
together, so a multi-graph HTTP request is never split across passes.
"""

from __future__ import annotations

import contextlib
import queue
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.autograd.tensor import as_compute_dtype, compute_dtype, inference_mode
from repro.graph.data import Graph, GraphBatch
from repro.nn.layers import try_stack_seed_modules
from repro.serve.artifact import FeatureSchema, ModelArtifact
from repro.serve.batcher import BatchBudget, default_max_nodes, plan_microbatches
from repro.obs.registry import FLAGS, LATENCY_MS_BUCKETS, registry
from repro.obs.trace import current_trace_id, span
from repro.serve.futures import DeadlineExceeded, EngineStopped, PendingResult
from repro.serve.ood import EnergyCalibration, energy_score, fit_energy_threshold

__all__ = ["Prediction", "InferenceEngine"]

_STOP = object()

# Engine telemetry: sampled per micro-batch (one packed forward), plus one
# histogram observation per request served through the queue front-end.
_ENGINE_BATCHES = registry.counter(
    "repro_engine_batches_total",
    "Packed micro-batch forwards, by front-end path (sync predict / queue)",
    ("path",),
)
_ENGINE_REQUESTS = registry.counter(
    "repro_engine_requests_total",
    "Queue-front-end requests by outcome (ok / expired / error)",
    ("outcome",),
)
_QUEUE_WAIT_MS = registry.histogram(
    "repro_engine_queue_wait_ms",
    "Milliseconds between submit() and the serving forward",
    buckets=LATENCY_MS_BUCKETS,
)
_DEADLINE_SLACK_MS = registry.histogram(
    "repro_engine_deadline_slack_ms",
    "Milliseconds of deadline budget left when the forward starts",
    buckets=LATENCY_MS_BUCKETS,
)


def _batch_span(live):
    """Span for one queued micro-batch; arg packing only when tracing."""
    if not FLAGS.tracing:
        return span("engine.batch")  # the shared null span
    trace_ids = ",".join(
        pending.trace_id for _g, pending, _d in live if pending.trace_id is not None
    )
    return span("engine.batch", graphs=len(live), trace_ids=trace_ids)


@dataclass
class Prediction:
    """One request's answer.

    ``output`` is the seed-averaged raw model output ``(out_dim,)``;
    ``probs`` the seed-averaged class/task probabilities (None for
    regression); ``label`` the argmax class (multiclass), per-task 0/1
    array or scalar (binary), or the regression value(s); ``energy`` the
    OOD score (higher = more OOD-looking, None for regression); ``is_ood``
    the calibrated flag (None when the engine is uncalibrated or the task
    has no energy).
    """

    index: int
    output: np.ndarray
    probs: np.ndarray | None
    label: object
    energy: float | None
    is_ood: bool | None


def _stable_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def _sigmoid(logits: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(logits, -60.0, 60.0)))


class InferenceEngine:
    """Serve a model artifact (see module docstring).

    Parameters
    ----------
    artifact:
        The bundle to serve.  (Use :meth:`from_models` to wrap already
        constructed models, e.g. straight after training.)
    max_graphs / max_nodes:
        Micro-batch budgets (:class:`~repro.serve.batcher.BatchBudget`).
        The default node cap (``"auto"``) is derived from the compute
        dtype via :func:`~repro.serve.batcher.default_max_nodes` — 2048
        at float64, 4096 at float32 — and keeps each packed forward's
        activations cache-resident: benchmarks/bench_inference.py
        measures the unbounded full pack *losing* to moderate packs at
        ~256-node graphs because packed activations start streaming
        through memory.  Pass ``max_nodes=None`` to pack purely by graph
        count, or an explicit integer to override.
    dtype:
        Compute precision: ``"float64"`` (the training/reference
        precision), ``"float32"`` (the fast serving mode: parameters,
        buffers and every forward activation are cast, roughly doubling
        effective cache capacity and GEMM throughput at a documented
        output tolerance — see docs/ARCHITECTURE.md), or ``None``
        (default: the artifact's stored dtype, float64 for in-memory
        models).
    temperature:
        Energy-score temperature; must be > 0.
    calibration:
        Optional pre-fitted :class:`~repro.serve.ood.EnergyCalibration`;
        or call :meth:`calibrate` with held-in graphs.
    clock:
        Time source for request deadlines.  Must be **monotonic** — the
        default is :func:`time.monotonic`, never wall-clock
        ``time.time()``, so an NTP step or suspend/resume cannot
        instantly expire every pending deadline.  Injectable for
        deterministic tests.
    """

    def __init__(
        self,
        artifact: ModelArtifact | None = None,
        *,
        models=None,
        schema: FeatureSchema | None = None,
        max_graphs: int = 64,
        max_nodes: int | None | str = "auto",
        dtype=None,
        temperature: float = 1.0,
        calibration: EnergyCalibration | None = None,
        clock=time.monotonic,
    ):
        if artifact is not None:
            models = artifact.build_models()
            schema = artifact.schema
            if dtype is None:
                dtype = artifact.dtype
        self.dtype = as_compute_dtype(dtype)
        if not models or schema is None:
            raise ValueError("need either an artifact or explicit models + schema")
        self.schema = schema
        self.models = list(models)
        for model in self.models:
            model.eval()
            model.to_dtype(self.dtype)
        if isinstance(max_nodes, str):
            if max_nodes != "auto":
                raise ValueError(f"max_nodes must be an int, None or 'auto', got {max_nodes!r}")
            max_nodes = default_max_nodes(self.dtype)
        self.budget = BatchBudget(max_graphs=max_graphs, max_nodes=max_nodes)
        if not temperature > 0:  # also rejects NaN; fail here, not on every request
            raise ValueError(f"temperature must be > 0, got {temperature}")
        self.temperature = temperature
        self.calibration = calibration
        # Seed ensembles prefer one stacked forward; unstackable rosters
        # warn once and serve K sequential forwards (same fallback pattern
        # as the multi-seed trainers).
        self._stacked = (
            try_stack_seed_modules(self.models, context="serving")
            if len(self.models) > 1
            else None
        )
        if self._stacked is not None:
            # Stacked constructors coerce to the default (float64) dtype;
            # re-apply the engine precision to the stacked parameter bank.
            self._stacked.eval()
            self._stacked.to_dtype(self.dtype)
        self.clock = clock
        self._queue: queue.Queue | None = None
        self._worker: threading.Thread | None = None
        # Set when the serve loop dies on an unexpected error; submit()
        # then fails fast instead of enqueueing into a dead worker.
        self._loop_error: BaseException | None = None
        # Serialises submit() against stop() and against loop death:
        # without it a submit that passed the started-check could enqueue
        # after the stop sentinel (or after the dying loop's final drain)
        # and strand its waiter forever.
        self._submit_lock = threading.Lock()
        self._group_lock = threading.Lock()  # see grouped()

    @classmethod
    def from_models(cls, models, schema: FeatureSchema, **kwargs) -> "InferenceEngine":
        """Engine over in-memory models (no artifact round-trip)."""
        return cls(None, models=list(models), schema=schema, **kwargs)

    @property
    def num_seeds(self) -> int:
        return len(self.models)

    # ------------------------------------------------------------------
    # Forward
    # ------------------------------------------------------------------
    def _forward(self, batch: GraphBatch) -> np.ndarray:
        """Per-seed logits ``(K, num_graphs, out_dim)`` for one packed batch.

        Runs tape-free under the engine's compute dtype: inside the
        :func:`~repro.autograd.tensor.compute_dtype` context the batch
        features and every forward-time constant are coerced to the
        engine precision, so a float32 engine computes float32 end to end.
        """
        with inference_mode(), compute_dtype(self.dtype):
            if self._stacked is not None:
                return self._stacked(batch).data
            if len(self.models) == 1:
                return self.models[0](batch).data[None]
            return np.stack([model(batch).data for model in self.models])

    def _combine(self, indices, logits: np.ndarray) -> list[Prediction]:
        """Ensemble-average one packed batch back into per-request results."""
        task = self.schema.task_type
        outputs = logits.mean(axis=0)                      # (n, out_dim)
        if task == "regression":
            probs_all, energies = None, None
        else:
            if task == "multiclass":
                probs_all = _stable_softmax(logits).mean(axis=0)
            else:
                probs_all = _sigmoid(logits).mean(axis=0)
            # Mean per-seed free energy: each member scores its own logits
            # and the ensemble reports the average (the energies of the
            # averaged logits would understate member disagreement).
            energies = np.stack(
                [energy_score(logits[k], task, self.temperature) for k in range(logits.shape[0])]
            ).mean(axis=0)
        results = []
        for row, request_index in enumerate(indices):
            probs = probs_all[row] if probs_all is not None else None
            if task == "multiclass":
                label = int(np.argmax(probs))
            elif task == "binary":
                flags = (probs >= 0.5).astype(np.int64)
                label = int(flags[0]) if flags.shape[0] == 1 else flags
            else:
                values = outputs[row]
                label = float(values[0]) if values.shape[0] == 1 else values
            energy = float(energies[row]) if energies is not None else None
            is_ood = None
            if energy is not None and self.calibration is not None:
                is_ood = bool(self.calibration.is_ood(energy))
            results.append(
                Prediction(
                    index=request_index,
                    output=outputs[row],
                    probs=probs,
                    label=label,
                    energy=energy,
                    is_ood=is_ood,
                )
            )
        return results

    # ------------------------------------------------------------------
    # Synchronous API
    # ------------------------------------------------------------------
    def predict(self, graphs: list[Graph]) -> list[Prediction]:
        """Serve a list of request graphs; results align with the input order.

        Requests are packed into micro-batches under the engine budget,
        each batch runs one tape-free (optionally seed-stacked) forward,
        and results scatter back to their request indices.
        """
        graphs = list(graphs)
        for graph in graphs:
            self.schema.validate_graph(graph)
        results: list[Prediction | None] = [None] * len(graphs)
        for pack in plan_microbatches([g.num_nodes for g in graphs], self.budget):
            _ENGINE_BATCHES.inc(path="sync")
            with span("engine.batch", graphs=len(pack)):
                batch = GraphBatch.from_graphs([graphs[i] for i in pack])
                logits = self._forward(batch)
                for prediction in self._combine(pack, logits):
                    results[prediction.index] = prediction
        return results

    def predict_one(self, graph: Graph) -> Prediction:
        """Serve a single graph (one forward, no batching)."""
        return self.predict([graph])[0]

    def energy_scores(self, graphs: list[Graph]) -> np.ndarray:
        """Energies only, e.g. for calibration sweeps."""
        if self.schema.task_type == "regression":
            raise ValueError(
                "regression artifacts have no logits, so no energy scores to "
                "compute or calibrate"
            )
        return np.array([p.energy for p in self.predict(graphs)], dtype=np.float64)

    def calibrate(self, graphs: list[Graph], quantile: float = 0.95) -> EnergyCalibration:
        """Fit (and install) the OOD threshold on held-in validation graphs."""
        calibration = fit_energy_threshold(
            self.energy_scores(graphs), quantile=quantile, temperature=self.temperature
        )
        self.calibration = calibration
        return calibration

    # ------------------------------------------------------------------
    # Worker-thread queue front-end
    # ------------------------------------------------------------------
    def start(self) -> "InferenceEngine":
        """Spawn the worker thread behind :meth:`submit`."""
        if self._worker is not None:
            raise RuntimeError("engine already started")
        self._loop_error = None
        self._queue = queue.Queue()
        self._worker = threading.Thread(target=self._serve_loop, daemon=True)
        self._worker.start()
        return self

    def submit(
        self,
        graph: Graph,
        deadline: float | None = None,
        trace_id: str | None = None,
    ) -> PendingResult:
        """Enqueue one request; returns a handle with ``.result(timeout)``.

        Requests that queue while the worker runs a forward are packed
        into its next one, so N threads submitting at once pay roughly one
        forward, not N.

        ``deadline`` is an absolute instant on the engine clock
        (``engine.clock()`` now, i.e. ``time.monotonic()`` by default).
        A request still pending when its deadline passes is dropped and
        its handle fails with :class:`~repro.serve.futures.DeadlineExceeded`
        — serving an answer nobody is waiting for would only delay the
        requests behind it.

        ``trace_id`` tags the request for tracing/metrics: it rides the
        handle through the queue into the worker forward's span and back
        out (the HTTP layer echoes it as ``X-Trace-Id``).  Defaults to the
        submitting thread's bound trace id (:func:`repro.obs.trace_context`),
        if any.
        """
        self.schema.validate_graph(graph)
        pending = PendingResult()
        pending.trace_id = trace_id if trace_id is not None else current_trace_id()
        pending.enqueued_at = self.clock()
        with self._submit_lock:
            if self._queue is None:
                if self._loop_error is not None:
                    raise EngineStopped(
                        "engine serve loop died; restart the engine"
                    ) from self._loop_error
                raise RuntimeError("call start() before submit()")
            self._queue.put((graph, pending, deadline))
        return pending

    @contextlib.contextmanager
    def grouped(self):
        """Make the submits inside the block reach one pass of the serve loop.

        The loop takes a pass's requests under the same lock, so a loop
        that wakes on a group's first request waits for the rest instead
        of packing part of it.  Keep the block to the submits.
        """
        with self._group_lock:
            yield

    def restart(self) -> "InferenceEngine":
        """Stop (flushing anything pending) and start a fresh serve loop.

        The recovery verb for "engine serve loop died; restart the
        engine": a loop killed by an unexpected error leaves ``submit``
        failing fast, and ``restart()`` brings the queue front-end back
        over the *same* models — no artifact reload, no re-calibration.
        Also valid on a healthy or never-started engine (it is then just
        a stop/start cycle).
        """
        self.stop()
        return self.start()

    def stop(self) -> None:
        """Flush pending requests and join the worker thread.

        Requests submitted concurrently with ``stop`` either make it into
        the final flush or are rejected with an
        :class:`~repro.serve.futures.EngineStopped` on their handle —
        never silently dropped.
        """
        if self._worker is None:
            return
        with self._submit_lock:
            stopped_queue = self._queue
        if stopped_queue is not None:
            stopped_queue.put(_STOP)
        self._worker.join()
        with self._submit_lock:
            stopped_queue = stopped_queue or self._queue
            self._queue = None
        self._worker = None
        if stopped_queue is not None:
            self._drain_queue(stopped_queue, EngineStopped("engine stopped before the request was served"))

    @staticmethod
    def _drain_queue(stranded_queue: queue.Queue, error: BaseException) -> None:
        """Reject every request still sitting in ``stranded_queue``."""
        while True:
            try:
                item = stranded_queue.get_nowait()
            except queue.Empty:
                return
            if item is _STOP:
                continue
            _graph, pending, _deadline = item
            pending._resolve(None, error)

    def _run_pending(self, items) -> None:
        """Serve one micro-batch of ``(graph, handle, deadline)`` items.

        Expired requests are failed with ``DeadlineExceeded`` before the
        forward; an exception from the packed forward resolves every
        affected handle with that error and leaves the serve loop alive —
        one poisoned graph must not take down the engine or strand the
        requests queued behind it.
        """
        now = self.clock()
        live = []
        for item in items:
            graph, pending, deadline = item
            if deadline is not None and now >= deadline:
                pending._resolve(None, DeadlineExceeded("request expired before it was served"))
                _ENGINE_REQUESTS.inc(outcome="expired")
            else:
                live.append(item)
        if not live:
            return
        if FLAGS.metrics:
            _ENGINE_BATCHES.inc(path="queue")
            for _graph, pending, deadline in live:
                if pending.enqueued_at is not None:
                    _QUEUE_WAIT_MS.observe((now - pending.enqueued_at) * 1000.0)
                if deadline is not None:
                    _DEADLINE_SLACK_MS.observe((deadline - now) * 1000.0)
        graphs = [graph for graph, _pending, _deadline in live]
        try:
            with _batch_span(live):
                batch = GraphBatch.from_graphs(graphs)
                logits = self._forward(batch)
                predictions = self._combine(range(len(live)), logits)
        except BaseException as err:  # surface engine errors to every waiter
            for _graph, pending, _deadline in live:
                pending._resolve(None, err)
            _ENGINE_REQUESTS.inc(len(live), outcome="error")
            return
        for (_graph, pending, _deadline), prediction in zip(live, predictions):
            pending._resolve(prediction)
        _ENGINE_REQUESTS.inc(len(live), outcome="ok")

    def _serve_loop(self) -> None:
        """Worker-thread entry: run the loop; on death, strand no handle.

        If the loop body itself fails (an engine bug outside the guarded
        per-batch forward), every outstanding handle — taken off the queue
        *and* still queued — is resolved with ``EngineStopped`` and future
        ``submit()`` calls fail fast, instead of the pre-hardening
        behaviour where ``.result()`` blocked forever.
        """
        taken: list = []
        try:
            self._serve_loop_inner(taken)
        except BaseException as err:
            with self._submit_lock:
                self._loop_error = err
                dead_queue, self._queue = self._queue, None
            error = EngineStopped("engine serve loop died before the request was served")
            error.__cause__ = err
            # Handles the dying pass already answered keep their answer:
            # a handle resolves once.
            for _graph, pending, _deadline in taken:
                pending._resolve(None, error)
            if dead_queue is not None:
                self._drain_queue(dead_queue, error)

    def _serve_loop_inner(self, taken: list) -> None:
        """Block for one request, take every queued one, pack and run them.

        ``taken`` holds a pass's items until all of them have run, so
        ``_serve_loop`` can answer them if the pass dies.
        """
        while True:
            item = self._queue.get()
            with self._group_lock:  # let a group being submitted finish
                while item is not _STOP:
                    taken.append(item)
                    try:
                        item = self._queue.get_nowait()
                    except queue.Empty:
                        break
            node_counts = [graph.num_nodes for graph, _pending, _deadline in taken]
            for pack in plan_microbatches(node_counts, self.budget):
                self._run_pending([taken[i] for i in pack])
            taken.clear()
            if item is _STOP:
                return
