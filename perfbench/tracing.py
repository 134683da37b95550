"""Outside-in timing wrappers around the public entry points of ``repro``.

Nothing under ``src/`` is edited: :class:`Tracer` replaces module
attributes and class methods with thin wrappers that open a span on the
calling thread, so the program runs unchanged apart from the wrapper
calls.  Spans stay in memory (one list per thread) and are written out
once, when the traced process ends.

A span's *self* time is its duration minus the time covered by the spans
opened inside it on the same thread; summing self time over every span
therefore never double-counts.  Calls of a layer are counted only at the
outermost span of that layer (``learn_many`` falling back to per-seed
``learn`` calls is one reweight call, not K+1).
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict

import numpy as np

__all__ = ["Tracer", "StepClock", "install_training", "install_serving", "summarise"]


class Tracer:
    """Per-thread span stacks plus in-memory span records."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[list] = []   # one span list per thread
        self.counters: dict[str, float] = defaultdict(float)

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            spans: list = []
            with self._lock:
                self._threads.append(spans)
            state = self._local.state = ([], spans)
        return state

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += amount

    def wrap(self, layer: str, fn, on_result=None):
        """``fn`` timed as one span of ``layer``.

        ``on_result(args, kwargs, result)`` runs after the outermost span
        of the layer closes, outside the timed interval.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, spans = self._state()
            outer = all(frame[0] != layer for frame in stack)
            frame = [layer, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame[1]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += duration
                spans.append((layer, frame[1], end, duration - frame[2],
                              parent[0] if parent else None, outer))
            if on_result is not None and outer:
                on_result(args, kwargs, result)
            return result

        return traced

    def patch(self, owner, name: str, layer: str, on_result=None) -> None:
        """Replace ``owner.name`` (module function or plain method) by its span."""
        setattr(owner, name, self.wrap(layer, getattr(owner, name), on_result))

    def spans(self) -> list:
        with self._lock:
            return [span for spans in self._threads for span in spans]


def summarise(spans) -> dict:
    """Per layer: summed self time, summed inclusive time, outermost calls."""
    layers: dict[str, dict] = {}
    for layer, start, end, self_s, _parent, outer in spans:
        entry = layers.setdefault(layer, {"self_s": 0.0, "incl_s": 0.0, "calls": 0})
        entry["self_s"] += self_s
        if outer:
            entry["incl_s"] += end - start
            entry["calls"] += 1
    return layers


class StepClock:
    """Times every Algorithm-1 step from outside the trainer.

    Wraps the trainer's ``iterate_minibatches``: a step runs from the
    ``next()`` that builds its mini-batch to the ``next()`` after it, so it
    covers batching, forward, reweighting, backward, optimiser and memory
    update.  With a tracer the ``next()`` itself is the ``graph.batch``
    span.  One timestamp per step; cheap enough for untraced runs.
    """

    def __init__(self, tracer: Tracer | None = None):
        self.steps: list[tuple[float, int]] = []   # (seconds, graphs in the batch)
        self._next = next if tracer is None else tracer.wrap("graph.batch", next)

    def wrap(self, iterate):
        clock = self

        @functools.wraps(iterate)
        def clocked(*args, **kwargs):
            batches = iterate(*args, **kwargs)
            started = graphs = None
            while True:
                now = time.perf_counter()
                if started is not None:
                    clock.steps.append((now - started, graphs))
                try:
                    batch = clock._next(batches)
                except StopIteration:
                    return
                started, graphs = now, batch.num_graphs
                yield batch

        return clocked


def _reweight_stats(tracer: Tracer):
    """Loss ratio and effective sample size of each returned weight vector."""

    def record(_args, _kwargs, result):
        results = result if isinstance(result, list) else [result]
        for res in results:
            w = np.asarray(res.weights, dtype=np.float64)
            tracer.count("reweight.results")
            tracer.count("reweight.loss_ratio_sum", res.final_loss / res.initial_loss)
            tracer.count("reweight.ess_sum", w.sum() ** 2 / (len(w) * (w * w).sum()))

    return record


def install_training(tracer: Tracer, run_module) -> None:
    """Wrap the layers one OOD-GNN training job passes through.

    ``run_module`` is ``repro.run``, whose ``load_dataset`` global is the
    dataset entry point of the job.
    """
    from repro.autograd.tensor import Tensor
    from repro.bench import runner
    from repro.core import ood_gnn
    from repro.core.decorrelation import SampleWeightLearner
    from repro.core.global_local import GlobalLocalWeightEstimator
    from repro.encoders.models import GraphClassifier, SeedGraphClassifier
    from repro.nn.optim import Adam, Optimizer

    tracer.patch(run_module, "load_dataset", "datasets.load")
    stats = _reweight_stats(tracer)
    tracer.patch(SampleWeightLearner, "learn", "core.reweight", stats)
    tracer.patch(SampleWeightLearner, "decorrelation_loss", "core.reweight")
    tracer.patch(ood_gnn, "learn_many", "core.reweight", stats)
    for method in ("concat", "update"):
        tracer.patch(GlobalLocalWeightEstimator, method, "core.memory")
    tracer.patch(Tensor, "backward", "autograd.backward")
    for name in ("weighted_prediction_loss", "seed_prediction_loss"):
        tracer.patch(ood_gnn, name, "nn.head_loss")
    tracer.patch(Optimizer, "zero_grad", "nn.optim")
    tracer.patch(Adam, "step", "nn.optim")
    for name in ("clip_grad_norm", "clip_grad_norm_per_seed"):
        tracer.patch(ood_gnn, name, "nn.optim")
    for name in ("evaluate_model", "evaluate_model_per_seed"):
        tracer.patch(ood_gnn, name, "training.eval")
    tracer.patch(runner, "evaluate_model_per_seed", "training.eval")
    for cls in (GraphClassifier, SeedGraphClassifier):
        tracer.patch(cls, "representations", "encoders.forward")
        _wrap_head_on_init(tracer, cls)


def _wrap_head_on_init(tracer: Tracer, cls) -> None:
    """Time the classifier's own ``head`` instance, not every ``MLP``.

    GIN convolutions run ``MLP.forward`` too; wrapping the class would move
    encoder time into the head.
    """
    init = cls.__init__

    @functools.wraps(init)
    def traced_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.head.forward = tracer.wrap("nn.head_loss", self.head.forward)

    cls.__init__ = traced_init


class _Overlay:
    """``target`` with some attributes replaced; every other one reads through."""

    def __init__(self, target, **overrides):
        self.__dict__.update(overrides)
        self._target = target

    def __getattr__(self, name):
        return getattr(self._target, name)


def install_serving(tracer: Tracer) -> None:
    """Wrap the layers one ``POST /predict`` passes through.

    ``do_POST`` is the request path, the ``serve.net.handler`` span.  Its
    own I/O (the body read, the ``json.loads`` of it and ``_respond``) is
    the ``serve.net.request`` layer.  What remains as the handler's self
    time is glue that no layer names.
    """
    from repro.encoders.models import GraphClassifier, SeedGraphClassifier
    from repro.graph.data import GraphBatch
    from repro.serve import net
    from repro.serve.artifact import FeatureSchema
    from repro.serve.futures import PendingResult

    tracer.patch(net._Handler, "do_POST", "serve.net.handler")
    tracer.patch(net._Handler, "_respond", "serve.net.request")
    net.json = _Overlay(net.json, loads=tracer.wrap("serve.net.request", net.json.loads))
    setup = net._Handler.setup

    def traced_setup(handler):
        setup(handler)
        rfile = handler.rfile
        handler.rfile = _Overlay(rfile, read=tracer.wrap("serve.net.request", rfile.read))

    net._Handler.setup = traced_setup
    tracer.patch(net, "graph_from_json", "serve.wire.decode")
    tracer.patch(net, "result_to_json", "serve.wire.encode")
    tracer.patch(FeatureSchema, "validate_graph", "serve.artifact.validate")
    tracer.patch(net.EngineBackend, "submit", "serve.engine.submit")
    tracer.patch(PendingResult, "result", "serve.engine.wait")
    GraphBatch.from_graphs = classmethod(tracer.wrap("graph.pack", GraphBatch.from_graphs.__func__))

    def graphs_per_forward(args, _kwargs, _result):
        tracer.count("forward.calls")
        tracer.count("forward.graphs", args[1].num_graphs)

    for cls in (GraphClassifier, SeedGraphClassifier):
        tracer.patch(cls, "forward", "serve.engine.forward", graphs_per_forward)
