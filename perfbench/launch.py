"""Child-process entry points of the benchmark.

    python3 perfbench/launch.py setup
    python3 perfbench/launch.py job --offset N [--trace-out FILE] -- <python -m repro.run args>
    python3 perfbench/launch.py serve [--trace-out FILE] -- <python -m repro.serve args>

``setup`` imports the training stack and exits; ``job`` runs
``repro.run.main`` on the given arguments; ``serve`` runs
``repro.serve``'s ``main``.  ``setup`` and ``job`` print their monotonic
clock right after the import, so the parent can time process start-up
(a server's start-up is timed from outside, up to its first healthy
``/healthz``).  ``--offset`` adds N to every model seed ``repro.run``
trains (and so to the dataset seed its dataset factory derives from the
first model seed); offset 0 is exactly ``python -m repro.run``.  With ``--trace-out`` the timing wrappers of
:mod:`tracing` are installed first and every span is written to FILE when
the entry point returns.  ``job`` prints one JSON object as its last
stdout line.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracing import StepClock, Tracer, install_serving, install_training  # noqa: E402


def _write_trace(tracer: Tracer, path: str) -> None:
    with open(path, "w") as fh:
        json.dump({"spans": tracer.spans(), "counters": dict(tracer.counters)}, fh)


def setup() -> int:
    import repro.run  # noqa: F401

    print(json.dumps({"imported_at": time.monotonic()}))
    return 0


def job(argv: list[str], offset: int, trace_out: str | None) -> int:
    import repro.run
    from repro.core import ood_gnn

    imported_at = time.monotonic()
    tracer = Tracer() if trace_out else None
    clock = StepClock(tracer)
    ood_gnn.iterate_minibatches = clock.wrap(ood_gnn.iterate_minibatches)
    if tracer is not None:
        install_training(tracer, repro.run)

    captured = {}
    run_seeds = repro.run.run_method_multi_seed

    def shifted(method, factory, seeds, *args, **kwargs):
        result = run_seeds(method, factory, tuple(s + offset for s in seeds), *args, **kwargs)
        captured["result"] = result
        return result

    repro.run.run_method_multi_seed = shifted

    losses = []
    trainer = ood_gnn.OODGNNTrainer
    fit, fit_many = trainer.fit, trainer.fit_many

    def fit_recorded(self, *args, **kwargs):
        history = fit(self, *args, **kwargs)
        losses.append(history.train_loss)
        return history

    def fit_many_recorded(self, *args, **kwargs):
        result = fit_many(self, *args, **kwargs)
        losses.extend(history.train_loss for history in result.histories)
        return result

    trainer.fit, trainer.fit_many = fit_recorded, fit_many_recorded

    printed = io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(printed):
        rc = repro.run.main(argv)
    job_s = time.perf_counter() - started
    if tracer is not None:
        _write_trace(tracer, trace_out)

    result = captured.get("result")
    print(json.dumps({
        "imported_at": imported_at,
        "rc": rc,
        "job_s": job_s,
        "lines": printed.getvalue().splitlines(),
        "test_mean": None if result is None else result.test_mean,
        "losses_finite": bool(losses) and all(
            len(run) > 0 and all(math.isfinite(x) for x in run) for run in losses
        ),
        "steps": clock.steps,
        "max_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }))
    return 0


def serve(argv: list[str], trace_out: str | None) -> int:
    import repro.serve.__main__ as serve_main

    tracer = Tracer() if trace_out else None
    if tracer is not None:
        install_serving(tracer)
    rc = serve_main.main(argv)
    if tracer is not None:
        _write_trace(tracer, trace_out)
    return rc


def main() -> int:
    parser = argparse.ArgumentParser(prog="perfbench/launch.py")
    parser.add_argument("mode", choices=("setup", "job", "serve"))
    parser.add_argument("--offset", type=int, default=0)
    parser.add_argument("--trace-out")
    argv = sys.argv[1:]
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    program_args = argv[split + 1:]
    if args.mode == "setup":
        return setup()
    if args.mode == "job":
        return job(program_args, args.offset, args.trace_out)
    return serve(program_args, args.trace_out)


if __name__ == "__main__":
    raise SystemExit(main())
