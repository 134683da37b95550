"""Batched multi-seed training engine vs K sequential runs.

PR 1 made the inner reweighting loop cheap; the outer encoder
forward/backward is now the dominant per-step cost (ROADMAP).  The
multi-seed engine (`Trainer.fit_many` / `run_method_multi_seed(batched=
True)`, see docs/ARCHITECTURE.md) attacks it by stacking K seeds'
parameters along a leading seed axis: the graph batching, message-passing
gathers/scatters, tape bookkeeping and BLAS dispatches are paid once per
batch instead of K times, and every linear layer becomes one batched GEMM.

Two measurements at the ISSUE 2 acceptance shape (K=8 seeds, 256 training
graphs, hidden_dim d=64, paper-style size shift on small graphs):

* **job** — the full bench-runner protocol `run_method_multi_seed`:
  dataset build + training + train/OOD-test evaluation.  Sequential runs
  each seed as a group of one (fresh dataset, a one-seed stack's training
  and evaluation per seed); batched runs the whole roster as one
  seed-stacked job.  This is the end-to-end speedup a table reproduction
  sees; acceptance target >= 2x.
* **fit** — `Trainer.fit_many` batched vs sequential on the *same* fixed
  dataset and mini-batch stream, the configuration whose bitwise parity
  `tests/test_multiseed.py` asserts.  Measured for GIN (the original
  stacked roster) and for GAT and SAGE, the attention/sampling encoders
  ISSUE 7 moved into the seed-dispatch registry (acceptance >= 1.5x).

Run as pytest-benchmark rows:

    PYTHONPATH=src python -m pytest benchmarks/bench_multiseed.py -q

or standalone for a speedup report plus a machine-readable
``BENCH_multiseed.json`` (the perf-trajectory artifact CI uploads):

    PYTHONPATH=src python benchmarks/bench_multiseed.py
    PYTHONPATH=src python benchmarks/bench_multiseed.py --train-graphs 64 --repeats 1
"""

import argparse
import json
import os
import time

import numpy as np
import pytest

from repro.bench import ExperimentProtocol, run_method_multi_seed
from repro.datasets.base import DatasetInfo, DatasetSplits
from repro.encoders import build_model
from repro.graph.generators import erdos_renyi
from repro.training import Trainer, TrainerConfig

NUM_TRAIN, HIDDEN_DIM, NUM_SEEDS = 256, 64, 8
EPOCHS, BATCH_SIZE = 2, 8
MODES = ("sequential", "batched")
#: Methods timed at the fit level: GIN plus the ISSUE 7 newly-stacked rosters.
FIT_METHODS = ("gin", "gat", "sage")

_INFO = DatasetInfo(
    name="bench-multiseed-size-shift",
    task_type="multiclass",
    num_tasks=1,
    metric="accuracy",
    split_method="size",
    feature_dim=1,
    num_classes=2,
)


def _graphs(rng, count, lo, hi):
    graphs = []
    for i in range(count):
        label = i % 2
        g = erdos_renyi(int(rng.integers(lo, hi)), 0.6 if label else 0.2, rng)
        g.y = label
        graphs.append(g)
    return graphs


def make_dataset(seed: int, num_train: int = NUM_TRAIN) -> DatasetSplits:
    """Synthetic density-classification dataset with a size shift.

    Train/valid graphs have 5-9 nodes; the OOD test graphs are 2x larger
    (the paper's size-extrapolation setup at toy scale).
    """
    rng = np.random.default_rng((seed + 1) * 613)
    return DatasetSplits(
        info=_INFO,
        train=_graphs(rng, num_train, 5, 10),
        valid=_graphs(rng, 48, 5, 10),
        tests={"Test(large)": _graphs(rng, 48, 10, 20)},
    )


PROTOCOL = ExperimentProtocol(
    epochs=EPOCHS, batch_size=BATCH_SIZE, hidden_dim=HIDDEN_DIM, num_layers=3, eval_every=0
)


def _run_job(batched: bool, num_train=NUM_TRAIN, num_seeds=NUM_SEEDS, epochs=EPOCHS):
    protocol = ExperimentProtocol(
        epochs=epochs, batch_size=BATCH_SIZE, hidden_dim=HIDDEN_DIM, num_layers=3, eval_every=0
    )
    factory = lambda seed: make_dataset(seed, num_train)
    return run_method_multi_seed(
        "gin", factory, tuple(range(num_seeds)), protocol, batched=batched
    )


def _model_factory(method="gin"):
    def make(seed):
        return build_model(
            method, _INFO.feature_dim, _INFO.model_out_dim,
            np.random.default_rng((seed + 1) * 7919),
            hidden_dim=HIDDEN_DIM, num_layers=3,
        )

    return make


def _run_fit(train_graphs, batched: bool, epochs=EPOCHS, num_seeds=NUM_SEEDS, method="gin"):
    trainer = Trainer(
        None, _INFO.task_type, TrainerConfig(epochs=epochs, batch_size=BATCH_SIZE),
        np.random.default_rng(3),
    )
    return trainer.fit_many(
        train_graphs, seeds=tuple(range(num_seeds)),
        model_factory=_model_factory(method), batched=batched,
    )


@pytest.mark.parametrize("mode", MODES)
def test_job(benchmark, mode):
    """Full 8-seed experiment (data + train + eval) at (n=256, d=64)."""
    benchmark(lambda: _run_job(mode == "batched"))


@pytest.mark.parametrize("method", FIT_METHODS)
@pytest.mark.parametrize("mode", MODES)
def test_fit_many(benchmark, mode, method):
    """8-seed training only, fixed dataset (the parity configuration)."""
    train_graphs = make_dataset(0).train
    benchmark(lambda: _run_fit(train_graphs, mode == "batched", method=method))


def measure_speedup(repeats=3, num_train=NUM_TRAIN, num_seeds=NUM_SEEDS, epochs=EPOCHS):
    """Wall-clock ratios sequential/batched for the job and fit levels.

    Fit-level rows are measured per method: ``fit`` is the original GIN
    configuration; ``fit_gat``/``fit_sage`` time the ISSUE 7 rosters.
    """
    train_graphs = make_dataset(0, num_train).train
    fit_levels = {"gin": "fit", "gat": "fit_gat", "sage": "fit_sage"}
    timings = {}
    for mode in MODES:
        batched = mode == "batched"
        _run_job(batched, num_train, num_seeds, epochs)  # warm-up (BLAS, allocator)
        start = time.perf_counter()
        for _ in range(repeats):
            _run_job(batched, num_train, num_seeds, epochs)
        timings[("job", mode)] = (time.perf_counter() - start) / repeats
        for method in FIT_METHODS:
            start = time.perf_counter()
            for _ in range(repeats):
                _run_fit(train_graphs, batched, epochs, num_seeds, method)
            timings[(fit_levels[method], mode)] = (time.perf_counter() - start) / repeats
    ratios = {
        level: timings[(level, "sequential")] / timings[(level, "batched")]
        for level in ("job", *fit_levels.values())
    }
    return timings, ratios


def test_batched_speedup_target():
    """ISSUE 2/7 acceptance: >= 2x GIN, >= 1.5x GAT at (K=8, n=256, d=64).

    Asserted for the end-to-end GIN job and training-only ratio (measured
    headroom ~2.3-2.7x) plus the newly-stacked GAT roster (>= 1.5x: the
    per-segment attention softmax adds per-seed work the GEMM batching
    cannot amortise as far as GIN's pure-GEMM stack).  Not part of tier-1
    — bench files are not collected by default.
    """
    _, ratios = measure_speedup(repeats=2)
    assert ratios["job"] >= 2.0, f"batched multi-seed job only {ratios['job']:.2f}x faster"
    assert ratios["fit"] >= 2.0, f"batched multi-seed training only {ratios['fit']:.2f}x faster"
    assert ratios["fit_gat"] >= 1.5, f"batched multi-seed GAT only {ratios['fit_gat']:.2f}x faster"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=NUM_SEEDS, help="K seeds per job")
    parser.add_argument("--train-graphs", type=int, default=NUM_TRAIN)
    parser.add_argument("--epochs", type=int, default=EPOCHS)
    parser.add_argument("--repeats", type=int, default=3, help="timing repeats per mode")
    parser.add_argument(
        "--json",
        default=os.path.join(os.path.dirname(os.path.abspath(__file__)), "BENCH_multiseed.json"),
        help="machine-readable output path (default: benchmarks/BENCH_multiseed.json)",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    timings, ratios = measure_speedup(
        repeats=args.repeats, num_train=args.train_graphs,
        num_seeds=args.seeds, epochs=args.epochs,
    )
    print(
        f"multi-seed, K={args.seeds} seeds, {args.train_graphs} train graphs, "
        f"hidden_dim={HIDDEN_DIM}, {args.epochs} epochs, batch {BATCH_SIZE}:"
    )
    levels = (
        ("job", "GIN experiment job (data+train+eval)"),
        ("fit", "GIN training only (fixed data)"),
        ("fit_gat", "GAT training only (fixed data)"),
        ("fit_sage", "SAGE training only (fixed data)"),
    )
    for level, label in levels:
        seq, bat = timings[(level, "sequential")], timings[(level, "batched")]
        print(f"  {label}:")
        print(f"    sequential: {seq:6.2f} s    batched: {bat:6.2f} s    speedup: {ratios[level]:.2f}x")
    verdict = ratios["job"] >= 2.0 and ratios["fit_gat"] >= 1.5
    print(f"  acceptance: job >= 2x, fit_gat >= 1.5x -> {'PASS' if verdict else 'FAIL'}")

    targets = {"job": 2.0, "fit": 2.0, "fit_gat": 1.5, "fit_sage": 1.5}
    payload = {
        "benchmark": "multiseed",
        "shape": {
            "seeds": args.seeds, "train_graphs": args.train_graphs,
            "hidden_dim": HIDDEN_DIM, "epochs": args.epochs, "batch_size": BATCH_SIZE,
        },
    }
    for level, _ in levels:
        payload[level] = {
            "sequential_s": timings[(level, "sequential")],
            "batched_s": timings[(level, "batched")],
            "speedup": ratios[level],
            "target": targets[level],
        }
    os.makedirs(os.path.dirname(os.path.abspath(args.json)), exist_ok=True)
    with open(args.json, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
