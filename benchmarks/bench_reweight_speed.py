"""Inner reweighting loop: seed-batched vs per-seed, primal vs dual evaluation.

Algorithm 1's dominant cost is the inner loop of `SampleWeightLearner.learn`
— ``Epoch_Reweight`` loss/gradient/Adam steps per batch per outer epoch,
on the closed-form engine (`repro.core.fused`).  `learn` is the K = 1
case of `learn_many`, so both sides of the seed comparison run the same
code:

* **seed-batched vs sequential** (gated): `learn_many` running K seeds'
  inner loops as one stacked `SeedFusedDecorrelation` job against K
  `learn` calls, at the training jobs' shape ``(n, d, Q) = (64, 32, 5)``
  (32 local rows under 32 global-memory rows, hidden_dim 32, Q = 5) and
  K = 8.  The stack pays one numpy dispatch per quantity instead of K;
  the floor is 1.1x.
* **paper shape** ``(256, 64, 5)`` (recorded, not gated): the same
  comparison, where the stack runs slower than K calls.  Both sides do
  the same arithmetic, so dispatch does not explain it; the likely cause
  (not measured) is the stack's working set, two 256x256 Grams and the
  pair products per seed, all live at once.  Plus one loss+gradient
  evaluation of the K = 1 engine in primal and in dual form, the
  per-epoch unit the inner loop pays.

Run as pytest-benchmark rows:

    PYTHONPATH=src python -m pytest benchmarks/bench_reweight_speed.py -q

or standalone for a speedup report plus a machine-readable
``BENCH_reweight.json`` (the perf-trajectory artifact CI uploads):

    PYTHONPATH=src python benchmarks/bench_reweight_speed.py
    PYTHONPATH=src python benchmarks/bench_reweight_speed.py --n 64 --d 16 --epochs 5 --repeats 2
"""

import argparse
import json
import os
import time

import numpy as np
import pytest

from repro.core import (
    RandomFourierFeatures,
    SampleWeightLearner,
    SeedFusedDecorrelation,
    learn_many,
)

N, D, Q = 64, 32, 5
PAPER_N, PAPER_D = 256, 64
NUM_SEEDS = 8
SEED_MODES = ("sequential", "batched")
EVAL_MODES = ("primal", "dual")


def _representations(n=N, d=D, seed=0):
    return np.random.default_rng(seed).normal(size=(n, d))


def _seed_representations(num_seeds=NUM_SEEDS, n=N, d=D, seed=0):
    return np.random.default_rng(seed).normal(size=(num_seeds, n, d))


def _learner(epochs=20, q=Q, rng_seed=1):
    rff = RandomFourierFeatures(num_functions=q, rng=np.random.default_rng(rng_seed))
    return SampleWeightLearner(rff, epochs=epochs, lr=0.05, l2_penalty=0.05)


def _roster(num_seeds, epochs=20, q=Q):
    return [_learner(epochs=epochs, q=q, rng_seed=100 + s) for s in range(num_seeds)]


def _features_and_weights(n=PAPER_N, d=PAPER_D, q=Q):
    """One seed's features and weights, stacked as K = 1."""
    feats = RandomFourierFeatures(num_functions=q, rng=np.random.default_rng(3))(
        _representations(n=n, d=d)
    )
    return feats[None], np.random.default_rng(2).uniform(0.5, 1.5, size=(1, n))


def test_inner_loop(benchmark):
    """Full inner loop (20 reweighting epochs) at the paper-scale shape."""
    z = _representations(n=PAPER_N, d=PAPER_D)
    learner = _learner()
    benchmark(lambda: learner.learn(z).final_loss)


@pytest.mark.parametrize("mode", SEED_MODES)
def test_seed_batched_inner_loop(benchmark, mode):
    """K=8 inner loops at the training shape: one stacked job vs K learn calls."""
    z = _seed_representations()
    roster = _roster(NUM_SEEDS)
    if mode == "batched":
        benchmark(lambda: learn_many(roster, z)[-1].final_loss)
    else:
        benchmark(lambda: [l.learn(z[k]) for k, l in enumerate(roster)][-1].final_loss)


@pytest.mark.parametrize("mode", EVAL_MODES)
def test_loss_and_grad_step(benchmark, mode):
    """One loss + weight-gradient evaluation, the per-epoch unit of work."""
    feats, w = _features_and_weights()
    engine = SeedFusedDecorrelation(feats, mode=mode)
    benchmark(lambda: engine.loss_and_grad(w))


def measure_per_evaluation(repeats=200, n=PAPER_N, d=PAPER_D, q=Q):
    """Seconds per loss+gradient evaluation of the K = 1 engine, per mode.

    Dual mode pays its ``O(n^2 p)`` caches once per batch, outside the
    timed loop; each evaluation is then a few matvecs against them.
    """
    feats, w = _features_and_weights(n=n, d=d, q=q)
    timings = {}
    for mode in EVAL_MODES:
        engine = SeedFusedDecorrelation(feats, mode=mode)
        engine.loss_and_grad(w)
        start = time.perf_counter()
        for _ in range(repeats):
            engine.loss_and_grad(w)
        timings[mode] = (time.perf_counter() - start) / repeats
    return timings


def measure_seed_batched_speedup(num_seeds=NUM_SEEDS, epochs=20, repeats=5, n=N, d=D, q=Q):
    """Wall-clock ratio sequential/batched: K ``learn`` calls over one ``learn_many``."""
    z = _seed_representations(num_seeds=num_seeds, n=n, d=d)
    timings = {}
    for mode in SEED_MODES:
        roster = _roster(num_seeds, epochs=epochs, q=q)

        def run():
            if mode == "batched":
                return learn_many(roster, z)
            return [l.learn(z[k]) for k, l in enumerate(roster)]

        run()  # warm-up (engine caches, BLAS threads)
        start = time.perf_counter()
        for _ in range(repeats):
            run()
        timings[mode] = (time.perf_counter() - start) / repeats
    return timings, timings["sequential"] / timings["batched"]


def test_seed_batched_speedup_target():
    """Batched >= 1.1x over 8 ``learn`` calls at the training shape.

    At the paper shape the ratio is below 1 (see the module docstring),
    so the floor applies where ``--batched-seeds`` training runs it.
    Not part of tier-1 — bench files are not collected by default.
    """
    _, speedup = measure_seed_batched_speedup(repeats=3)
    assert speedup >= 1.1, f"seed-batched inner loop only {speedup:.2f}x faster"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=NUM_SEEDS, help="K for the batched comparison")
    parser.add_argument("--n", type=int, default=N, help="batch size (samples)")
    parser.add_argument("--d", type=int, default=D, help="representation dimensions")
    parser.add_argument("--q", type=int, default=Q, help="random Fourier functions per dimension")
    parser.add_argument("--epochs", type=int, default=20, help="inner reweighting epochs")
    parser.add_argument("--repeats", type=int, default=5, help="timing repeats per mode")
    parser.add_argument(
        "--json",
        default=os.path.join(os.path.dirname(os.path.abspath(__file__)), "BENCH_reweight.json"),
        help="machine-readable output path (default: benchmarks/BENCH_reweight.json)",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    shape = dict(n=args.n, d=args.d, q=args.q, epochs=args.epochs, seeds=args.seeds)
    sizes = dict(num_seeds=args.seeds, epochs=args.epochs, repeats=args.repeats, q=args.q)
    seed_timings, batched_speedup = measure_seed_batched_speedup(n=args.n, d=args.d, **sizes)
    paper_timings, paper_ratio = measure_seed_batched_speedup(n=PAPER_N, d=PAPER_D, **sizes)
    eval_timings = measure_per_evaluation(repeats=max(args.repeats * 20, 20), q=args.q)

    for (n, d), timings, ratio in (
        ((args.n, args.d), seed_timings, batched_speedup),
        ((PAPER_N, PAPER_D), paper_timings, paper_ratio),
    ):
        print(f"inner reweighting loops at (n={n}, d={d}, Q={args.q}), {args.epochs} epochs, "
              f"K={args.seeds} seeds:")
        for mode in SEED_MODES:
            print(f"  {mode:>10}: {timings[mode] * 1e3:8.2f} ms for all {args.seeds} loops")
        print(f"  sequential / batched: {ratio:.2f}x")
    print(f"  (target >= 1.1x at (n={args.n}, d={args.d}))")
    print(
        f"one evaluation at (n={PAPER_N}, d={PAPER_D}, Q={args.q}), K=1: "
        f"primal {eval_timings['primal'] * 1e3:.3f} ms   dual {eval_timings['dual'] * 1e3:.3f} ms"
    )

    payload = {
        "benchmark": "reweight_speed",
        "cpu_count": os.cpu_count(),
        "shape": shape,
        "seed_batched": {
            "sequential_s": seed_timings["sequential"],
            "batched_s": seed_timings["batched"],
            "speedup": batched_speedup,
            "target": 1.1,
        },
        # Recorded, not gated (tools/check_bench.py gates keys named
        # "speedup"): below 1 at this shape.
        "paper_shape": {
            "shape": dict(n=PAPER_N, d=PAPER_D, q=args.q),
            "sequential_s": paper_timings["sequential"],
            "batched_s": paper_timings["batched"],
            "sequential_over_batched": paper_ratio,
            "primal_eval_ms": eval_timings["primal"] * 1e3,
            "dual_eval_ms": eval_timings["dual"] * 1e3,
        },
    }
    os.makedirs(os.path.dirname(os.path.abspath(args.json)), exist_ok=True)
    with open(args.json, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
