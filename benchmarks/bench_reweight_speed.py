"""Inner reweighting loop: seed-batched vs per-seed, primal vs dual evaluation.

Algorithm 1's dominant cost is the inner loop of `SampleWeightLearner.learn`
— ``Epoch_Reweight`` loss/gradient/Adam steps per batch per outer epoch,
on the closed-form engine (`repro.core.fused`).  Measured at the
paper-scale shape ``(n, d, Q) = (256, 64, 5)`` (hidden_dim 64, Q = 5,
batch 256):

* **seed-batched vs sequential**: `learn_many` running K seeds' inner
  loops as one stacked `SeedFusedDecorrelation` job against K sequential
  `learn` calls.  Both paths do the same cache-streamed matvec work per
  seed, so the batched edge is dispatch amortisation (~1.2x at
  ``--seeds 8``); the floor is 1.1x.
* **scalar dual per evaluation**: the moment-form `FusedDecorrelation`
  dual mode against the primal evaluation at the same shape — the
  per-epoch unit the inner loop pays.

Run as pytest-benchmark rows:

    PYTHONPATH=src python -m pytest benchmarks/bench_reweight_speed.py -q

or standalone for a speedup report plus a machine-readable
``BENCH_reweight.json`` (the perf-trajectory artifact CI uploads):

    PYTHONPATH=src python benchmarks/bench_reweight_speed.py --seeds 8
    PYTHONPATH=src python benchmarks/bench_reweight_speed.py --n 64 --epochs 5 --repeats 2
"""

import argparse
import json
import os
import time

import numpy as np
import pytest

from repro.core import (
    FusedDecorrelation,
    RandomFourierFeatures,
    SampleWeightLearner,
    learn_many,
)

N, D, Q = 256, 64, 5
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


def _features_and_weights(n=N, d=D, q=Q):
    feats = RandomFourierFeatures(num_functions=q, rng=np.random.default_rng(3))(
        _representations(n=n, d=d)
    )
    return feats, np.random.default_rng(2).uniform(0.5, 1.5, size=n)


def test_inner_loop(benchmark):
    """Full inner loop (20 reweighting epochs) at the paper-scale shape."""
    z = _representations()
    learner = _learner()
    benchmark(lambda: learner.learn(z).final_loss)


@pytest.mark.parametrize("mode", SEED_MODES)
def test_seed_batched_inner_loop(benchmark, mode):
    """K=8 inner loops: one seed-batched job vs K sequential fused loops."""
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
    engine = FusedDecorrelation(feats, mode=mode)
    benchmark(lambda: engine.loss_and_grad(w))


def measure_scalar_dual(repeats=200, n=N, d=D, q=Q):
    """Per-evaluation timings of the scalar engine's two modes.

    The dual mode is the moment-form port from ``SeedFusedDecorrelation``
    (cached ``K``/``K o K``/pair products, per-epoch work = streamed
    matvecs): at the paper shape it evaluates ~2.5x faster than the former
    blocked P/R streaming (measured at the port; the committed
    ``BENCH_reweight.json`` tracks the live numbers), and the gap widens
    with n (~5x at n=1024) because no O(n^2) intermediate survives.
    """
    feats, w = _features_and_weights(n=n, d=d, q=q)
    timings = {}
    for mode in EVAL_MODES:
        engine = FusedDecorrelation(feats, mode=mode)
        engine.loss_and_grad(w)
        start = time.perf_counter()
        for _ in range(repeats):
            engine.loss_and_grad(w)
        timings[mode] = (time.perf_counter() - start) / repeats
    return timings


def measure_seed_batched_speedup(num_seeds=NUM_SEEDS, epochs=20, repeats=5, n=N, d=D, q=Q):
    """Wall-clock ratio sequential/batched of K fused inner loops."""
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
    """Batched >= 1.1x over 8 sequential fused loops.

    The floor was 2x against the scalar engine before it gained the
    moment-form dual caches, which made each sequential loop ~2.5x faster;
    the batched engine's remaining edge is dispatch amortisation only
    (~1.2x measured; both paths do identical cache-streamed matvec work).
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
    seed_timings, batched_speedup = measure_seed_batched_speedup(
        num_seeds=args.seeds, epochs=args.epochs, repeats=args.repeats,
        n=args.n, d=args.d, q=args.q,
    )

    print(f"inner reweighting loops at (n={args.n}, d={args.d}, Q={args.q}), {args.epochs} epochs, "
          f"K={args.seeds} seeds:")
    for mode in SEED_MODES:
        print(f"  {mode:>10}: {seed_timings[mode] * 1e3:8.2f} ms for all {args.seeds} loops")
    print(f"  batched speedup: {batched_speedup:.2f}x (target >= 1.1x)")
    dual_timings = measure_scalar_dual(
        repeats=max(args.repeats * 20, 20), n=args.n, d=args.d, q=args.q
    )
    print(
        f"scalar engine per evaluation (moment-form dual): "
        f"primal {dual_timings['primal'] * 1e3:.3f} ms   dual {dual_timings['dual'] * 1e3:.3f} ms"
    )

    payload = {
        "benchmark": "reweight_speed",
        "cpu_count": os.cpu_count(),
        "shape": shape,
        "seed_batched": {
            "sequential_s": seed_timings["sequential"],
            "batched_s": seed_timings["batched"],
            "speedup": batched_speedup,
            # 2.0 until the scalar engine gained the moment-form caches;
            # see test_seed_batched_speedup_target.
            "target": 1.1,
        },
        "scalar_dual": {
            "engine": "moment-form",
            "primal_eval_ms": dual_timings["primal"] * 1e3,
            "dual_eval_ms": dual_timings["dual"] * 1e3,
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
