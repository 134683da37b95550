"""Command-line experiment runner.

Runs one (dataset, method) experiment under the shared bench protocol and
prints train / OOD-test metrics — the entry point a downstream user
reaches for before writing code:

    python -m repro.run --dataset proteins25 --method ood-gnn --seeds 3
    python -m repro.run --dataset ogbg-molbace --method gin --epochs 20
    python -m repro.run --dataset triangles25 --method gin --seeds 8 --batched-seeds
    python -m repro.run --dataset proteins25 --method gin --export-artifact model.npz
    python -m repro.run --list

``--export-artifact`` saves the trained seed roster as one deployable
serving bundle for ``python -m repro.serve`` (see :mod:`repro.serve`).
"""

from __future__ import annotations

import argparse
import os

from repro.bench import ExperimentProtocol, run_method_multi_seed, method_spec, BATCHED_SEED_METHODS
from repro.datasets import dataset_info, load_dataset, DATASET_NAMES
from repro.encoders import available_models


# glibc's mallopt() parameter numbers (<malloc.h>).
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3


def tune_allocator() -> None:
    """Keep freed heap in this process for the rest of a training job.

    Every training step allocates its tape and frees it again during
    ``backward()``.  With glibc's defaults a large array gets its own
    ``mmap`` that is unmapped when freed, and free heap beyond the trim
    threshold goes back to the kernel, so each step faults its activations
    in again.  A 32 MiB mmap threshold serves the step's arrays from the
    heap, and a 1 GiB trim threshold keeps the freed heap for the next
    step.  Other C libraries are left alone, as are processes that never
    call :func:`main`, such as the server.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
    except (AttributeError, ValueError, OSError):
        return
    import ctypes

    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, 32 << 20)
    mallopt(M_TRIM_THRESHOLD, 1 << 30)


def positive_int(text: str) -> int:
    """argparse ``type=``: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def positive_float(text: str) -> float:
    """argparse ``type=``: a float > 0 (rejects nan)."""
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """Argument parser for the CLI."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.run",
        description="Train a GNN under a distribution shift and report OOD metrics.",
    )
    parser.add_argument("--dataset", choices=sorted(DATASET_NAMES), help="benchmark to run")
    parser.add_argument(
        "--method",
        choices=sorted(available_models() + ("ood-gnn",)),
        default="ood-gnn",
        help="model to train (default: ood-gnn)",
    )
    parser.add_argument("--seeds", type=positive_int, default=2, help="number of repeats (default 2)")
    parser.add_argument("--epochs", type=int, default=20, help="0 evaluates the untrained model")
    parser.add_argument("--batch-size", type=positive_int, default=32)
    parser.add_argument("--hidden-dim", type=positive_int, default=32)
    parser.add_argument("--num-layers", type=positive_int, default=3)
    parser.add_argument("--lr", type=positive_float, default=1e-3)
    parser.add_argument("--scale", type=float, default=1.0, help="dataset size multiplier")
    parser.add_argument(
        "--batched-seeds",
        action="store_true",
        help="train all seeds as one vectorised job (fixed dataset, per-seed init; "
        f"supported methods: {', '.join(BATCHED_SEED_METHODS)})",
    )
    parser.add_argument(
        "--sequential-reweight",
        action="store_true",
        help="with --batched-seeds and ood-gnn: run Algorithm 1's inner sample-weight "
        "loops one seed at a time instead of as one seed-batched job (escape hatch / "
        "parity reference)",
    )
    parser.add_argument(
        "--export-artifact",
        metavar="PATH",
        help="after training, save all seeds as one serving artifact "
        "(seed-ensemble bundle consumed by `python -m repro.serve`)",
    )
    parser.add_argument(
        "--artifact-dtype",
        choices=("float64", "float32"),
        default="float64",
        help="with --export-artifact: weight precision of the saved bundle "
        "(float32 halves the file and serves in the fast float32 mode by default)",
    )
    parser.add_argument("--list", action="store_true", help="list datasets and methods, then exit")
    return parser


def main(argv=None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.list:
        print("datasets:", ", ".join(sorted(DATASET_NAMES)))
        print("methods :", ", ".join(sorted(available_models() + ("ood-gnn",))))
        return 0
    if not args.dataset:
        build_parser().error("--dataset is required (or use --list)")
    if args.batched_seeds and args.method not in BATCHED_SEED_METHODS:
        build_parser().error(
            f"--batched-seeds supports {', '.join(BATCHED_SEED_METHODS)}, not {args.method!r}"
        )

    tune_allocator()
    info = dataset_info(args.dataset)
    protocol = ExperimentProtocol(
        epochs=args.epochs,
        batch_size=args.batch_size,
        lr=args.lr,
        hidden_dim=args.hidden_dim,
        num_layers=args.num_layers,
        eval_every=2 if info.split_method == "scaffold" else 0,
    )
    factory = lambda seed: load_dataset(args.dataset, seed=seed, scale=args.scale)
    result = run_method_multi_seed(
        args.method, factory, tuple(range(args.seeds)), protocol,
        batched=args.batched_seeds,
        batched_reweight=not args.sequential_reweight,
        keep_models=bool(args.export_artifact),
    )

    if args.export_artifact:
        from repro.serve.artifact import FeatureSchema, ModelArtifact

        artifact = ModelArtifact.from_models(
            result.models,
            method_spec(args.method, protocol),
            FeatureSchema.from_info(info),
            seeds=result.seeds,
            metadata={"dataset": info.name, "epochs": args.epochs},
        )
        if args.artifact_dtype != "float64":
            artifact = artifact.astype(args.artifact_dtype)
        written = artifact.save(args.export_artifact)
        print(
            f"artifact: {written} ({len(result.seeds)} seed"
            f"{'s' if len(result.seeds) != 1 else ''}, {artifact.dtype.name})"
        )

    mode = " [batched]" if args.batched_seeds else ""
    print(f"dataset: {info.name}  metric: {info.metric}  shift: {info.split_method}")
    print(f"method : {args.method}  ({args.seeds} seeds, {args.epochs} epochs{mode})")
    print(f"train  : {result.train_mean:.3f} ± {result.train_std:.3f}")
    for split in result.test_mean:
        print(f"{split:7s}: {result.test_mean[split]:.3f} ± {result.test_std[split]:.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
