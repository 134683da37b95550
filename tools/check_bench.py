"""Bench-regression gate: compare a fresh BENCH_*.json against its baseline.

CI's bench-smoke job runs every benchmark at a tiny shape and uploads the
fresh JSON; this tool closes the loop by failing the job when a *speedup
ratio* collapses relative to the committed full-shape baseline::

    python tools/check_bench.py fresh.json benchmarks/BENCH_inference.json

Design constraints (why the gate is tolerance-based and shape-aware):

* Absolute throughput is machine-dependent — shared CI runners are slower
  and noisier than the box that produced the committed numbers — so only
  dimensionless **speedup ratios** are compared (any numeric key named
  ``speedup`` or ``speedup_*`` / ``*_speedup*``, found recursively).
* Tiny shapes do not meet the full-shape acceptance floors (per-op Python
  overhead dominates), so when the two files' ``shape`` blocks differ the
  tolerance is the loose ``--tiny-tolerance`` (default 0.25: flag only a
  collapse, e.g. a fused path silently falling back to eager), and when
  the shapes match it is ``--tolerance`` (default 0.6).
* A fresh ratio may legitimately *exceed* the baseline; only regressions
  fail.  Metrics present in one file but not the other are reported but
  never fatal (benchmarks grow fields over time).
* **Overhead ratios** (keys named ``*overhead_ratio*``) gate against an
  absolute ceiling instead of the baseline: instrumentation overhead is
  a budget, not a speedup — the observability bench's metrics-on/off
  ratio must stay <= ``--overhead-max`` (default 1.02, i.e. < 2%)
  regardless of what any previous run measured.

Exit code 0 = within tolerance, 1 = regression, 2 = usage/IO error.
"""

from __future__ import annotations

import argparse
import json
import sys


def collect_speedups(payload, prefix: str = "") -> dict[str, float]:
    """Recursively gather ``{dotted.path: value}`` for speedup-ratio keys."""
    found: dict[str, float] = {}
    if isinstance(payload, dict):
        for key, value in payload.items():
            path = f"{prefix}.{key}" if prefix else key
            if isinstance(value, (int, float)) and not isinstance(value, bool) and "speedup" in key:
                found[path] = float(value)
            else:
                found.update(collect_speedups(value, path))
    return found


def collect_overheads(payload, prefix: str = "") -> dict[str, float]:
    """Recursively gather ``{dotted.path: value}`` for overhead-ratio keys.

    Only measurement keys qualify — budget/config keys (``overhead_max``
    and friends) are not themselves gated.
    """
    found: dict[str, float] = {}
    if isinstance(payload, dict):
        for key, value in payload.items():
            path = f"{prefix}.{key}" if prefix else key
            if (isinstance(value, (int, float)) and not isinstance(value, bool)
                    and "overhead_ratio" in key):
                found[path] = float(value)
            else:
                found.update(collect_overheads(value, path))
    return found


def compare(fresh: dict, baseline: dict, tolerance: float, tiny_tolerance: float,
            overhead_max: float = 1.02):
    """Return ``(regressions, notes)`` comparing fresh vs baseline ratios."""
    notes: list[str] = []
    regressions: list[str] = []
    if fresh.get("benchmark") != baseline.get("benchmark"):
        regressions.append(
            f"benchmark kind mismatch: fresh={fresh.get('benchmark')!r} "
            f"baseline={baseline.get('benchmark')!r}"
        )
        return regressions, notes
    same_shape = fresh.get("shape") == baseline.get("shape")
    threshold = tolerance if same_shape else tiny_tolerance
    notes.append(
        f"shape {'matches baseline' if same_shape else 'differs (tiny-shape run)'}; "
        f"required fraction of baseline speedup: {threshold}"
    )
    fresh_ratios = collect_speedups(fresh)
    base_ratios = collect_speedups(baseline)
    for path, base_value in sorted(base_ratios.items()):
        fresh_value = fresh_ratios.get(path)
        if fresh_value is None:
            notes.append(f"  {path}: missing from fresh run (baseline {base_value:.2f}x)")
            continue
        floor = base_value * threshold
        status = "OK" if fresh_value >= floor else "REGRESSION"
        notes.append(
            f"  {path}: fresh {fresh_value:.2f}x vs baseline {base_value:.2f}x "
            f"(floor {floor:.2f}x) {status}"
        )
        if fresh_value < floor:
            regressions.append(
                f"{path}: {fresh_value:.2f}x < {floor:.2f}x "
                f"({threshold} x baseline {base_value:.2f}x)"
            )
    for path in sorted(set(fresh_ratios) - set(base_ratios)):
        notes.append(f"  {path}: new metric ({fresh_ratios[path]:.2f}x), no baseline")
    # Overhead ratios gate against the absolute ceiling, baseline-free.
    for path, value in sorted(collect_overheads(fresh).items()):
        status = "OK" if value <= overhead_max else "OVER BUDGET"
        notes.append(
            f"  {path}: fresh {value:.4f}x vs ceiling {overhead_max:.2f}x {status}"
        )
        if value > overhead_max:
            regressions.append(
                f"{path}: overhead {value:.4f}x exceeds the {overhead_max:.2f}x ceiling"
            )
    return regressions, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fresh", help="JSON written by this run")
    parser.add_argument("baseline", help="committed benchmarks/BENCH_*.json")
    parser.add_argument(
        "--tolerance", type=float, default=0.6,
        help="required fraction of the baseline speedup when shapes match (default 0.6)",
    )
    parser.add_argument(
        "--tiny-tolerance", type=float, default=0.25,
        help="required fraction when shapes differ, e.g. CI tiny runs (default 0.25)",
    )
    parser.add_argument(
        "--overhead-max", type=float, default=1.02,
        help="absolute ceiling for overhead-ratio metrics (default 1.02 = <2%%)",
    )
    args = parser.parse_args(argv)
    try:
        with open(args.fresh) as fh:
            fresh = json.load(fh)
        with open(args.baseline) as fh:
            baseline = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        print(f"check_bench: cannot read inputs: {err}", file=sys.stderr)
        return 2
    regressions, notes = compare(
        fresh, baseline, args.tolerance, args.tiny_tolerance,
        overhead_max=args.overhead_max,
    )
    print(f"check_bench: {args.fresh} vs {args.baseline}")
    for line in notes:
        print(line)
    if regressions:
        print("bench regression gate FAILED:", file=sys.stderr)
        for line in regressions:
            print(f"  {line}", file=sys.stderr)
        return 1
    print("bench regression gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
