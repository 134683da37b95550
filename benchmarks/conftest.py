"""Shared configuration for the table/figure reproduction benches.

Scale knobs (environment variables):

* ``REPRO_BENCH_SEEDS``  — number of repeats per method (default 2; the
  paper uses 10).
* ``REPRO_BENCH_EPOCHS`` — training epochs per run (default 12).
* ``REPRO_BENCH_SCALE``  — dataset size multiplier (default 1.0 of the
  scaled-down defaults; the paper's datasets are ~10x larger).

Every bench prints the same rows/series as the corresponding paper table
or figure.  Absolute values differ from the paper: the datasets are
generated at a smaller scale and the engine is numpy.  The qualitative
ordering claims are what matter; the paper-claim ledger in ROADMAP.md
tracks where they hold.
"""

from __future__ import annotations

import os

import pytest

from repro.bench import ExperimentProtocol


def _env_int(name: str, default: int) -> int:
    return int(os.environ.get(name, default))


def _env_float(name: str, default: float) -> float:
    return float(os.environ.get(name, default))


BENCH_SEEDS = tuple(range(_env_int("REPRO_BENCH_SEEDS", 2)))
BENCH_EPOCHS = _env_int("REPRO_BENCH_EPOCHS", 12)
BENCH_SCALE = _env_float("REPRO_BENCH_SCALE", 1.0)

# The paper's method roster for Tables 2-4.
ALL_METHODS = (
    "gcn",
    "gcn-virtual",
    "gin",
    "gin-virtual",
    "factorgcn",
    "pna",
    "topkpool",
    "sagpool",
    "ood-gnn",
)


@pytest.fixture(scope="session")
def protocol() -> ExperimentProtocol:
    """Protocol for the size/feature-shift tables (no checkpoint selection)."""
    return ExperimentProtocol(epochs=BENCH_EPOCHS, batch_size=32, hidden_dim=32, num_layers=3, eval_every=0)


@pytest.fixture(scope="session")
def scaffold_protocol() -> ExperimentProtocol:
    """Protocol for scaffold-split molecules (validation model selection)."""
    return ExperimentProtocol(epochs=max(BENCH_EPOCHS, 16), batch_size=32, hidden_dim=32, num_layers=3, eval_every=2)


def run_table(dataset_factory, methods, seeds, protocol, title, columns_from):
    """Run a (methods x splits) table and return printable rows.

    ``columns_from`` is a sample dataset used to enumerate test splits.
    """
    from repro.bench import run_method_multi_seed

    splits = list(columns_from.tests)
    rows = {}
    results = {}
    for method in methods:
        result = run_method_multi_seed(method, dataset_factory, seeds, protocol)
        results[method] = result
        rows[method] = [f"{result.train_mean:.3f}"] + [result.row(s) for s in splits]
    from repro.bench import format_table

    print()
    print(format_table(title, ["Train"] + splits, rows))
    return results
