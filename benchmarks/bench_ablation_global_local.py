"""Ablation: the global-local weight estimator (Section 3.3).

The global-local estimator is the design choice this bench ablates:
OOD-GNN with K = 1 momentum memory groups (the paper's default) versus
the local-only variant (K = 0, weights estimated from each
mini-batch in isolation).  The paper argues local-only weights lose
consistency across batches, making the dependence harder to eliminate
over the whole training set (and Figures 5-7 show larger global memory
helping).
"""

import numpy as np
import pytest

from repro.bench import ExperimentProtocol, run_method_multi_seed, format_table
from repro.datasets import load_dataset

from conftest import BENCH_EPOCHS, BENCH_SEEDS, BENCH_SCALE

_VARIANTS = {
    "local-only (K=0)": {"global_groups": 0},
    "global-local (K=1)": {"global_groups": 1, "momentum": 0.9},
    "global-local (K=2)": {"global_groups": 2, "momentum": 0.9},
}


def _run(name, dataset_kwargs):
    factory = lambda seed: load_dataset(name, seed=seed, **dataset_kwargs)
    sample = factory(0)
    split = list(sample.tests)[0]
    eval_every = 2 if sample.info.split_method == "scaffold" else 0
    rows = {}
    values = {}
    for label, overrides in _VARIANTS.items():
        proto = ExperimentProtocol(
            epochs=BENCH_EPOCHS, batch_size=32, hidden_dim=32, num_layers=3,
            eval_every=eval_every, ood_overrides=overrides,
        )
        result = run_method_multi_seed("ood-gnn", factory, BENCH_SEEDS, proto)
        rows[label] = [result.row(split)]
        values[label] = result.test_mean[split]
    print()
    print(format_table(f"Ablation — global-local estimator on {name}", [split], rows))
    return values


@pytest.mark.parametrize("name", ["proteins25", "ogbg-molbace"])
def test_global_local_ablation(benchmark, name):
    kwargs = {"scale": 0.45 * BENCH_SCALE} if name == "proteins25" else {}
    values = benchmark.pedantic(_run, args=(name, kwargs), rounds=1, iterations=1)
    assert all(np.isfinite(v) for v in values.values())
