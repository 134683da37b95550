"""Table 3: size-shift benchmarks (COLLAB35, PROTEINS25, D&D200, D&D300).

Reproduces the paper's Table 3: train on small graphs, test on strictly
larger ones.  The paper's claims: every baseline degrades badly on the
large OOD graphs, and OOD-GNN yields the best testing accuracy on all
four datasets (by 2.2 / 6.0 / 1.7 points on PROTEINS25 / D&D200 / D&D300
over the strongest baseline).
"""

import numpy as np
import pytest

from repro.datasets import load_dataset

from conftest import ALL_METHODS, BENCH_SEEDS, BENCH_SCALE, run_table


def _factory(name):
    def make(seed):
        return load_dataset(name, seed=seed, scale=0.45 * BENCH_SCALE)

    return make


@pytest.mark.parametrize("name", ["collab35", "proteins25", "dd200", "dd300"])
def test_table3_dataset(benchmark, protocol, name):
    factory = _factory(name)
    results = benchmark.pedantic(
        run_table,
        args=(factory, ALL_METHODS, BENCH_SEEDS, protocol,
              f"Table 3: {name} accuracy under size shift", factory(0)),
        rounds=1,
        iterations=1,
    )
    ood = {m: r.test_mean["Test(large)"] for m, r in results.items()}
    # All metrics valid probabilities.
    assert all(0.0 <= v <= 1.0 for v in ood.values())
    # OOD-GNN competitive with the baseline field.  COLLAB is exempt from
    # the ordering gate: the paper's own margin there is 0.2 points over
    # SAGPool — far inside seed noise at this scale — so the measured
    # ordering is printed in the table rather than asserted.
    if name != "collab35":
        baseline_median = np.median([v for m, v in ood.items() if m != "ood-gnn"])
        assert ood["ood-gnn"] >= baseline_median - 0.08
