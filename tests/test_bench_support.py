"""Bench support: table/series formatting and the experiment protocol."""

import numpy as np
import pytest

from repro.bench import ExperimentProtocol, MethodResult, format_table, format_series
from repro.bench.runner import run_method_multi_seed
from repro.datasets.base import DatasetInfo, DatasetSplits
from repro.encoders import compute_pna_degree_scale
from repro.graph.generators import erdos_renyi


class TestFormatTable:
    def test_contains_title_methods_and_cells(self):
        out = format_table("My Table", ["A", "B"], {"gin": ["1.0", "2.0"], "ood-gnn": ["3.0", "4.0"]})
        assert "My Table" in out
        assert "gin" in out and "ood-gnn" in out
        assert "3.0" in out and "2.0" in out

    def test_columns_aligned(self):
        out = format_table("T", ["Col"], {"a": ["x"], "longer-name": ["y"]})
        lines = [l for l in out.splitlines() if l and not set(l) <= {"-"}]
        # All data rows have the same width.
        widths = {len(l) for l in lines[2:]}
        assert len(widths) == 1

    def test_empty_rows(self):
        out = format_table("T", ["C"], {})
        assert "T" in out


class TestFormatSeries:
    def test_pairs_rendered(self):
        out = format_series("Sweep", ["2x", "5x"], [0.5, 0.75], "acc")
        assert "2x" in out and "acc 0.7500" in out

    def test_length_match_implicit(self):
        out = format_series("S", [1, 2, 3], [0.1, 0.2, 0.3])
        assert out.count("->") == 3


class TestMethodResult:
    def test_row_format(self):
        result = MethodResult(
            method="gin",
            train_mean=0.9,
            train_std=0.01,
            test_mean={"Test(large)": 0.5},
            test_std={"Test(large)": 0.05},
        )
        assert result.row("Test(large)") == "0.500±0.050"


def _tiny_dataset(seed: int) -> DatasetSplits:
    rng = np.random.default_rng((seed + 1) * 613)
    info = DatasetInfo(
        name="tiny", task_type="multiclass", num_tasks=1, metric="accuracy",
        split_method="size", feature_dim=1, num_classes=2,
    )

    def graphs(count, lo, hi):
        out = []
        for i in range(count):
            g = erdos_renyi(int(rng.integers(lo, hi)), 0.6 if i % 2 else 0.2, rng)
            g.y = i % 2
            out.append(g)
        return out

    return DatasetSplits(
        info=info, train=graphs(16, 4, 7), valid=graphs(6, 4, 7),
        tests={"Test": graphs(6, 7, 10)},
    )


class TestModelConstruction:
    def test_pna_degree_scale_is_the_train_splits_on_both_paths(self):
        """Sequential and seed-batched runs build PNA with the same delta."""
        protocol = ExperimentProtocol(
            epochs=1, batch_size=8, hidden_dim=8, num_layers=2, eval_every=0
        )
        expected = compute_pna_degree_scale(_tiny_dataset(0).train)
        assert expected != 1.0
        for batched in (False, True):
            result = run_method_multi_seed("pna", _tiny_dataset, (0,), protocol, batched=batched)
            (model,) = result.models
            scales = [v for k, v in model.buffer_dict().items() if k.endswith("degree_scale")]
            assert scales and all(scale == expected for scale in scales), (batched, scales)


class TestOnePath:
    def test_each_seed_trains_as_its_own_one_seed_group(self):
        """Unbatched seeds train exactly as one-seed batched runs on their own datasets."""
        protocol = ExperimentProtocol(
            epochs=2, batch_size=8, hidden_dim=8, num_layers=2, eval_every=1,
            ood_overrides={"reweight_epochs": 2, "warmup_fraction": 0.5},
        )
        result = run_method_multi_seed("ood-gnn", _tiny_dataset, (0, 1), protocol)
        assert result.seeds == (0, 1)
        for seed, model in zip(result.seeds, result.models):
            (alone,) = run_method_multi_seed("ood-gnn", _tiny_dataset, (seed,), protocol, batched=True).models
            params = dict(alone.named_parameters())
            for name, param in model.named_parameters():
                np.testing.assert_array_equal(param.data, params[name].data, err_msg=f"seed {seed} {name}")


class TestProtocol:
    def test_defaults(self):
        proto = ExperimentProtocol()
        assert proto.epochs > 0
        assert proto.ood_overrides == {}

    def test_overrides_independent_instances(self):
        a, b = ExperimentProtocol(), ExperimentProtocol()
        a.ood_overrides["momentum"] = 0.5
        assert "momentum" not in b.ood_overrides
