"""Split strategies, transforms, the dataset registry, and OGB suite."""

import numpy as np
import pytest

from repro.datasets import (
    load_dataset,
    dataset_info,
    DATASET_NAMES,
    make_ogb_dataset,
    OGB_DATASET_NAMES,
    size_split,
    scaffold_split,
    random_split,
    dataset_statistics,
)
from repro.datasets.base import DatasetInfo, DatasetSplits
from repro.datasets.transforms import add_gaussian_noise, add_color_noise, one_hot_degree_features
from repro.graph.data import Graph
from repro.graph.generators import erdos_renyi


@pytest.fixture
def rng():
    return np.random.default_rng(89)


def sized_graphs(rng, sizes):
    graphs = []
    for n in sizes:
        g = erdos_renyi(n, 0.3, rng)
        g.y = 0
        graphs.append(g)
    return graphs


class TestSizeSplit:
    def test_partitions_by_threshold(self, rng):
        graphs = sized_graphs(rng, [5, 10, 20, 40, 80])
        train, valid, test = size_split(graphs, 20, rng, valid_fraction=0.34)
        assert all(g.num_nodes <= 20 for g in train + valid)
        assert all(g.num_nodes > 20 for g in test)

    def test_empty_side_raises(self, rng):
        graphs = sized_graphs(rng, [5, 6])
        with pytest.raises(ValueError):
            size_split(graphs, 20, rng)
        with pytest.raises(ValueError):
            size_split(graphs, 2, rng)


class TestScaffoldSplit:
    def test_missing_meta_raises(self, rng):
        g = erdos_renyi(5, 0.5, rng)
        with pytest.raises(KeyError):
            scaffold_split([g])

    def test_fraction_validation(self, rng):
        g = erdos_renyi(5, 0.5, rng)
        g.meta["scaffold"] = 0
        with pytest.raises(ValueError):
            scaffold_split([g], fractions=(0.5, 0.2, 0.2))


class TestRandomSplit:
    def test_sizes(self, rng):
        graphs = sized_graphs(rng, [5] * 20)
        train, valid, test = random_split(graphs, rng, (0.5, 0.25, 0.25))
        assert (len(train), len(valid), len(test)) == (10, 5, 5)

    def test_disjoint_cover(self, rng):
        graphs = sized_graphs(rng, [5] * 10)
        train, valid, test = random_split(graphs, rng)
        ids = [id(g) for g in train + valid + test]
        assert len(set(ids)) == 10


class TestTransforms:
    def test_gaussian_noise_changes_selected_channels_only(self, rng):
        g = erdos_renyi(5, 0.5, rng)
        g.x = np.hstack([np.ones((5, 2)), np.zeros((5, 1))])
        noisy = add_gaussian_noise([g], 0.5, rng, channels=slice(0, 2))[0]
        assert not np.allclose(noisy.x[:, :2], 1.0)
        np.testing.assert_allclose(noisy.x[:, 2], 0.0)
        # Shared draw: both channels get identical noise.
        np.testing.assert_allclose(noisy.x[:, 0], noisy.x[:, 1])

    def test_color_noise_independent_per_channel(self, rng):
        g = erdos_renyi(5, 0.5, rng)
        g.x = np.ones((5, 3))
        noisy = add_color_noise([g], 0.5, rng, channels=slice(0, 3))[0]
        assert not np.allclose(noisy.x[:, 0], noisy.x[:, 1])

    def test_originals_untouched(self, rng):
        g = erdos_renyi(5, 0.5, rng)
        g.x = np.ones((5, 2))
        add_gaussian_noise([g], 1.0, rng)
        np.testing.assert_allclose(g.x, 1.0)

    def test_one_hot_degree(self, rng):
        g = erdos_renyi(6, 0.5, rng)
        out = one_hot_degree_features(g, max_degree=3)
        assert out.x.shape == (6, 4)
        np.testing.assert_allclose(out.x.sum(axis=1), 1.0)


class TestDatasetInfo:
    def test_validation(self):
        with pytest.raises(ValueError):
            DatasetInfo("x", "ranking", 1, "accuracy", "size", 3)
        with pytest.raises(ValueError):
            DatasetInfo("x", "multiclass", 1, "accuracy", "size", 3, num_classes=1)

    def test_model_out_dim(self):
        multi = DatasetInfo("x", "multiclass", 1, "accuracy", "size", 3, num_classes=7)
        assert multi.model_out_dim == 7
        binary = DatasetInfo("x", "binary", 12, "rocauc", "scaffold", 3)
        assert binary.model_out_dim == 12

    def test_single_test_property(self):
        info = DatasetInfo("x", "binary", 1, "rocauc", "scaffold", 3)
        splits = DatasetSplits(info=info, tests={"a": [], "b": []})
        with pytest.raises(ValueError):
            _ = splits.test

    def test_statistics_empty(self):
        assert dataset_statistics([])["num_graphs"] == 0

    def test_statistics_counts_undirected_edges(self):
        g = Graph(x=np.ones((2, 1)), edge_index=np.array([[0, 1], [1, 0]]))
        stats = dataset_statistics([g])
        assert stats["avg_edges"] == 1.0


class TestRegistry:
    def test_unknown_dataset(self):
        with pytest.raises(ValueError):
            load_dataset("imagenet")

    def test_reproducible(self):
        a = load_dataset("proteins25", seed=1, num_train=8, num_valid=3, num_test=3)
        b = load_dataset("proteins25", seed=1, num_train=8, num_valid=3, num_test=3)
        np.testing.assert_array_equal(a.train[0].edge_index, b.train[0].edge_index)

    def test_all_ogb_names_build(self):
        for name in OGB_DATASET_NAMES:
            ds = load_dataset(name, seed=0, num_graphs=80)
            assert ds.train and ds.valid and ds.tests
            assert ds.info.name == name

    def test_ogb_info_matches_table1(self):
        specs = {
            "ogbg-moltox21": (12, "binary", "rocauc"),
            "ogbg-molsider": (27, "binary", "rocauc"),
            "ogbg-molesol": (1, "regression", "rmse"),
        }
        for name, (tasks, task_type, metric) in specs.items():
            ds = load_dataset(name, seed=0, num_graphs=60)
            assert ds.info.num_tasks == tasks
            assert ds.info.task_type == task_type
            assert ds.info.metric == metric

    def test_unknown_ogb_name(self, rng):
        with pytest.raises(ValueError):
            make_ogb_dataset("ogbg-molwhat", rng)

    def test_scale_shrinks_dataset(self):
        small = load_dataset("triangles", seed=0, scale=0.1)
        assert len(small.train) == 30

    def test_names_cover_14_datasets(self):
        assert len(DATASET_NAMES) == 15  # 6 synthetic/TU + 9 OGB

    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_dataset_info_matches_the_built_dataset(self, name):
        assert dataset_info(name) == load_dataset(name, seed=0, scale=0.2).info

    def test_dataset_info_is_case_insensitive_and_rejects_unknown_names(self):
        assert dataset_info("DD300") is dataset_info("dd300")
        with pytest.raises(ValueError, match="unknown dataset"):
            dataset_info("imagenet")
