"""Pooling: global readouts, top-k selection, hierarchical poolers."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.encoders import TopKPooling, SAGPooling, global_sum_pool, global_mean_pool, global_max_pool
from repro.encoders.pooling import topk_select, filter_edges
from repro.graph.data import Topology
from repro.graph.utils import undirected_edge_index


@pytest.fixture
def rng():
    return np.random.default_rng(31)


class TestGlobalReadouts:
    def test_sum_mean_max(self):
        x = Tensor(np.array([[1.0], [3.0], [10.0]]))
        batch = np.array([0, 0, 1])
        np.testing.assert_allclose(global_sum_pool(x, batch, 2).data, [[4.0], [10.0]])
        np.testing.assert_allclose(global_mean_pool(x, batch, 2).data, [[2.0], [10.0]])
        np.testing.assert_allclose(global_max_pool(x, batch, 2).data, [[3.0], [10.0]])

    def test_gradients(self, rng):
        x = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        batch = np.array([0, 0, 1, 1])
        (global_sum_pool(x, batch, 2) ** 2).sum().backward()
        assert x.grad is not None


class TestTopKSelect:
    def test_keeps_ratio_per_graph(self):
        scores = np.array([0.9, 0.1, 0.5, 0.8, 0.2, 0.7])
        batch = np.array([0, 0, 0, 1, 1, 1])
        kept = topk_select(scores, batch, 2, ratio=0.5)
        # ceil(0.5*3) = 2 nodes per graph.
        assert len(kept) == 4
        assert set(kept) == {0, 2, 3, 5}

    def test_always_keeps_at_least_one(self):
        scores = np.array([0.5, 0.1])
        batch = np.array([0, 1])
        kept = topk_select(scores, batch, 2, ratio=0.01)
        assert len(kept) == 2

    def test_returns_sorted_indices(self, rng):
        scores = rng.normal(size=10)
        batch = np.repeat([0, 1], 5)
        kept = topk_select(scores, batch, 2, ratio=0.6)
        assert np.all(np.diff(kept) > 0)

    def test_handles_empty_graph_slot(self):
        # Graph 1 has no nodes.
        scores = np.array([0.5, 0.3])
        batch = np.array([0, 0])
        kept = topk_select(scores, batch, 2, ratio=0.5)
        assert len(kept) == 1


class TestFilterEdges:
    def test_induced_subgraph_reindexed(self):
        edges = undirected_edge_index([(0, 1), (1, 2), (2, 3)])
        kept = np.array([1, 2])
        out = filter_edges(edges, kept, 4)
        # Only edge (1,2) survives, renumbered to (0,1) both directions.
        assert out.shape == (2, 2)
        assert set(map(tuple, out.T.tolist())) == {(0, 1), (1, 0)}

    def test_no_surviving_edges(self):
        edges = undirected_edge_index([(0, 1)])
        out = filter_edges(edges, np.array([0]), 2)
        assert out.shape == (2, 0)

    def test_empty_input(self):
        out = filter_edges(np.zeros((2, 0), dtype=np.int64), np.array([0]), 1)
        assert out.shape == (2, 0)


class TestPoolingLayers:
    @pytest.mark.parametrize("pool_cls", [TopKPooling, SAGPooling])
    def test_reduces_nodes(self, rng, pool_cls):
        pool = pool_cls(4, rng, ratio=0.5)
        edges = undirected_edge_index([(0, 1), (1, 2), (2, 3), (3, 0)])
        x = Tensor(rng.normal(size=(4, 4)))
        batch = np.zeros(4, dtype=np.int64)
        new_x, new_edges, new_batch = pool(x, Topology(edges, 4), batch, 1)
        assert new_x.shape == (2, 4)
        assert len(new_batch) == 2

    @pytest.mark.parametrize("pool_cls", [TopKPooling, SAGPooling])
    def test_invalid_ratio(self, rng, pool_cls):
        with pytest.raises(ValueError):
            pool_cls(4, rng, ratio=0.0)

    def test_gradient_flows_through_gate(self, rng):
        pool = TopKPooling(3, rng, ratio=1.0)
        edges = undirected_edge_index([(0, 1)])
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        new_x, _, _ = pool(x, Topology(edges, 2), np.zeros(2, dtype=np.int64), 1)
        new_x.sum().backward()
        assert x.grad is not None
        assert pool.projection.grad is not None

    def test_sag_scores_use_structure(self, rng):
        # SAGPool scores come from a GCN conv: gradients reach its weights.
        pool = SAGPooling(3, rng, ratio=0.5)
        edges = undirected_edge_index([(0, 1), (1, 2)])
        x = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        new_x, _, _ = pool(x, Topology(edges, 3), np.zeros(3, dtype=np.int64), 1)
        new_x.sum().backward()
        assert pool.score_conv.linear.weight.grad is not None
