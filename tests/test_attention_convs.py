"""GAT and GraphSAGE convolutions."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.encoders.attention import GATConv, SAGEConv
from repro.encoders import build_model, available_models
from repro.graph.data import GraphBatch, Topology
from repro.graph.generators import erdos_renyi
from repro.graph.utils import undirected_edge_index
from repro.nn import cross_entropy


@pytest.fixture
def rng():
    return np.random.default_rng(97)


@pytest.fixture
def path_graph():
    return undirected_edge_index([(0, 1), (1, 2)]), 3


class TestGATConv:
    def test_output_shape(self, rng, path_graph):
        edges, n = path_graph
        conv = GATConv(5, 8, rng, num_heads=4)
        out = conv(Tensor(rng.normal(size=(n, 5))), Topology(edges, n))
        assert out.shape == (n, 8)

    def test_head_divisibility(self, rng):
        with pytest.raises(ValueError):
            GATConv(4, 10, rng, num_heads=4)

    def test_attention_normalised_per_node(self, rng, path_graph):
        """Uniform features give uniform attention; output equals the
        plain mean of transformed neighbours (plus bias)."""
        edges, n = path_graph
        conv = GATConv(3, 4, rng, num_heads=2)
        x = np.ones((n, 3))
        out = conv(Tensor(x), Topology(edges, n)).data
        # All nodes share features, so every node's output is identical
        # iff attention sums to 1 over each in-neighbourhood.
        np.testing.assert_allclose(out[0], out[2], atol=1e-10)

    def test_gradients_flow(self, rng, path_graph):
        edges, n = path_graph
        conv = GATConv(3, 4, rng, num_heads=2)
        out = conv(Tensor(rng.normal(size=(n, 3)), requires_grad=True), Topology(edges, n))
        out.sum().backward()
        assert conv.att_src.grad is not None
        assert conv.att_dst.grad is not None
        assert conv.linear.weight.grad is not None

    def test_permutation_equivariance(self, rng, path_graph):
        edges, n = path_graph
        conv = GATConv(3, 4, rng, num_heads=2)
        x = rng.normal(size=(n, 3))
        out = conv(Tensor(x), Topology(edges, n)).data
        perm = np.array([2, 0, 1])
        relabel = np.argsort(perm)
        out_p = conv(Tensor(x[perm]), Topology(relabel[edges], n)).data
        np.testing.assert_allclose(out_p, out[perm], atol=1e-10)


class TestSAGEConv:
    def test_output_shape(self, rng, path_graph):
        edges, n = path_graph
        conv = SAGEConv(3, 6, rng)
        assert conv(Tensor(rng.normal(size=(n, 3))), Topology(edges, n)).shape == (n, 6)

    def test_matches_manual_mean_aggregation(self, rng):
        edges = undirected_edge_index([(0, 1), (0, 2)])
        conv = SAGEConv(2, 3, rng)
        x = rng.normal(size=(3, 2))
        out = conv(Tensor(x), Topology(edges, 3)).data
        neigh0 = (x[1] + x[2]) / 2
        expected = (x[0] @ conv.self_linear.weight.data + conv.self_linear.bias.data
                    + neigh0 @ conv.neigh_linear.weight.data)
        np.testing.assert_allclose(out[0], expected, atol=1e-10)

    def test_normalise_gives_unit_rows(self, rng, path_graph):
        edges, n = path_graph
        conv = SAGEConv(3, 4, rng, normalise=True)
        out = conv(Tensor(rng.normal(size=(n, 3))), Topology(edges, n)).data
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-8)

    def test_edgeless_graph(self, rng):
        conv = SAGEConv(3, 4, rng)
        out = conv(Tensor(rng.normal(size=(2, 3))), Topology(np.zeros((2, 0), dtype=np.int64), 2))
        assert out.shape == (2, 4)


class TestRegistryIntegration:
    def test_gat_and_sage_registered(self):
        assert "gat" in available_models()
        assert "sage" in available_models()

    @pytest.mark.parametrize("name", ["gat", "sage"])
    def test_end_to_end(self, rng, name):
        graphs = []
        for i in range(6):
            g = erdos_renyi(6, 0.5, rng)
            g.y = i % 2
            graphs.append(g)
        batch = GraphBatch.from_graphs(graphs)
        model = build_model(name, 1, 2, np.random.default_rng(0), hidden_dim=8, num_layers=2)
        loss = cross_entropy(model(batch), batch.y)
        loss.backward()
        assert all(p.grad is not None for p in model.parameters())
