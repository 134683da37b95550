"""Convolution layers: shapes, semantics, and invariances."""

import numpy as np
import pytest

from repro.autograd import Tensor, inference_mode
from repro.encoders import GCNConv, GINConv, PNAConv, FactorGCNConv, build_model
from repro.graph.data import GraphBatch
from repro.graph.generators import erdos_renyi
from repro.graph.segment import segment_sum
from repro.graph.utils import undirected_edge_index


@pytest.fixture
def rng():
    return np.random.default_rng(23)


@pytest.fixture
def path_graph():
    """0 - 1 - 2 path."""
    return undirected_edge_index([(0, 1), (1, 2)]), 3


def permute_graph(x, edge_index, perm):
    """Apply a node permutation to features and connectivity."""
    inverse = np.argsort(perm)
    return x[perm], inverse[edge_index][:, :]


class TestGCNConv:
    def test_output_shape(self, rng, path_graph):
        edges, n = path_graph
        conv = GCNConv(4, 8, rng)
        out = conv(Tensor(rng.normal(size=(n, 4))), edges, n)
        assert out.shape == (n, 8)

    def test_isolated_node_keeps_self_signal(self, rng):
        conv = GCNConv(2, 2, rng)
        x = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        out = conv(x, np.zeros((2, 0), dtype=np.int64), 2)
        # With only self loops, out = x @ W (degree 1 normalisation).
        np.testing.assert_allclose(out.data, (x.data @ conv.linear.weight.data) + conv.linear.bias.data, atol=1e-12)

    def test_permutation_equivariance(self, rng, path_graph):
        edges, n = path_graph
        conv = GCNConv(3, 5, rng)
        x = rng.normal(size=(n, 3))
        out = conv(Tensor(x), edges, n).data
        perm = np.array([2, 0, 1])
        # node i of the permuted graph is node perm[i] of the original
        x_p = x[perm]
        relabel = np.argsort(perm)
        edges_p = relabel[edges]
        out_p = conv(Tensor(x_p), edges_p, n).data
        np.testing.assert_allclose(out_p, out[perm], atol=1e-10)

    def test_gradients_reach_weights(self, rng, path_graph):
        edges, n = path_graph
        conv = GCNConv(3, 5, rng)
        conv(Tensor(rng.normal(size=(n, 3))), edges, n).sum().backward()
        assert conv.linear.weight.grad is not None


class TestGINConv:
    def test_sum_aggregation_semantics(self, rng):
        conv = GINConv(2, 4, rng)
        conv.eval()  # freeze batch-norm to running stats for determinism
        edges = undirected_edge_index([(0, 1)])
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        out = conv(Tensor(x), edges, 2).data
        # (1+eps)*x_i + sum_j x_j with eps=0 -> both nodes get [1, 1].
        mlp_in_0 = x[0] + x[1]
        expected = conv.mlp(Tensor(mlp_in_0[None, :])).data
        np.testing.assert_allclose(out[0], expected[0], atol=1e-10)

    def test_eps_parameter_trains(self, rng, ):
        conv = GINConv(2, 4, rng)
        edges = undirected_edge_index([(0, 1)])
        out = conv(Tensor(rng.normal(size=(2, 2))), edges, 2)
        out.sum().backward()
        assert conv.eps.grad is not None

    def test_no_train_eps(self, rng):
        conv = GINConv(2, 4, rng, train_eps=False)
        assert conv.eps is None
        edges = undirected_edge_index([(0, 1)])
        out = conv(Tensor(rng.normal(size=(2, 2))), edges, 2)
        assert out.shape == (2, 4)

    def test_edgeless_graph(self, rng):
        conv = GINConv(2, 4, rng)
        out = conv(Tensor(rng.normal(size=(3, 2))), np.zeros((2, 0), dtype=np.int64), 3)
        assert out.shape == (3, 4)

    def test_combine_node_matches_manual_chain(self, rng):
        """Output and x/eps gradients equal ``x * (eps + 1) + segment_sum(...)``."""
        graph = erdos_renyi(40, 0.1, rng)
        x_data = rng.normal(size=(40, 6))
        conv = GINConv(6, 8, np.random.default_rng(0))
        conv.eps.data = np.array([0.3])

        x = Tensor(x_data, requires_grad=True)
        out = conv(x, graph.edge_index, graph.num_nodes)
        out.sum().backward()
        eps_grad = conv.eps.grad.copy()

        conv.zero_grad()
        x_manual = Tensor(x_data, requires_grad=True)
        src, dst = graph.edge_index
        aggregated = segment_sum(x_manual[src], dst, graph.num_nodes)
        out_manual = conv.mlp(x_manual * (conv.eps + 1.0) + aggregated)
        out_manual.sum().backward()

        np.testing.assert_array_equal(out.data, out_manual.data)
        np.testing.assert_array_equal(x.grad, x_manual.grad)
        np.testing.assert_array_equal(eps_grad, conv.eps.grad)


@pytest.mark.parametrize("name", ["gin", "gcn", "gin-virtual"])
def test_tape_free_model_forward_matches_taped(name):
    rng = np.random.default_rng(4)
    graphs = []
    for _ in range(3):
        g = erdos_renyi(30, 0.1, rng)
        g.x = rng.normal(size=(30, 5))
        graphs.append(g)
    batch = GraphBatch.from_graphs(graphs)
    model = build_model(name, 5, 3, np.random.default_rng(0), hidden_dim=16, num_layers=2).eval()
    taped = model(batch).data
    with inference_mode():
        np.testing.assert_array_equal(model(batch).data, taped)


class TestPNAConv:
    def test_output_shape(self, rng, path_graph):
        edges, n = path_graph
        conv = PNAConv(3, 6, rng, degree_scale=1.0)
        out = conv(Tensor(rng.normal(size=(n, 3))), edges, n)
        assert out.shape == (n, 6)

    def test_concat_width(self, rng):
        conv = PNAConv(3, 6, rng)
        # 4 aggregators x 3 scalers + self = 13 blocks of width 6.
        assert conv.post.in_features == 13 * 6

    def test_degree_scale_floor(self, rng):
        conv = PNAConv(2, 2, rng, degree_scale=0.0)
        assert conv.degree_scale > 0

    def test_edgeless_graph(self, rng):
        conv = PNAConv(3, 4, rng)
        out = conv(Tensor(rng.normal(size=(2, 3))), np.zeros((2, 0), dtype=np.int64), 2)
        assert out.shape == (2, 4)
        assert np.isfinite(out.data).all()

    def test_std_aggregator_nonnegative_under_constant_input(self, rng):
        conv = PNAConv(2, 4, rng)
        edges = undirected_edge_index([(0, 1), (1, 2), (0, 2)])
        x = Tensor(np.ones((3, 2)))
        out = conv(x, edges, 3)
        assert np.isfinite(out.data).all()


class TestFactorGCN:
    def test_output_dim_must_divide(self, rng):
        with pytest.raises(ValueError):
            FactorGCNConv(4, 10, 3, rng)

    def test_output_shape_and_factors(self, rng, path_graph):
        edges, n = path_graph
        conv = FactorGCNConv(3, 8, 4, rng)
        out = conv(Tensor(rng.normal(size=(n, 3))), edges, n)
        assert out.shape == (n, 8)
        assert conv._last_attention.shape == (4, edges.shape[1])

    def test_disentangle_penalty_range(self, rng, path_graph):
        edges, n = path_graph
        conv = FactorGCNConv(3, 8, 4, rng)
        conv(Tensor(rng.normal(size=(n, 3))), edges, n)
        penalty = conv.disentangle_penalty()
        assert -1.0 <= penalty <= 1.0

    def test_penalty_zero_before_forward(self, rng):
        conv = FactorGCNConv(3, 8, 2, rng)
        assert conv.disentangle_penalty() == 0.0

    def test_edgeless_graph(self, rng):
        conv = FactorGCNConv(3, 6, 2, rng)
        out = conv(Tensor(rng.normal(size=(2, 3))), np.zeros((2, 0), dtype=np.int64), 2)
        assert out.shape == (2, 6)
