"""Layers: Linear, MLP, BatchNorm1d, LayerNorm, Dropout, Embedding."""

import numpy as np
import pytest

from repro.autograd import Tensor, inference_mode, no_grad
from repro.nn import (
    Linear,
    MLP,
    BatchNorm1d,
    LayerNorm,
    Dropout,
    Embedding,
    Identity,
    ReLU,
    Sequential,
)
from repro.nn.layers import (
    _bn_backward_x,
    _bn_train_forward,
    fused_sequential_forward,
    make_activation,
    stack_seed_modules,
)


@pytest.fixture
def rng():
    return np.random.default_rng(11)


class TestLinear:
    def test_output_shape(self, rng):
        layer = Linear(4, 7, rng)
        out = layer(Tensor(rng.normal(size=(3, 4))))
        assert out.shape == (3, 7)

    def test_matches_manual_affine(self, rng):
        layer = Linear(3, 2, rng)
        x = rng.normal(size=(5, 3))
        expected = x @ layer.weight.data + layer.bias.data
        np.testing.assert_allclose(layer(Tensor(x)).data, expected)

    def test_no_bias(self, rng):
        layer = Linear(3, 2, rng, bias=False)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_xavier_scale(self, rng):
        layer = Linear(100, 100, rng)
        bound = np.sqrt(6.0 / 200)
        assert np.abs(layer.weight.data).max() <= bound + 1e-12

    @pytest.mark.parametrize("bias", [True, False])
    def test_one_tape_node_bitwise_equal_to_the_two_node_chain(self, rng, bias):
        layer = Linear(6, 5, rng, bias=bias)
        if bias:
            layer.bias.data = rng.normal(size=5)
        x_data = rng.normal(size=(9, 6))
        upstream = rng.normal(size=(9, 5))

        x = Tensor(x_data, requires_grad=True)
        out = layer(x)
        assert {id(p) for p, _fn in out._parents} == {id(x)} | {id(p) for p in layer.parameters()}
        out.backward(upstream)
        grads = [x.grad] + [p.grad for p in layer.parameters()]

        layer.zero_grad()
        x_ref = Tensor(x_data, requires_grad=True)
        ref = x_ref @ layer.weight
        if bias:
            ref = ref + layer.bias
        ref.backward(upstream)
        np.testing.assert_array_equal(out.data, ref.data)
        for got, want in zip(grads, [x_ref.grad] + [p.grad for p in layer.parameters()]):
            np.testing.assert_array_equal(got, want)


class TestBatchNorm:
    def test_normalises_in_training(self, rng):
        bn = BatchNorm1d(4)
        x = Tensor(rng.normal(3.0, 2.0, size=(200, 4)))
        out = bn(x).data
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-8)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-2)

    def test_running_stats_update(self, rng):
        bn = BatchNorm1d(2, momentum=0.5)
        x = Tensor(np.full((50, 2), 4.0) + rng.normal(size=(50, 2)) * 0.01)
        bn(x)
        assert np.all(bn.running_mean > 1.0)

    def test_eval_uses_running_stats(self, rng):
        bn = BatchNorm1d(2)
        for _ in range(50):
            bn(Tensor(rng.normal(5.0, 1.0, size=(64, 2))))
        bn.eval()
        out = bn(Tensor(np.full((4, 2), 5.0))).data
        np.testing.assert_allclose(out, 0.0, atol=0.2)

    def test_single_sample_in_training_uses_running_stats(self):
        bn = BatchNorm1d(2)
        out = bn(Tensor(np.array([[1.0, 2.0]])))
        assert np.isfinite(out.data).all()

    def test_gradients_flow_to_gamma_beta(self, rng):
        bn = BatchNorm1d(3)
        out = bn(Tensor(rng.normal(size=(10, 3))))
        out.sum().backward()
        assert bn.gamma.grad is not None
        assert bn.beta.grad is not None

    @pytest.mark.parametrize("axis", [0, 1])
    def test_in_place_kernels_bitwise_equal_to_out_of_place_expressions(self, rng, axis):
        def forward_reference(x, gamma, beta, eps):
            mean = x.mean(axis=axis, keepdims=True)
            centered = x - mean
            var = (centered * centered).mean(axis=axis, keepdims=True)
            std = np.sqrt(var + eps)
            xhat = centered / std
            return xhat * gamma + beta

        def backward_x_reference(g, gamma, centered, std):
            n = g.shape[axis]
            g_xhat = g * gamma
            g_centered = g_xhat / std
            g_var = (g_xhat * centered).sum(axis=axis, keepdims=True) * (-0.5) / (std * std * std)
            g_centered += centered * ((2.0 / n) * g_var)
            return g_centered - g_centered.mean(axis=axis, keepdims=True)

        shape, param_shape = ((37, 6), (6,)) if axis == 0 else ((3, 37, 6), (3, 1, 6))
        x = rng.normal(1.0, 3.0, size=shape)
        gamma, beta = rng.normal(size=param_shape), rng.normal(size=param_shape)
        g = rng.normal(size=shape)
        out, _mean, _var, centered, std, _xhat = _bn_train_forward(x, gamma, beta, 1e-5, axis=axis)
        np.testing.assert_array_equal(out, forward_reference(x, gamma, beta, 1e-5))
        np.testing.assert_array_equal(
            _bn_backward_x(g, gamma, centered, std, axis=axis),
            backward_x_reference(g, gamma, centered, std),
        )


class TestLayerNorm:
    def test_normalises_rows(self, rng):
        ln = LayerNorm(6)
        out = ln(Tensor(rng.normal(2.0, 3.0, size=(4, 6)))).data
        np.testing.assert_allclose(out.mean(axis=1), 0.0, atol=1e-8)


class TestDropout:
    def test_rejects_invalid_probability(self, rng):
        with pytest.raises(ValueError):
            Dropout(1.0, rng)

    def test_eval_mode_identity(self, rng):
        drop = Dropout(0.5, rng)
        drop.eval()
        x = Tensor(np.ones(100))
        np.testing.assert_allclose(drop(x).data, 1.0)


class TestEmbedding:
    def test_lookup(self, rng):
        emb = Embedding(10, 4, rng)
        out = emb(np.array([1, 1, 3]))
        assert out.shape == (3, 4)
        np.testing.assert_allclose(out.data[0], out.data[1])

    def test_gradient_accumulates_for_repeated_ids(self, rng):
        emb = Embedding(5, 2, rng)
        out = emb(np.array([2, 2]))
        out.sum().backward()
        np.testing.assert_allclose(emb.weight.grad[2], [2.0, 2.0])
        np.testing.assert_allclose(emb.weight.grad[0], [0.0, 0.0])


class TestMLP:
    def test_shapes_and_depth(self, rng):
        mlp = MLP([4, 8, 8, 2], rng)
        out = mlp(Tensor(rng.normal(size=(5, 4))))
        assert out.shape == (5, 2)

    def test_requires_two_dims(self, rng):
        with pytest.raises(ValueError):
            MLP([4], rng)

    def test_batch_norm_layers_inserted(self, rng):
        mlp = MLP([4, 8, 2], rng, batch_norm=True)
        kinds = [type(l).__name__ for l in mlp.net]
        assert "BatchNorm1d" in kinds

    def test_output_layer_is_linear(self, rng):
        # Negative outputs must be reachable (no trailing activation).
        mlp = MLP([2, 4, 1], rng)
        outs = mlp(Tensor(rng.normal(size=(200, 2)))).data
        assert (outs < 0).any()


def _eval_mlp(seed=0):
    """An eval-mode batch-norm MLP with non-trivial running statistics."""
    mlp = MLP([6, 8, 4], np.random.default_rng(seed), batch_norm=True)
    stats = np.random.default_rng(seed + 1)
    for module in mlp.modules():
        if isinstance(module, BatchNorm1d):
            module.running_mean = stats.normal(size=module.num_features)
            module.running_var = np.abs(stats.normal(size=module.num_features)) + 0.5
    return mlp.eval()


def _eval_seed_bn(rng):
    bn = stack_seed_modules([BatchNorm1d(5) for _ in range(3)])
    bn.running_mean = rng.normal(size=(3, 5))
    bn.running_var = np.abs(rng.normal(size=(3, 5))) + 0.5
    bn.gamma.data = rng.normal(size=(3, 5))
    bn.beta.data = rng.normal(size=(3, 5))
    return bn.eval()


class TestTapeFreeWalk:
    """The in-place tape-free paths are bitwise equal to the taped layers."""

    def test_walk_called_directly_matches_taped_mlp(self, rng):
        mlp = _eval_mlp(seed=4)
        x = rng.normal(size=(9, 6))
        taped = mlp(Tensor(x)).data
        np.testing.assert_array_equal(fused_sequential_forward(mlp.net, Tensor(x)).data, taped)

    def test_walk_under_inference_mode_matches_taped_mlp(self, rng):
        mlp = _eval_mlp()
        x = rng.normal(size=(17, 6))
        taped = mlp(Tensor(x)).data
        with inference_mode():
            np.testing.assert_array_equal(mlp(Tensor(x)).data, taped)

    def test_training_batch_norm_in_walk_uses_batch_statistics(self, rng):
        x = rng.normal(size=(11, 6))
        reference = _eval_mlp().train().net(Tensor(x)).data  # taped chain, batch stats
        with no_grad():
            out = _eval_mlp().train()(Tensor(x)).data
        np.testing.assert_allclose(out, reference, atol=1e-12)

    def test_seed_batch_norm_eval_matches_taped_chain(self, rng):
        bn = _eval_seed_bn(rng)
        x = rng.normal(size=(3, 19, 5))
        taped = bn(Tensor(x)).data
        with inference_mode():
            np.testing.assert_array_equal(bn(Tensor(x)).data, taped)

    def test_tape_free_forwards_leave_their_input_unchanged(self, rng):
        mlp = _eval_mlp()
        bn, relu = mlp.net[1], mlp.net[2]
        seed_bn = _eval_seed_bn(rng)
        cases = [
            (lambda t: fused_sequential_forward(mlp.net, t), (9, 6)),
            (lambda t: fused_sequential_forward([bn, relu], t), (9, 8)),
            (lambda t: fused_sequential_forward([relu], t), (9, 8)),
            (bn, (9, 8)),
            (seed_bn, (3, 9, 5)),
        ]
        with inference_mode():
            for forward, shape in cases:
                data = rng.normal(size=shape)
                before = data.copy()
                out = forward(Tensor(data)).data
                np.testing.assert_array_equal(data, before)
                assert not np.shares_memory(out, data)


class TestActivationsAndContainers:
    def test_make_activation_known(self):
        assert isinstance(make_activation("relu"), ReLU)

    def test_make_activation_unknown(self):
        with pytest.raises(ValueError):
            make_activation("swishish")

    def test_identity(self, rng):
        x = Tensor(rng.normal(size=3))
        assert Identity()(x) is x

    def test_sequential_indexing_and_len(self, rng):
        seq = Sequential(Linear(2, 3, rng), ReLU(), Linear(3, 1, rng))
        assert len(seq) == 3
        assert isinstance(seq[1], ReLU)
        out = seq(Tensor(rng.normal(size=(4, 2))))
        assert out.shape == (4, 1)
