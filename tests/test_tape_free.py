"""Tape-free inference mode: bitwise parity with taped forwards, clear errors.

Covers the serving-path contract (docs/ARCHITECTURE.md "Inference and
serving"): every operation used in encoder forwards must produce *bitwise*
identical outputs with and without the tape (the fast paths re-express the
same arithmetic, they never reorder it), and calling ``backward()`` on a
tensor computed under ``no_grad()``/``inference_mode()`` must raise a
clear error instead of silently doing nothing.
"""

import numpy as np
import pytest

from encoder_specs import ENCODER_SPECS, spec_params
from repro.autograd import Tensor, functional as F, inference_mode, no_grad, is_grad_enabled
from repro.graph.data import GraphBatch
from repro.graph.generators import erdos_renyi
from repro.nn.layers import BatchNorm1d, Linear, stack_seed_modules


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def _tensors(seed: int = 7):
    rng = np.random.default_rng(seed)
    a = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    ids = np.array([0, 0, 1, 2, 2, 1])
    return a, b, w, ids


# Every tensor/functional op the encoder zoo's forwards touch.
_OP_CASES = {
    "add": lambda a, b, w, ids: a + b,
    "radd_scalar": lambda a, b, w, ids: 1.5 + a,
    "sub": lambda a, b, w, ids: a - b,
    "neg": lambda a, b, w, ids: -a,
    "mul": lambda a, b, w, ids: a * b,
    "div": lambda a, b, w, ids: a / (b * b + 1.0),
    "pow": lambda a, b, w, ids: a**2,
    "matmul": lambda a, b, w, ids: a @ w,
    "exp": lambda a, b, w, ids: a.exp(),
    "log": lambda a, b, w, ids: (a * a + 1.0).log(),
    "sqrt": lambda a, b, w, ids: (a * a + 1e-3).sqrt(),
    "abs": lambda a, b, w, ids: a.abs(),
    "tanh": lambda a, b, w, ids: a.tanh(),
    "sigmoid": lambda a, b, w, ids: a.sigmoid(),
    "relu": lambda a, b, w, ids: a.relu(),
    "leaky_relu": lambda a, b, w, ids: a.leaky_relu(0.1),
    "cos": lambda a, b, w, ids: a.cos(),
    "sin": lambda a, b, w, ids: a.sin(),
    "clip": lambda a, b, w, ids: a.clip(-0.5, 0.5),
    "softplus": lambda a, b, w, ids: a.softplus(),
    "sum": lambda a, b, w, ids: a.sum(axis=0),
    "mean": lambda a, b, w, ids: a.mean(axis=1, keepdims=True),
    "var": lambda a, b, w, ids: a.var(axis=0),
    "std": lambda a, b, w, ids: a.std(axis=0),
    "max": lambda a, b, w, ids: a.max(axis=0),
    "min": lambda a, b, w, ids: a.min(axis=1),
    "reshape": lambda a, b, w, ids: a.reshape(4, 6),
    "transpose": lambda a, b, w, ids: a.T,
    "squeeze": lambda a, b, w, ids: a.unsqueeze(0).squeeze(0),
    "unsqueeze": lambda a, b, w, ids: a.unsqueeze(1),
    "broadcast_to": lambda a, b, w, ids: a.unsqueeze(0).broadcast_to((2, 6, 4)),
    "getitem_rows": lambda a, b, w, ids: a[ids],
    "getitem_negative_rows": lambda a, b, w, ids: a[np.array([-1, 0, -2])],
    "getitem_slice": lambda a, b, w, ids: a[1:4],
    "index_add": lambda a, b, w, ids: a.index_add(ids, b),
    "concatenate": lambda a, b, w, ids: F.concatenate([a, b], axis=1),
    "stack": lambda a, b, w, ids: F.stack([a, b], axis=0),
    "where": lambda a, b, w, ids: F.where(a.data > 0, a, b),
    "maximum": lambda a, b, w, ids: F.maximum(a, b),
    "softmax": lambda a, b, w, ids: F.softmax(a, axis=1),
    "log_softmax": lambda a, b, w, ids: F.log_softmax(a, axis=1),
    "logsumexp": lambda a, b, w, ids: F.logsumexp(a, axis=1),
    "segment_sum": lambda a, b, w, ids: F.segment_sum(a, ids, 3),
    "segment_mean": lambda a, b, w, ids: F.segment_mean(a, ids, 3),
    "segment_max": lambda a, b, w, ids: F.segment_max(a, ids, 3),
    "segment_softmax": lambda a, b, w, ids: F.segment_softmax(a, ids, 3),
    "seed_linear": lambda a, b, w, ids: F.seed_linear(a, Tensor(np.stack([w.data, w.data * 2]), requires_grad=True)),
    "seed_gather": lambda a, b, w, ids: F.seed_gather(F.stack([a, b], axis=0), ids),
    "seed_gather_per_seed": lambda a, b, w, ids: F.seed_gather(
        F.stack([a, b], axis=0), np.stack([ids, ids[::-1]])
    ),
    "seed_segment_sum": lambda a, b, w, ids: F.seed_segment_sum(F.stack([a, b], axis=0), ids, 3),
    "seed_segment_mean": lambda a, b, w, ids: F.seed_segment_mean(F.stack([a, b], axis=0), ids, 3),
    "seed_segment_max": lambda a, b, w, ids: F.seed_segment_max(F.stack([a, b], axis=0), ids, 4),
    "seed_segment_softmax": lambda a, b, w, ids: F.seed_segment_softmax(
        F.stack([a, b], axis=0), ids, 3
    ),
}


class TestOpParity:
    @pytest.mark.parametrize("name", sorted(_OP_CASES))
    def test_bitwise_equal_with_and_without_tape(self, name, rng):
        op = _OP_CASES[name]
        taped = op(*_tensors())
        with inference_mode():
            tape_free = op(*_tensors())
        np.testing.assert_array_equal(taped.data, tape_free.data)
        assert not tape_free.requires_grad
        assert not tape_free._parents

    @pytest.mark.parametrize("name", sorted(_OP_CASES))
    def test_no_grad_matches_inference_mode(self, name, rng):
        op = _OP_CASES[name]
        with no_grad():
            a = op(*_tensors())
        with inference_mode():
            b = op(*_tensors())
        np.testing.assert_array_equal(a.data, b.data)

    def test_getitem_out_of_bounds_still_raises(self):
        a, *_ = _tensors()
        with inference_mode():
            with pytest.raises(IndexError):
                a[np.array([0, 6])]
            with pytest.raises(IndexError):
                a[np.array([-7])]


class TestLayerParity:
    def test_linear_fast_path(self, rng):
        layer = Linear(4, 3, rng)
        x = Tensor(rng.normal(size=(5, 4)))
        taped = layer(x)
        with inference_mode():
            fast = layer(x)
        np.testing.assert_array_equal(taped.data, fast.data)

    def test_batchnorm_eval_fast_path(self, rng):
        layer = BatchNorm1d(4)
        layer.running_mean = rng.normal(size=4)
        layer.running_var = np.abs(rng.normal(size=4)) + 0.5
        layer.gamma.data = rng.normal(size=4)
        layer.beta.data = rng.normal(size=4)
        layer.eval()
        x = Tensor(rng.normal(size=(5, 4)))
        taped = layer(x)
        with inference_mode():
            fast = layer(x)
        np.testing.assert_array_equal(taped.data, fast.data)

    def test_seed_layers_fast_path(self, rng):
        linear = stack_seed_modules([Linear(4, 3, rng) for _ in range(2)])
        linear.bias.data = rng.normal(size=(2, 3))
        norm = stack_seed_modules([BatchNorm1d(3) for _ in range(2)])
        norm.running_mean = rng.normal(size=(2, 3))
        norm.running_var = np.abs(rng.normal(size=(2, 3))) + 0.5
        norm.eval()
        x = Tensor(rng.normal(size=(5, 4)))
        taped = norm(linear(x))
        with inference_mode():
            fast = norm(linear(x))
        np.testing.assert_array_equal(taped.data, fast.data)


def _feature_batch(rng, count=4, feature_dim=5):
    graphs = []
    for _ in range(count):
        g = erdos_renyi(int(rng.integers(6, 12)), 0.5, rng)
        g.x = rng.normal(size=(g.num_nodes, feature_dim))
        graphs.append(g)
    return GraphBatch.from_graphs(graphs)


class TestEncoderParity:
    @pytest.mark.parametrize("spec", spec_params(ENCODER_SPECS))
    def test_full_forward_bitwise(self, spec, rng):
        """Every baseline's eval forward is bitwise identical tape-free."""
        batch = _feature_batch(rng)
        model = spec.build(5, 3, rng)
        model.eval()
        taped = model(batch)
        with inference_mode():
            tape_free = model(batch)
        np.testing.assert_array_equal(taped.data, tape_free.data)
        assert taped._parents and not tape_free._parents

    @pytest.mark.parametrize("spec", spec_params(ENCODER_SPECS))
    def test_seed_stacked_forward_bitwise(self, spec, rng):
        """The serving path: a stacked roster's eval forward is bitwise
        identical with and without the tape."""
        batch = _feature_batch(rng)
        stacked = stack_seed_modules([spec.factory(5, 3)(s) for s in (0, 1, 2)])
        stacked.eval()
        taped = stacked(batch)
        with inference_mode():
            tape_free = stacked(batch)
        np.testing.assert_array_equal(taped.data, tape_free.data)
        assert not tape_free._parents


class TestBackwardError:
    def test_backward_raises_under_no_grad(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with no_grad():
            y = (x * x).sum()
        with pytest.raises(RuntimeError, match="no_grad"):
            y.backward()

    def test_backward_raises_under_inference_mode(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with inference_mode():
            loss = (x * 2.0).sum()
        with pytest.raises(RuntimeError, match="inference_mode"):
            loss.backward()

    def test_backward_raises_on_untracked_constant(self):
        with pytest.raises(RuntimeError, match="requires_grad"):
            (Tensor(2.0) * 3.0).backward()

    def test_leaf_backward_still_works(self):
        x = Tensor(3.0, requires_grad=True)
        x.backward()
        np.testing.assert_allclose(x.grad, 1.0)

    def test_training_after_inference_mode_still_works(self):
        """The context restores cleanly; a later taped loss trains fine."""
        x = Tensor([1.0, 2.0], requires_grad=True)
        with inference_mode():
            assert not is_grad_enabled()
        assert is_grad_enabled()
        (x * x).sum().backward()
        np.testing.assert_allclose(x.grad, [2.0, 4.0])


class TestModeState:
    def test_inference_mode_nests_with_no_grad(self):
        with no_grad():
            with inference_mode():
                assert not is_grad_enabled()
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_parameterlike_creation_inside_context_is_untracked(self):
        with inference_mode():
            t = Tensor(np.ones(3), requires_grad=True)
        assert not t.requires_grad
