"""Engine-level behaviour: accumulation, no_grad, detach, graph reuse."""

import weakref

import numpy as np
import pytest

from repro.autograd import Tensor, no_grad, is_grad_enabled
from repro.autograd.tensor import as_tensor


class TestBackward:
    def test_scalar_backward_default_grad(self):
        x = Tensor(3.0, requires_grad=True)
        (x * x).backward()
        np.testing.assert_allclose(x.grad, 6.0)

    def test_nonscalar_backward_requires_grad_argument(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2).backward()

    def test_explicit_gradient(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        (x * 3).backward(np.array([1.0, 10.0]))
        np.testing.assert_allclose(x.grad, [3.0, 30.0])

    def test_gradient_shape_mismatch_raises(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            (x * 3).backward(np.array([1.0]))

    def test_grad_accumulates_across_backward_calls(self):
        x = Tensor(2.0, requires_grad=True)
        (x * x).backward()
        (x * x).backward()
        np.testing.assert_allclose(x.grad, 8.0)

    def test_zero_grad(self):
        x = Tensor(2.0, requires_grad=True)
        (x * x).backward()
        x.zero_grad()
        assert x.grad is None

    def test_diamond_graph_accumulates_once_per_path(self):
        # y = x*x + x*x should give dy/dx = 4x, with the shared node
        # visited once in topological order.
        x = Tensor(3.0, requires_grad=True)
        y = x * x
        (y + y).backward()
        np.testing.assert_allclose(x.grad, 12.0)

    def test_reused_tensor_in_one_expression(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        ((x * x) * x).sum().backward()  # d/dx x^3 = 3x^2
        np.testing.assert_allclose(x.grad, [3.0, 12.0])

    def test_deep_chain_no_recursion_error(self):
        x = Tensor(1.0, requires_grad=True)
        y = x
        for _ in range(3000):
            y = y + 0.001
        y.backward()
        np.testing.assert_allclose(x.grad, 1.0)

    def test_constant_branch_gets_no_gradient(self):
        x = Tensor(1.0, requires_grad=True)
        c = Tensor(5.0)
        (x * c).backward()
        assert c.grad is None
        np.testing.assert_allclose(x.grad, 5.0)

    def test_grad_is_kept_only_on_leaves(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=4), requires_grad=True)
        product = x @ w
        shifted = product + b
        activated = shifted.relu()
        loss = activated.sum()
        loss.backward()
        for intermediate in (product, shifted, activated, loss):
            assert intermediate.requires_grad
            assert intermediate.grad is None
        mask = (x.data @ w.data + b.data > 0).astype(np.float64)
        np.testing.assert_allclose(b.grad, mask.sum(axis=0))
        np.testing.assert_allclose(w.grad, x.data.T @ mask)
        np.testing.assert_allclose(x.grad, mask @ w.data.T)


class TestRelease:
    """``backward()`` frees the tape it walks; a second walk raises."""

    def test_backward_frees_arrays_only_the_tape_holds(self):
        x = Tensor(np.random.default_rng(1).normal(size=(6, 3)), requires_grad=True)
        hidden = x.exp()
        probe = weakref.ref(hidden.data)  # exp's grad_fn closes over its result
        loss = (hidden * 2.0).sum()
        del hidden
        assert probe() is not None  # the tape alone keeps it alive
        loss.backward()
        assert probe() is None
        assert loss.requires_grad
        np.testing.assert_allclose(x.grad, 2.0 * np.exp(x.data))

    def test_second_backward_through_released_graph_raises(self):
        x = Tensor(3.0, requires_grad=True)
        y = x * x
        y.backward()
        with pytest.raises(RuntimeError, match="already freed"):
            y.backward()
        np.testing.assert_allclose(x.grad, 6.0)

    def test_new_expression_over_released_node_raises_before_any_grad(self):
        x = Tensor(2.0, requires_grad=True)
        w = Tensor(5.0, requires_grad=True)
        shared = x * x
        (shared * 3.0).backward()
        with pytest.raises(RuntimeError, match="second time"):
            (shared * w).backward()
        np.testing.assert_allclose(x.grad, 12.0)
        assert w.grad is None


class TestGradMode:
    def test_no_grad_blocks_tape(self):
        x = Tensor(2.0, requires_grad=True)
        with no_grad():
            y = x * x
        assert not y.requires_grad
        assert not y._parents

    def test_no_grad_restores_state(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
            with no_grad():
                assert not is_grad_enabled()
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_detach_cuts_graph(self):
        x = Tensor(2.0, requires_grad=True)
        y = (x * x).detach()
        z = y * x
        z.backward()
        np.testing.assert_allclose(x.grad, 4.0)  # only the direct factor


class TestConstruction:
    def test_int_data_promoted_when_requires_grad(self):
        t = Tensor(np.array([1, 2, 3]), requires_grad=True)
        assert t.dtype == np.float64

    def test_int_data_kept_without_grad(self):
        t = Tensor(np.array([1, 2, 3]))
        assert t.dtype.kind == "i"

    def test_as_tensor_passthrough(self):
        t = Tensor(1.0)
        assert as_tensor(t) is t

    def test_as_tensor_wraps_scalar(self):
        t = as_tensor(2.5)
        assert isinstance(t, Tensor)
        assert t.item() == 2.5

    def test_from_tensor_copies_reference(self):
        a = Tensor([1.0, 2.0])
        b = Tensor(a)
        np.testing.assert_allclose(b.data, a.data)

    def test_repr_mentions_requires_grad(self):
        assert "requires_grad" in repr(Tensor(1.0, requires_grad=True))
        assert "requires_grad" not in repr(Tensor(1.0))

    def test_properties(self):
        t = Tensor(np.zeros((2, 3)))
        assert t.shape == (2, 3)
        assert t.ndim == 2
        assert t.size == 6
        assert len(t) == 2

    def test_comparisons_return_numpy(self):
        a, b = Tensor([1.0, 3.0]), Tensor([2.0, 2.0])
        np.testing.assert_array_equal(a > b, [False, True])
        np.testing.assert_array_equal(a < b, [True, False])
        np.testing.assert_array_equal(a >= Tensor([1.0, 4.0]), [True, False])
        np.testing.assert_array_equal(a <= 1.0, [True, False])

    def test_copy_is_independent(self):
        a = Tensor([1.0, 2.0])
        b = a.copy()
        b.data[0] = 99.0
        assert a.data[0] == 1.0
