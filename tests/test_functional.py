"""Composite functions: softmax family and segment reductions."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.autograd import functional as F
from repro.autograd.grad_check import check_gradients


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestSoftmax:
    def test_softmax_rows_sum_to_one(self, rng):
        x = Tensor(rng.normal(size=(5, 4)))
        out = F.softmax(x).data
        np.testing.assert_allclose(out.sum(axis=1), np.ones(5), atol=1e-12)
        assert (out > 0).all()

    def test_softmax_invariant_to_shift(self, rng):
        x = rng.normal(size=(3, 4))
        a = F.softmax(Tensor(x)).data
        b = F.softmax(Tensor(x + 100.0)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_softmax_stability_extreme_logits(self):
        x = Tensor(np.array([[1000.0, 0.0], [-1000.0, 0.0]]))
        out = F.softmax(x).data
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out[0], [1.0, 0.0], atol=1e-12)

    def test_log_softmax_matches_log_of_softmax(self, rng):
        x = Tensor(rng.normal(size=(4, 3)))
        np.testing.assert_allclose(
            F.log_softmax(x).data, np.log(F.softmax(x).data), atol=1e-10
        )

    def test_logsumexp_matches_numpy(self, rng):
        x = rng.normal(size=(3, 5))
        expected = np.log(np.exp(x).sum(axis=1))
        np.testing.assert_allclose(F.logsumexp(Tensor(x), axis=1).data, expected, atol=1e-10)

    def test_softmax_gradient(self, rng):
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        coeffs = Tensor(rng.normal(size=(3, 4)))
        check_gradients(lambda: (F.softmax(x) * coeffs).sum(), [x])

    def test_log_softmax_gradient(self, rng):
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        check_gradients(lambda: F.log_softmax(x)[(np.arange(3), np.array([0, 1, 2]))].sum(), [x])


class TestSegmentOps:
    def test_segment_sum_values(self):
        x = Tensor(np.array([[1.0], [2.0], [3.0], [4.0]]))
        out = F.segment_sum(x, np.array([0, 0, 1, 1]), 2)
        np.testing.assert_allclose(out.data, [[3.0], [7.0]])

    def test_segment_sum_empty_segment_is_zero(self):
        x = Tensor(np.array([[1.0], [2.0]]))
        out = F.segment_sum(x, np.array([0, 2]), 3)
        np.testing.assert_allclose(out.data, [[1.0], [0.0], [2.0]])

    def test_segment_mean_values(self):
        x = Tensor(np.array([[2.0], [4.0], [9.0]]))
        out = F.segment_mean(x, np.array([0, 0, 1]), 2)
        np.testing.assert_allclose(out.data, [[3.0], [9.0]])

    def test_segment_sum_after_in_place_id_mutation(self):
        """Each call scatters by the ids' current contents.

        Overwriting the same id buffer with different ids (dynamic-graph
        serving) must change the aggregation, never replay the old one.
        """
        x = Tensor(np.array([[1.0], [2.0], [3.0], [4.0]]))
        ids = np.array([0, 0, 1, 1])
        out = F.segment_sum(x, ids, 2)
        np.testing.assert_allclose(out.data, [[3.0], [7.0]])
        ids[:] = [1, 1, 0, 0]  # same buffer, new contents
        out = F.segment_sum(x, ids, 2)
        np.testing.assert_allclose(out.data, [[7.0], [3.0]])

    def test_segment_max_values_and_empty(self):
        x = Tensor(np.array([1.0, 5.0, 3.0]))
        out = F.segment_max(x, np.array([0, 0, 2]), 3, empty_value=-1.0)
        np.testing.assert_allclose(out.data, [5.0, -1.0, 3.0])

    def test_segment_softmax_normalises_per_segment(self, rng):
        x = Tensor(rng.normal(size=6))
        ids = np.array([0, 0, 0, 1, 1, 2])
        out = F.segment_softmax(x, ids, 3).data
        np.testing.assert_allclose(np.bincount(ids, weights=out), np.ones(3), atol=1e-9)

    def test_segment_sum_gradient(self, rng):
        x = Tensor(rng.normal(size=(5, 2)), requires_grad=True)
        ids = np.array([0, 1, 0, 2, 1])
        check_gradients(lambda: (F.segment_sum(x, ids, 3) ** 2).sum(), [x])

    def test_segment_mean_gradient(self, rng):
        x = Tensor(rng.normal(size=(5, 2)), requires_grad=True)
        ids = np.array([0, 1, 0, 2, 1])
        check_gradients(lambda: (F.segment_mean(x, ids, 4) ** 2).sum(), [x])

    def test_segment_max_gradient(self, rng):
        x = Tensor(rng.permutation(10).astype(float).reshape(5, 2), requires_grad=True)
        ids = np.array([0, 1, 0, 1, 1])
        check_gradients(lambda: (F.segment_max(x, ids, 2) ** 2).sum(), [x])

    def test_segment_softmax_gradient(self, rng):
        x = Tensor(rng.normal(size=6), requires_grad=True)
        ids = np.array([0, 0, 1, 1, 1, 2])
        coeffs = Tensor(rng.normal(size=6))
        check_gradients(lambda: (F.segment_softmax(x, ids, 3) * coeffs).sum(), [x])

    def test_segment_ids_accept_tensor(self):
        x = Tensor(np.ones((3, 1)))
        ids = Tensor(np.array([0, 1, 1]))
        out = F.segment_sum(x, ids, 2)
        np.testing.assert_allclose(out.data, [[1.0], [2.0]])


class TestDropout:
    def test_dropout_inactive_in_eval(self, rng):
        x = Tensor(np.ones((100,)))
        out = F.dropout(x, 0.5, training=False, rng=rng)
        np.testing.assert_allclose(out.data, x.data)

    def test_dropout_scales_survivors(self, rng):
        x = Tensor(np.ones((10000,)))
        out = F.dropout(x, 0.5, training=True, rng=rng).data
        survivors = out[out > 0]
        np.testing.assert_allclose(survivors, 2.0)
        assert 0.4 < (out > 0).mean() < 0.6

    def test_dropout_zero_probability_is_identity(self, rng):
        x = Tensor(np.ones(5))
        assert F.dropout(x, 0.0, training=True, rng=rng) is x
