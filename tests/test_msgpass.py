"""Fused message passing: operator parity, the per-batch plan, conv ports.

The contract (docs/ARCHITECTURE.md "Fused message passing"): the
:class:`~repro.autograd.functional.MessagePassOperator` collapses every
fixed-weight conv aggregate into one normalised-adjacency matmul that is
**bitwise** equal — forward and backward — to the eager
gather -> scale -> scatter chain it replaced (re-runnable on demand via
:func:`~repro.graph.segment.eager_message_pass`).  float32 and float64
get distinct operators, and the seed-flat block-diagonal operator matches
K per-seed applications bit for bit.  A batch's
:class:`~repro.graph.data.Topology` builds each operator once for all of
its layers and the backward, holds a read-only copy of its edges so it
cannot go stale, and frees its operators with the batch.
"""

import gc
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from encoder_specs import ENCODER_SPECS, STACKABLE_SPECS, spec_params
from repro.autograd import Tensor, functional as F, inference_mode
from repro.autograd.tensor import compute_dtype
from repro.encoders import build_model
from repro.encoders.conv import GINConv, SeedGINConv
from repro.graph import segment
from repro.graph.data import GraphBatch, Topology
from repro.graph.generators import erdos_renyi
from repro.graph.utils import SeedEdgeIndex
from repro.nn.layers import stack_seed_modules

NUM_NODES = 23


def _random_edges(num_nodes=NUM_NODES, num_edges=40, seed=3):
    """A messy directed multigraph: random endpoints plus duplicate edges."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, num_nodes, size=num_edges)
    dst = rng.integers(0, num_nodes, size=num_edges)
    edges = np.stack([src, dst])
    return np.concatenate([edges, edges[:, :5]], axis=1).astype(np.int64)


def _feature_batch(rng, count=4, feature_dim=5):
    graphs = []
    for _ in range(count):
        g = erdos_renyi(int(rng.integers(6, 12)), 0.5, rng)
        g.x = rng.normal(size=(g.num_nodes, feature_dim))
        graphs.append(g)
    return GraphBatch.from_graphs(graphs)


class TestOperatorParity:
    """Fused sparse matmul == eager three-pass chain, bitwise, fwd + bwd."""

    @pytest.mark.parametrize("norm", segment.NORM_KINDS)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
    def test_fused_matches_eager_forward_and_backward(self, norm, dtype):
        edges = _random_edges()
        results = {}
        with compute_dtype(dtype):
            for mode in ("fused", "eager"):
                rng = np.random.default_rng(5)
                x = Tensor(rng.normal(size=(NUM_NODES, 6)), requires_grad=True)
                upstream = Tensor(rng.normal(size=(NUM_NODES, 6)))
                operator = segment.message_pass_operator(
                    edges, NUM_NODES, norm=norm, dtype=x.data.dtype
                )
                if mode == "eager":
                    with segment.eager_message_pass():
                        assert not segment.fused_message_pass_enabled()
                        out = F.message_pass(operator, x)
                        (out * upstream).sum().backward()
                else:
                    assert segment.fused_message_pass_enabled()
                    out = F.message_pass(operator, x)
                    (out * upstream).sum().backward()
                assert out.data.dtype == np.dtype(dtype)
                results[mode] = (out.data, x.grad)
        np.testing.assert_array_equal(results["fused"][0], results["eager"][0])
        np.testing.assert_array_equal(results["fused"][1], results["eager"][1])

    def test_tape_free_matches_taped(self):
        edges = _random_edges(seed=8)
        operator = segment.message_pass_operator(edges, NUM_NODES, norm="gcn")
        x = Tensor(np.random.default_rng(0).normal(size=(NUM_NODES, 4)), requires_grad=True)
        taped = F.message_pass(operator, x)
        with inference_mode():
            tape_free = F.message_pass(operator, x)
        np.testing.assert_array_equal(taped.data, tape_free.data)
        assert taped._parents and not tape_free._parents

    def test_racing_first_backwards_agree(self):
        """Threads that all find the transpose unbuilt each build it; every
        adjoint must still equal the reference.  A transpose published one
        array at a time would let a thread read a half-built triple."""
        edges = _random_edges(seed=9)
        grad = np.random.default_rng(2).normal(size=(NUM_NODES, 3))
        expected = segment.message_pass_operator(edges, NUM_NODES, norm="gcn").t_matmul(grad)
        for _ in range(20):
            operator = segment.message_pass_operator(edges, NUM_NODES, norm="gcn")
            results = []
            start = threading.Barrier(6, timeout=10)

            def first_backward():
                start.wait()
                results.append(operator.t_matmul(grad))

            threads = [threading.Thread(target=first_backward) for _ in range(6)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert len(results) == len(threads)
            for result in results:
                np.testing.assert_array_equal(result, expected)

    @pytest.mark.parametrize("norm", segment.NORM_KINDS)
    def test_empty_graph(self, norm):
        empty = np.zeros((2, 0), dtype=np.int64)
        operator = segment.message_pass_operator(empty, 5, norm=norm)
        x = Tensor(np.random.default_rng(1).normal(size=(5, 3)), requires_grad=True)
        out = F.message_pass(operator, x)
        if norm == "gcn":
            # Self loops only, every degree is 1: the aggregate is exactly x.
            np.testing.assert_array_equal(out.data, x.data)
        else:
            np.testing.assert_array_equal(out.data, np.zeros((5, 3)))
        out.sum().backward()
        assert np.all(np.isfinite(x.grad))

    def test_rejects_wrong_row_count(self):
        operator = segment.message_pass_operator(_random_edges(), NUM_NODES, norm="sum")
        with pytest.raises(ValueError, match="input rows"):
            operator.matmul(np.zeros((NUM_NODES + 1, 2)))

    def test_rejects_unknown_norm(self):
        with pytest.raises(ValueError, match="norm kind"):
            segment.message_pass_operator(_random_edges(), NUM_NODES, norm="median")


class TestRosterFusedEagerParity:
    """Every ported conv (and its Seed* stack) is bitwise fused == eager."""

    @staticmethod
    def _forward_backward(build_model_fn, batch, mode):
        model = build_model_fn()
        if mode == "eager":
            with segment.eager_message_pass():
                logits = model(batch)
                upstream = Tensor(np.random.default_rng(1).normal(size=logits.shape))
                (logits * upstream).sum().backward()
        else:
            logits = model(batch)
            upstream = Tensor(np.random.default_rng(1).normal(size=logits.shape))
            (logits * upstream).sum().backward()
        grads = {
            name: p.grad.copy()
            for name, p in model.named_parameters()
            if p.grad is not None
        }
        return logits.data, grads

    def _assert_parity(self, build_model_fn, batch, label):
        fused_logits, fused_grads = self._forward_backward(build_model_fn, batch, "fused")
        eager_logits, eager_grads = self._forward_backward(build_model_fn, batch, "eager")
        np.testing.assert_array_equal(fused_logits, eager_logits, err_msg=label)
        assert fused_grads.keys() == eager_grads.keys()
        for name in fused_grads:
            np.testing.assert_array_equal(
                fused_grads[name], eager_grads[name], err_msg=f"{label} {name}"
            )

    @pytest.mark.parametrize("spec", spec_params(ENCODER_SPECS))
    def test_single_model(self, spec):
        batch = _feature_batch(np.random.default_rng(9))
        self._assert_parity(lambda: spec.factory(5, 3)(0), batch, spec.name)

    @pytest.mark.parametrize("spec", spec_params(STACKABLE_SPECS))
    def test_seed_stacked(self, spec):
        batch = _feature_batch(np.random.default_rng(10))
        self._assert_parity(
            lambda: stack_seed_modules([spec.factory(5, 3)(s) for s in (0, 1)]),
            batch,
            f"{spec.name} stacked",
        )


@st.composite
def _edges_and_nodes(draw):
    num_nodes = draw(st.integers(2, 8))
    num_edges = draw(st.integers(1, 12))
    endpoints = st.lists(
        st.integers(0, num_nodes - 1), min_size=num_edges, max_size=num_edges
    )
    edges = np.array([draw(endpoints), draw(endpoints)], dtype=np.int64)
    return edges, num_nodes


class TestOperatorCache:
    """The uncached builder that the per-batch plan memoises."""

    @settings(max_examples=25, deadline=None)
    @given(_edges_and_nodes(), st.sampled_from(segment.NORM_KINDS))
    def test_dtypes_get_distinct_operators(self, edges_nodes, norm):
        edges, num_nodes = edges_nodes
        op64 = segment.message_pass_operator(edges, num_nodes, norm=norm, dtype=np.float64)
        op32 = segment.message_pass_operator(edges, num_nodes, norm=norm, dtype=np.float32)
        assert op64 is not op32
        assert op64.dtype == np.float64 and op32.dtype == np.float32
        # The float32 weights are the one-time cast of the float64 ones —
        # exactly the per-forward cast the eager path used to apply.
        np.testing.assert_array_equal(op32.weights, op64.weights.astype(np.float32))

    @settings(max_examples=25, deadline=None)
    @given(_edges_and_nodes(), st.integers(1, 3), st.sampled_from(segment.NORM_KINDS))
    def test_seed_flat_matches_per_seed_bitwise(self, edges_nodes, num_seeds, norm):
        edges, num_nodes = edges_nodes
        x = np.random.default_rng(0).normal(size=(num_seeds, num_nodes, 4))
        flat_op = segment.message_pass_operator(edges, num_nodes, norm=norm, num_seeds=num_seeds)
        flat_out = flat_op.matmul(x.reshape(num_seeds * num_nodes, 4))
        single_op = segment.message_pass_operator(edges, num_nodes, norm=norm)
        for k in range(num_seeds):
            np.testing.assert_array_equal(
                flat_out.reshape(num_seeds, num_nodes, 4)[k], single_op.matmul(x[k])
            )
        # The SeedEdgeIndex disjoint-union path reproduces the tiled operator.
        seed_edges = SeedEdgeIndex.from_shared(edges, num_seeds, num_nodes)
        seed_op = seed_edges.operator(norm)
        np.testing.assert_array_equal(
            seed_op.matmul(x.reshape(num_seeds * num_nodes, 4)), flat_out
        )


class TestGINEmptyEdges:
    """Satellite regression: edge-free graphs get constant zeros, not a
    taped full-size multiply — forward and backward unchanged."""

    def test_forward_and_backward_match_manual_combine(self):
        num_nodes, feature_dim = 6, 4
        x_data = np.random.default_rng(2).normal(size=(num_nodes, feature_dim))
        empty = np.zeros((2, 0), dtype=np.int64)
        conv = GINConv(feature_dim, 3, np.random.default_rng(0))
        reference = GINConv(feature_dim, 3, np.random.default_rng(0))
        x_conv = Tensor(x_data.copy(), requires_grad=True)
        x_ref = Tensor(x_data.copy(), requires_grad=True)
        out = conv(x_conv, Topology(empty, num_nodes))
        # With nothing aggregated the combine collapses to (1 + eps) * x.
        expected = reference.mlp(x_ref * (reference.eps + 1.0))
        np.testing.assert_array_equal(out.data, expected.data)
        out.sum().backward()
        expected.sum().backward()
        np.testing.assert_array_equal(x_conv.grad, x_ref.grad)
        np.testing.assert_array_equal(conv.eps.grad, reference.eps.grad)

    def test_aggregate_is_untaped_constant(self):
        conv = GINConv(4, 3, np.random.default_rng(0))
        x = Tensor(np.random.default_rng(3).normal(size=(5, 4)), requires_grad=True)
        out = conv(x, Topology(np.zeros((2, 0), dtype=np.int64), 5))
        out.sum().backward()
        assert x.grad is not None and np.all(np.isfinite(x.grad))

    def test_seed_stacked_empty_edges(self):
        convs = [GINConv(4, 3, np.random.default_rng(s)) for s in (0, 1)]
        stacked = SeedGINConv.from_layers(convs)
        x = Tensor(np.random.default_rng(4).normal(size=(2, 5, 4)), requires_grad=True)
        out = stacked(x, Topology(np.zeros((2, 0), dtype=np.int64), 5))
        assert out.shape == (2, 5, 3)
        out.sum().backward()
        assert x.grad is not None and np.all(np.isfinite(x.grad))


class TestTopologyPlan:
    """One lazily filled operator plan per batch, freed with the batch."""

    @staticmethod
    def _count_builds(monkeypatch):
        builds = []
        init = F.MessagePassOperator.__init__

        def counting_init(self, *args, **kwargs):
            builds.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(F.MessagePassOperator, "__init__", counting_init)
        return builds

    @staticmethod
    def _gin(seed):
        return build_model("gin", 5, 3, np.random.default_rng(seed), hidden_dim=8, num_layers=3)

    @pytest.mark.parametrize("num_seeds", [1, 2], ids=["gin", "seed-stacked-k2"])
    def test_forward_and_backward_build_one_operator(self, monkeypatch, num_seeds):
        batch = _feature_batch(np.random.default_rng(12))
        models = [self._gin(seed) for seed in range(num_seeds)]
        model = models[0] if num_seeds == 1 else stack_seed_modules(models)
        builds = self._count_builds(monkeypatch)
        model(batch).sum().backward()
        assert len(builds) == 1
        assert builds[0] is batch.topology.operator("sum", np.float64, num_seeds)

    def test_operators_are_freed_with_the_batch(self):
        batch = _feature_batch(np.random.default_rng(13))
        model = self._gin(0)
        loss = model(batch).sum()
        loss.backward()
        indptr = weakref.ref(batch.topology.operator("sum").indptr)
        del batch, loss
        gc.collect()
        assert indptr() is None

    def test_transpose_is_built_by_the_first_backward(self):
        batch = _feature_batch(np.random.default_rng(15))
        model = self._gin(0)
        with inference_mode():
            model(batch)
        operator = batch.topology.operator("sum")
        assert operator.t_csr is None
        model(batch).sum().backward()
        assert operator.t_csr is not None

    def test_batch_edges_are_read_only(self):
        batch = _feature_batch(np.random.default_rng(14))
        with pytest.raises(ValueError):
            batch.edge_index[0, 0] = 0

    @settings(max_examples=25, deadline=None)
    @given(_edges_and_nodes(), st.sampled_from(segment.NORM_KINDS))
    def test_writing_the_source_array_never_reaches_the_plan(self, edges_nodes, norm):
        edges, num_nodes = edges_nodes
        original = edges.copy()
        queried_before = Topology(edges, num_nodes)
        first = queried_before.operator(norm)
        queried_after = Topology(edges, num_nodes)
        edges[0, 0] = (edges[0, 0] + 1) % num_nodes  # write to the source
        assert queried_before.operator(norm) is first
        fresh = segment.message_pass_operator(original, num_nodes, norm=norm)
        for operator in (first, queried_after.operator(norm)):
            np.testing.assert_array_equal(operator.src, fresh.src)
            np.testing.assert_array_equal(operator.dst, fresh.dst)
            np.testing.assert_array_equal(operator.weights, fresh.weights)
