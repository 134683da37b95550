"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.autograd import Tensor
from repro.autograd import functional as F
from repro.core.decorrelation import SampleWeightLearner, learn_many, project_weights
from repro.core.fused import SeedFusedDecorrelation
from repro.core.rff import RandomFourierFeatures
from repro.core.hsic import block_offdiagonal_mask, pairwise_decorrelation_loss
from repro.graph.utils import undirected_edge_index, coalesce_edges, is_undirected, degrees, count_triangles
from repro.training.metrics import roc_auc

finite_floats = st.floats(min_value=-100, max_value=100, allow_nan=False)


class TestSegmentProperties:
    @given(
        data=arrays(np.float64, shape=st.tuples(st.integers(1, 20), st.integers(1, 4)), elements=finite_floats),
        num_segments=st.integers(1, 5),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_segment_sum_conserves_mass(self, data, num_segments, seed):
        """Total mass is preserved: sum of segment sums == sum of input."""
        rng = np.random.default_rng(seed)
        ids = rng.integers(0, num_segments, size=data.shape[0])
        out = F.segment_sum(Tensor(data), ids, num_segments).data
        np.testing.assert_allclose(out.sum(), data.sum(), atol=1e-8 * max(1, abs(data).sum()))

    @given(
        data=arrays(np.float64, shape=st.tuples(st.integers(1, 20), st.integers(1, 3)), elements=finite_floats),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_segment_max_bounded_by_global_max(self, data, seed):
        rng = np.random.default_rng(seed)
        ids = rng.integers(0, 3, size=data.shape[0])
        out = F.segment_max(Tensor(data), ids, 3, empty_value=data.min()).data
        assert out.max() <= data.max() + 1e-12

    @given(
        data=arrays(np.float64, shape=st.tuples(st.integers(2, 16),), elements=finite_floats),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_segment_softmax_is_distribution_per_segment(self, data, seed):
        rng = np.random.default_rng(seed)
        ids = rng.integers(0, 3, size=data.shape[0])
        out = F.segment_softmax(Tensor(data), ids, 3).data
        sums = np.bincount(ids, weights=out, minlength=3)
        present = np.bincount(ids, minlength=3) > 0
        np.testing.assert_allclose(sums[present], 1.0, atol=1e-6)


class TestWeightProjectionProperties:
    @given(
        weights=arrays(np.float64, shape=st.integers(2, 50), elements=finite_floats),
    )
    @settings(max_examples=60, deadline=None)
    def test_projection_invariants(self, weights):
        out = project_weights(weights)
        assert (out >= 0).all()
        np.testing.assert_allclose(out.mean(), 1.0, atol=1e-9)
        # Idempotence.
        np.testing.assert_allclose(project_weights(out), out, atol=1e-9)

    @given(
        weights=arrays(
            np.float64, shape=st.integers(2, 30), elements=st.floats(0.01, 100, allow_nan=False)
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_projection_never_inverts_order(self, weights):
        # Monotone, not strictly order-preserving: the rescale can collapse
        # ULP-close inputs into exact ties (multiplying by one positive
        # scalar is IEEE-monotone but not injective), which legitimately
        # perturbs a stable argsort's tie-breaking — inversions, however,
        # can never happen.
        out = project_weights(weights)
        order = np.argsort(weights, kind="stable")
        assert (np.diff(out[order]) >= 0).all()

    @given(
        weights=arrays(
            np.float64, shape=st.integers(2, 30), elements=st.floats(0.0, 100, allow_nan=False)
        ),
        ceiling=st.floats(1.0, 50.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_ceiling_respected(self, weights, ceiling):
        """The cap holds after the rescale, also when the clipped mass is
        below n and the rescale grows every weight."""
        out = project_weights(weights, ceiling=ceiling)
        assert out.max() <= ceiling + 1e-9
        np.testing.assert_allclose(out.mean(), 1.0, atol=1e-9)
        # Idempotent under the same ceiling once the constraint set is hit.
        np.testing.assert_allclose(project_weights(out, ceiling=ceiling), out, atol=1e-9)

    @given(
        weights=arrays(
            np.float64, shape=st.integers(2, 30), elements=st.floats(-100, 0.0, allow_nan=False)
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_degenerate_input_resets_to_uniform(self, weights):
        """All-nonpositive weights clip to zero mass and reset to uniform."""
        np.testing.assert_allclose(project_weights(weights), 1.0)


class TestDecorrelationProperties:
    @given(
        n=st.integers(4, 30), d=st.integers(2, 5), q=st.integers(1, 3), seed=st.integers(0, 10_000)
    )
    @settings(max_examples=30, deadline=None)
    def test_loss_nonnegative(self, n, d, q, seed):
        rng = np.random.default_rng(seed)
        feats = rng.normal(size=(n, d, q))
        loss = float(pairwise_decorrelation_loss(feats, Tensor(np.ones(n))).data)
        assert loss >= 0.0

    @given(d=st.integers(2, 6), q=st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_mask_symmetric_zero_diag_blocks(self, d, q):
        mask = block_offdiagonal_mask(d, q)
        np.testing.assert_array_equal(mask, mask.T)
        for i in range(d):
            block = mask[i * q : (i + 1) * q, i * q : (i + 1) * q]
            np.testing.assert_array_equal(block, 0.0)


class TestFusedParityProperties:
    """The closed-form engine tracks the taped loss over random instances."""

    @given(
        n=st.integers(4, 24), d=st.integers(2, 5), q=st.integers(1, 3), seed=st.integers(0, 10_000)
    )
    @settings(max_examples=25, deadline=None)
    def test_fused_loss_and_grad_match_tape(self, n, d, q, seed):
        """At K = 1, the single-seed case ``learn`` runs."""
        rng = np.random.default_rng(seed)
        feats = rng.normal(size=(n, d, q))
        w = Tensor(rng.uniform(0.2, 2.0, size=n), requires_grad=True)
        ref = pairwise_decorrelation_loss(feats, w)
        ref.backward()
        for mode in ("primal", "dual"):
            loss, grad = SeedFusedDecorrelation(feats[None], mode=mode).loss_and_grad(w.data[None])
            np.testing.assert_allclose(loss[0], float(ref.data), atol=1e-8)
            np.testing.assert_allclose(grad[0], w.grad, atol=1e-8)


class TestSeedStackProperties:
    """Seed k of a K-stack gives the bytes of its own K = 1 run."""

    @given(
        k=st.integers(2, 5),
        n=st.integers(3, 24),
        d=st.integers(2, 5),
        q=st.integers(1, 3),
        mode=st.sampled_from(["primal", "dual", "auto"]),
        n_fixed=st.integers(0, 12),
        constant=st.lists(st.booleans(), min_size=5, max_size=5),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_stack_seed_equals_k1_run(self, k, n, d, q, mode, n_fixed, constant, seed):
        rng = np.random.default_rng(seed)
        n_fixed = min(n_fixed, n - 1)
        constant = np.array(constant[:k])
        # The engine, in the drawn mode, on features with constant-row seeds.
        feats = rng.normal(size=(k, n, d, q))
        feats[constant] = feats[constant][:, :1]
        w = rng.uniform(0.2, 2.0, size=(k, n))
        loss, grad = SeedFusedDecorrelation(feats, mode=mode).loss_and_grad(w)
        for i in range(k):
            ref_loss, ref_grad = SeedFusedDecorrelation(feats[i:i + 1], mode=mode).loss_and_grad(w[i:i + 1])
            assert loss[i] == ref_loss[0]
            np.testing.assert_array_equal(grad[i], ref_grad[0])
        # The whole inner loop, with fixed global rows on top.
        reps = rng.normal(size=(k, n, d))
        reps[constant] = 1.0
        fixed = rng.uniform(0.5, 1.5, size=(k, n_fixed)) if n_fixed else None

        def learner(i):
            rff = RandomFourierFeatures(num_functions=q, rng=np.random.default_rng(seed + i))
            return SampleWeightLearner(rff, epochs=3, lr=0.1, l2_penalty=0.05)

        stacked = learn_many([learner(i) for i in range(k)], reps, fixed_weights=fixed)
        for i, result in enumerate(stacked):
            single = learner(i).learn(reps[i], fixed_weights=None if fixed is None else fixed[i])
            assert result.initial_loss == single.initial_loss
            assert result.losses == single.losses
            np.testing.assert_array_equal(result.weights, single.weights)


class TestGraphProperties:
    @given(
        pairs=st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=0, max_size=30
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_undirected_edge_index_always_symmetric(self, pairs):
        pairs = [(u, v) for u, v in pairs if u != v]
        edges = undirected_edge_index(pairs)
        assert is_undirected(edges)
        assert edges.shape[1] == 2 * len(pairs)

    @given(
        pairs=st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=30
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_coalesce_idempotent_and_loop_free(self, pairs):
        edges = np.asarray(pairs, dtype=np.int64).T
        once = coalesce_edges(edges)
        twice = coalesce_edges(once)
        np.testing.assert_array_equal(once, twice)
        if once.size:
            assert (once[0] != once[1]).all()

    @given(seed=st.integers(0, 10_000), n=st.integers(3, 15))
    @settings(max_examples=30, deadline=None)
    def test_degree_sum_equals_edge_count(self, seed, n):
        rng = np.random.default_rng(seed)
        mask = np.triu(rng.random((n, n)) < 0.4, k=1)
        src, dst = np.nonzero(mask)
        edges = undirected_edge_index(list(zip(src.tolist(), dst.tolist())))
        assert degrees(edges, n).sum() == edges.shape[1]

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_triangle_count_matches_networkx(self, seed):
        import networkx as nx

        g = nx.gnp_random_graph(10, 0.4, seed=seed)
        from repro.graph.utils import from_networkx

        graph = from_networkx(g)
        assert count_triangles(graph.edge_index, 10) == sum(nx.triangles(g).values()) // 3


class TestMetricProperties:
    @given(seed=st.integers(0, 10_000), n=st.integers(4, 60))
    @settings(max_examples=40, deadline=None)
    def test_auc_complement_symmetry(self, seed, n):
        """Flipping labels maps AUC to 1 - AUC."""
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=n)
        labels = rng.integers(0, 2, size=n)
        if len(np.unique(labels)) < 2:
            labels[0], labels[1] = 0, 1
        auc = roc_auc(scores, labels)
        flipped = roc_auc(scores, 1 - labels)
        assert auc == round(1.0 - flipped, 12) or abs(auc + flipped - 1.0) < 1e-9

    @given(seed=st.integers(0, 10_000), shift=st.floats(0.1, 5.0))
    @settings(max_examples=30, deadline=None)
    def test_auc_monotone_invariance(self, seed, shift):
        """AUC is invariant to strictly monotone score transforms."""
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=30)
        labels = rng.integers(0, 2, size=30)
        if len(np.unique(labels)) < 2:
            labels[0], labels[1] = 0, 1
        a = roc_auc(scores, labels)
        b = roc_auc(np.exp(shift * scores), labels)
        assert a == round(b, 12) or abs(a - b) < 1e-9


class TestSeedAttentionPrimitiveProperties:
    """Seed-batched attention primitives vs K sequential runs — bitwise.

    The seed-stacked GAT path (repro.encoders.attention.SeedGATConv) is
    built from seed_gather / seed_segment_max / seed_segment_softmax; its
    bitwise-parity contract reduces to these primitives matching their
    per-seed counterparts exactly, including the awkward regimes: empty
    edge sets, single-node (singleton) segments, hugely negative logits
    and the K=1 degenerate stack.
    """

    # Attention logits after leaky_relu can be arbitrarily negative; the
    # shifted-exp softmax must stay exact (and finite) down to -1e30.
    logit_floats = st.floats(min_value=-1e30, max_value=100, allow_nan=False)

    @given(
        num_seeds=st.integers(1, 4),
        num_elements=st.integers(0, 20),
        num_segments=st.integers(1, 25),
        seed=st.integers(0, 10_000),
        low=logit_floats,
    )
    @settings(max_examples=60, deadline=None)
    def test_seed_segment_softmax_matches_sequential_bitwise(
        self, num_seeds, num_elements, num_segments, seed, low
    ):
        rng = np.random.default_rng(seed)
        ids = np.sort(rng.integers(0, num_segments, size=num_elements))
        data = rng.normal(size=(num_seeds, num_elements))
        if num_elements:
            data[rng.integers(0, num_seeds), rng.integers(0, num_elements)] = low
        out = F.seed_segment_softmax(Tensor(data), ids, num_segments).data
        assert np.isfinite(out).all()
        for k in range(num_seeds):
            ref = F.segment_softmax(Tensor(data[k]), ids, num_segments).data
            np.testing.assert_array_equal(out[k], ref, err_msg=f"seed {k}")

    @given(
        num_seeds=st.integers(1, 4),
        num_elements=st.integers(0, 20),
        num_segments=st.integers(1, 25),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_seed_segment_max_matches_sequential_bitwise(
        self, num_seeds, num_elements, num_segments, seed
    ):
        rng = np.random.default_rng(seed)
        ids = np.sort(rng.integers(0, num_segments, size=num_elements))
        data = rng.normal(size=(num_seeds, num_elements)) * 10.0
        out = F.seed_segment_max(Tensor(data), ids, num_segments, empty_value=-1.5).data
        for k in range(num_seeds):
            ref = F.segment_max(Tensor(data[k]), ids, num_segments, empty_value=-1.5).data
            np.testing.assert_array_equal(out[k], ref, err_msg=f"seed {k}")

    @given(
        num_seeds=st.integers(1, 4),
        num_rows=st.integers(1, 12),
        num_gathered=st.integers(0, 20),
        per_seed_index=st.booleans(),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_seed_gather_matches_sequential_bitwise(
        self, num_seeds, num_rows, num_gathered, per_seed_index, seed
    ):
        """Shared (m,) and per-seed (K, m) gathers both equal x[k][index_k],
        forward and backward."""
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(num_seeds, num_rows, 3))
        if per_seed_index:
            index = rng.integers(0, num_rows, size=(num_seeds, num_gathered))
        else:
            index = rng.integers(0, num_rows, size=num_gathered)
        x = Tensor(data, requires_grad=True)
        out = F.seed_gather(x, index)
        upstream = rng.normal(size=out.shape)
        out.backward(upstream)
        for k in range(num_seeds):
            index_k = index[k] if per_seed_index else index
            ref = Tensor(data[k], requires_grad=True)
            gathered = ref[index_k] if num_gathered else ref * 0.0
            np.testing.assert_array_equal(
                out.data[k], data[k][index_k], err_msg=f"seed {k} forward"
            )
            if num_gathered:
                gathered.backward(upstream[k])
                np.testing.assert_array_equal(x.grad[k], ref.grad, err_msg=f"seed {k} grad")
            else:
                np.testing.assert_array_equal(x.grad[k], np.zeros_like(data[k]))
