import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memdiff import ParamStore, SemanticMemory, finite_diff_check
from memdiff.attention import WEIGHT_EPS, clamp_normalize, cosine, l2_norms, top_k, ungroup_rows
from memdiff.errors import NumericError


def make_memory(n_blocks, dim, seed=0, groups=1):
    store = ParamStore()
    blocks = store.register("semantic/blocks", np.random.default_rng(seed).standard_normal(
        (groups * n_blocks, dim)))
    return store, SemanticMemory(blocks, groups)


def cosine_of(block, query):
    """attention.cosine of one query row against a one-key group."""
    keys = np.asarray(block, dtype=np.float64)[None, None]
    return cosine(np.asarray(query, dtype=np.float64)[None], keys, l2_norms(keys))[1].item()


class TestCosineScore:
    def test_self_similarity(self):
        v = np.array([0.3, -2.0, 1.1])
        assert cosine_of(v, v) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine_of(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_opposite(self):
        assert cosine_of(np.array([1.0, 0.0]), np.array([-1.0, 0.0])) == -1.0

    def test_zero_norm_errors(self):
        with pytest.raises(NumericError):
            cosine_of(np.zeros(2), np.array([1.0, 0.0]))
        with pytest.raises(NumericError):
            cosine_of(np.array([1.0, 0.0]), np.zeros(2))


class TestRecall:
    def test_single_block_returned_exactly(self):
        store, mem = make_memory(1, 4)
        q = np.array([[5.0, 1.0, -2.0, 0.5]])
        out, _ = mem.recall(q)
        np.testing.assert_allclose(out[0], store["semantic/blocks"].values[0], atol=1e-12)

    def test_parallel_query_dominates(self):
        store, mem = make_memory(2, 2)
        store["semantic/blocks"].values[...] = np.array([[2.0, 0.0], [0.0, 3.0]])
        out, trace = mem.recall(np.array([[1.0, 0.0]]))
        # scores are (1, 0): clamp+eps weights are (1+eps, eps)/(1+2eps)
        want_w = np.array([1.0 + WEIGHT_EPS, WEIGHT_EPS]) / (1.0 + 2 * WEIGHT_EPS)
        np.testing.assert_allclose(trace.weights[0], want_w, rtol=1e-12)
        np.testing.assert_allclose(out[0], want_w @ store["semantic/blocks"].values, rtol=1e-12)

    def test_weights_sum_to_one(self):
        _, mem = make_memory(6, 5, seed=2)
        q = np.random.default_rng(3).standard_normal((40, 5))
        _, trace = mem.recall(q)
        np.testing.assert_allclose(trace.weights.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(trace.weights >= 0)

    def test_all_negative_scores_uniform_weights(self):
        store, mem = make_memory(3, 2)
        store["semantic/blocks"].values[...] = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        _, trace = mem.recall(np.array([[-1.0, -1.0]]))
        np.testing.assert_allclose(trace.weights[0], np.ones(3) / 3.0)

    def test_identical_channels_identical_memories(self):
        _, mem = make_memory(5, 3, seed=4)
        q = np.random.default_rng(5).standard_normal(3)
        out, _ = mem.recall(np.stack([q, q]))
        np.testing.assert_array_equal(out[0], out[1])

    def test_recall_gradient_matches_finite_differences(self):
        # groups = 3 reads per-channel blocks; the first groups + 1 rows cover every group
        for groups in (1, 3):
            store, mem = make_memory(4, 3, seed=6, groups=groups)
            rng = np.random.default_rng(7)
            q = rng.standard_normal((5 * groups, 3))
            g = rng.standard_normal((5 * groups, 3))

            def loss():
                out, _ = mem.recall(q)
                return float(np.sum(out * g))

            store.zero_grads()
            _, trace = mem.recall(q)
            dq = mem.recall_backward(trace, g)
            report = finite_diff_check(loss, store, tolerance=1e-6, h=1e-6)
            assert report.passed, (groups, report.max_rel_error)
            # query gradient against finite differences
            h = 1e-6
            for r in range(groups + 1):
                for i in range(3):
                    qp, qm = q.copy(), q.copy()
                    qp[r, i] += h
                    qm[r, i] -= h
                    fd = (np.sum(mem.recall(qp)[0] * g)
                          - np.sum(mem.recall(qm)[0] * g)) / (2 * h)
                    np.testing.assert_allclose(dq[r, i], fd, rtol=1e-5, atol=1e-9)


class TestLosses:
    def test_exact_match_contributes_zero(self):
        store, mem = make_memory(2, 2)
        store["semantic/blocks"].values[...] = np.array([[1.0, 0.0], [0.0, 10.0]])
        q = np.array([[1.0, 0.0]])
        l1, l2, _ = mem.losses(mem.recall(q)[1], margin=1.0)
        assert l1 == 0.0
        # second block is far: hinge = 0 - |q - b2|^2 + 1 < 0
        assert l2 == 0.0

    def test_hand_arithmetic_two_blocks(self):
        store, mem = make_memory(2, 2)
        store["semantic/blocks"].values[...] = np.array([[1.0, 0.0], [0.0, 1.0]])
        l1, l2, _ = mem.losses(mem.recall(np.array([[1.0, 0.0]]))[1], margin=1.0)
        assert l1 == 0.0
        assert l2 == max(0.0 - 2.0 + 1.0, 0.0) == 0.0

    def test_tie_with_zero_margin(self):
        store, mem = make_memory(2, 2)
        store["semantic/blocks"].values[...] = np.array([[1.0, 1.0], [1.0, 1.0]])
        l1, l2, _ = mem.losses(mem.recall(np.array([[2.0, 2.0]]))[1], margin=0.0)
        assert l2 == 0.0

    def test_single_block_no_contrastive(self):
        _, mem = make_memory(1, 3, seed=8)
        l1, l2, _ = mem.losses(mem.recall(np.ones((2, 3)))[1], margin=1.0)
        assert l2 == 0.0
        assert l1 >= 0.0

    def test_monotone_in_margin(self):
        _, mem = make_memory(5, 4, seed=9)
        q = np.random.default_rng(10).standard_normal((8, 4))
        values = [mem.losses(mem.recall(q)[1], margin=m)[1] for m in (0.0, 0.5, 1.0, 2.0)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_nearest_tiebreak_lowest_index(self):
        store, mem = make_memory(3, 2)
        store["semantic/blocks"].values[...] = np.array([[2.0, 0.0], [4.0, 0.0], [0.0, 1.0]])
        # blocks 0 and 1 have identical cosine score 1.0 for this query
        _, _, trace = mem.losses(mem.recall(np.array([[1.0, 0.0]]))[1], margin=0.5)
        assert trace.nearest[0] == 0
        assert trace.second[0] == 1

    @pytest.mark.parametrize("seed", range(4))
    def test_top2_matches_stable_sort_with_ties(self, seed):
        rng = np.random.default_rng(seed)
        store, mem = make_memory(6, 3, seed=seed)
        blocks = rng.integers(-2, 3, (6, 3)).astype(float)
        blocks[rng.integers(0, 6, 3)] = blocks[0]          # duplicate blocks tie exactly
        blocks[np.all(blocks == 0, axis=1)] = 1.0
        store["semantic/blocks"].values[...] = blocks
        q = rng.integers(-2, 3, (40, 3)).astype(float)
        q[np.all(q == 0, axis=1)] = 1.0
        order = np.argsort(-mem.scores(q), axis=1, kind="stable")
        _, _, trace = mem.losses(mem.recall(q)[1], margin=0.5)
        np.testing.assert_array_equal(trace.nearest, order[:, 0])
        np.testing.assert_array_equal(trace.second, order[:, 1])

    def test_loss_gradients_match_finite_differences(self):
        store, mem = make_memory(4, 3, seed=11)
        q = np.random.default_rng(12).standard_normal((6, 3))
        c1, c2 = 0.7, 0.4

        def loss():
            l1, l2, _ = mem.losses(mem.recall(q)[1], margin=0.8)
            return c1 * l1 + c2 * l2

        store.zero_grads()
        _, _, trace = mem.losses(mem.recall(q)[1], margin=0.8)
        dq = mem.losses_backward(trace, c1, c2)
        report = finite_diff_check(loss, store, tolerance=1e-5, h=1e-6)
        assert report.passed, report.max_rel_error
        h = 1e-6
        for r in range(2):
            for i in range(3):
                qp, qm = q.copy(), q.copy()
                qp[r, i] += h
                qm[r, i] -= h
                lp = mem.losses(mem.recall(qp)[1], 0.8)
                lm = mem.losses(mem.recall(qm)[1], 0.8)
                fd = (c1 * (lp[0] - lm[0]) + c2 * (lp[1] - lm[1])) / (2 * h)
                np.testing.assert_allclose(dq[r, i], fd, rtol=1e-5, atol=1e-8)

    @pytest.mark.parametrize("groups", [1, 3])
    @pytest.mark.parametrize("c2", [0.0, 0.4])
    def test_backward_matches_row_wise_scatter_adds(self, groups, c2):
        # the row-wise losses_backward: three 2-D np.add.at, nearest*c1, nearest*c2, second*c2
        store, mem = make_memory(3, 4, seed=21, groups=groups)
        rng = np.random.default_rng(22)
        q = rng.standard_normal((8 * groups, 4))
        q[4 * groups:] = q[:4 * groups]          # every picked row repeats
        _, _, trace = mem.losses(mem.recall(q)[1], margin=10.0)
        assert trace.hinge_active.any() and not trace.hinge_active.all()
        start = rng.standard_normal(store["semantic/blocks"].grad.shape)
        store["semantic/blocks"].grad[...] = start
        c1 = 0.7
        dq = mem.losses_backward(trace, c1, c2)

        want_grad, d1, d2 = start.copy(), trace.d1, trace.d2
        want_dq = 2.0 * c1 * d1
        np.add.at(want_grad, trace.nearest, -2.0 * c1 * d1)
        if c2 != 0.0:
            act = trace.hinge_active.astype(d1.dtype)[:, None]
            want_dq += 2.0 * c2 * act * (d1 - d2)
            np.add.at(want_grad, trace.nearest, -2.0 * c2 * act * d1)
            np.add.at(want_grad, trace.second, 2.0 * c2 * act * d2)
        np.testing.assert_array_equal(store["semantic/blocks"].grad, want_grad)
        np.testing.assert_array_equal(dq, ungroup_rows(mem._split(want_dq)))


class TestUpdateDynamics:
    def test_one_adam_step_moves_nearest_block(self):
        # gradient must reach the blocks through both recall and the losses
        from memdiff import Adam
        store, mem = make_memory(3, 4, seed=13)
        before = store["semantic/blocks"].values.copy()
        q = np.random.default_rng(14).standard_normal((1, 4))
        store.zero_grads()
        out, trace = mem.recall(q)
        mem.recall_backward(trace, np.ones_like(out))
        _, _, ltrace = mem.losses(trace, margin=1.0)
        mem.losses_backward(ltrace, 1.0, 1.0)
        Adam(store, lr=0.01).step()
        nearest = ltrace.nearest[0]
        assert not np.allclose(store["semantic/blocks"].values[nearest], before[nearest])

    def test_rejitter_restores_norm(self):
        store, mem = make_memory(3, 4, seed=15)
        store["semantic/blocks"].values[1] = 1e-12
        mem.rejitter(np.random.default_rng(16))
        norms = np.linalg.norm(store["semantic/blocks"].values, axis=1)
        assert np.all(norms > 1e-8)


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=2, max_value=6),
       st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_weights_convex_combination_property(n_blocks, dim, seed):
    rng = np.random.default_rng(seed)
    scores = rng.uniform(-1.0, 1.0, size=(4, n_blocks))
    weights, _ = clamp_normalize(scores)
    assert np.all(weights >= 0)
    np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-6)


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 6), cols=st.integers(1, 9), seed=st.integers(0, 2**31 - 1))
def test_top_k_picks_what_the_stable_sort_picks(rows, cols, seed):
    rng = np.random.default_rng(seed)
    scores = rng.integers(-3, 4, (rows, cols)) / 3.0     # few levels: many ties
    scores[rng.random(rows) < 0.2] = np.nan                # whole-NaN rows
    for k in range(1, cols + 1):
        want = np.argsort(-scores, axis=1, kind="stable")[:, :k]
        idx, vals = top_k(scores.copy(), k)
        np.testing.assert_array_equal(idx, want)
        np.testing.assert_array_equal(vals, np.take_along_axis(scores, want, axis=1))


def test_top_k_leaves_its_scores_unchanged():
    scores = np.random.default_rng(3).standard_normal((5, 7))
    seen = scores.copy()
    top_k(scores, 4)
    np.testing.assert_array_equal(scores, seen)


class TestGroupParity:
    """n groups in one memory against n single-group memories, array for array."""

    @pytest.mark.parametrize("n,n1,dim,seed", [(3, 4, 3, 0), (4, 1, 2, 1), (2, 5, 4, 2)])
    def test_random_operation_sequence(self, n, n1, dim, seed):
        rng = np.random.default_rng(seed)

        def ints(shape):
            # few levels and duplicate rows: scores tie exactly
            out = rng.integers(-2, 3, shape).astype(float)
            out[np.all(out == 0, axis=1)] = 1.0
            return out

        blocks = ints((n * n1, dim))
        blocks[rng.integers(0, n * n1, n)] = blocks[0]
        store = ParamStore()
        grouped = SemanticMemory(store.register("semantic/blocks", blocks.copy()), groups=n)
        stores = [ParamStore() for _ in range(n)]
        singles = [SemanticMemory(s.register("b", blocks[j * n1:(j + 1) * n1].copy()))
                   for j, s in enumerate(stores)]
        for _ in range(30):
            q = ints((n * int(rng.integers(1, 5)), dim))
            up = rng.standard_normal(q.shape)
            c1, c2, margin = rng.random(3)
            for s in (store, *stores):
                s.zero_grads()
            out, trace = grouped.recall(q)
            l1, l2, ltrace = grouped.losses(trace, margin)
            dq_recall = grouped.recall_backward(trace, up)
            dq_losses = grouped.losses_backward(ltrace, c1, c2)
            sums = np.zeros(2)
            for j, single in enumerate(singles):
                rows = slice(j, None, n)
                s_out, s_trace = single.recall(q[rows])
                s_l1, s_l2, s_ltrace = single.losses(s_trace, margin)
                np.testing.assert_array_equal(out[rows], s_out)
                np.testing.assert_array_equal(dq_recall[rows],
                                              single.recall_backward(s_trace, up[rows]))
                np.testing.assert_array_equal(dq_losses[rows],
                                              single.losses_backward(s_ltrace, c1, c2))
                np.testing.assert_array_equal(grouped.blocks.grad[j * n1:(j + 1) * n1],
                                              single.blocks.grad)
                np.testing.assert_array_equal(ltrace.nearest.reshape(n, -1)[j] - j * n1,
                                              s_ltrace.nearest)
                if n1 > 1:
                    np.testing.assert_array_equal(ltrace.second.reshape(n, -1)[j] - j * n1,
                                                  s_ltrace.second)
                np.testing.assert_array_equal(grouped.scores(q)[rows], single.scores(q[rows]))
                sums += (s_l1, s_l2)
            # one sum over every row where the singles summed per group
            np.testing.assert_allclose((l1, l2), sums, rtol=1e-12)
            # collapse random blocks; one rejitter draw equals the singles' draws in turn
            dead = rng.random(n * n1) < 0.2
            grouped.blocks.values[dead] = 1e-12
            for j, single in enumerate(singles):
                single.blocks.values[dead[j * n1:(j + 1) * n1]] = 1e-12
            draw_seed = int(rng.integers(2 ** 31))
            grouped.rejitter(np.random.default_rng(draw_seed))
            draws = np.random.default_rng(draw_seed)
            for single in singles:
                single.rejitter(draws)
            np.testing.assert_array_equal(grouped.blocks.values,
                                          np.concatenate([s.blocks.values for s in singles]))
