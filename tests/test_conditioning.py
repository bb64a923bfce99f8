import numpy as np
import pytest

from memdiff import Mlp, ParamStore, SemanticMemory
from memdiff.conditioning import (condition_head, condition_head_backward, encode,
                                  future_mixup, init_condition_params, memory_prior,
                                  memory_prior_backward)
from memdiff.errors import DataError


def setup_params(d=4, horizon=3, seed=0):
    store = ParamStore()
    cp = init_condition_params(store, d, horizon, log_var_init=-4.0,
                               rng=np.random.default_rng(seed))
    return store, cp


class TestEncode:
    def make_encoder(self, lookback=6, d=4, seed=1):
        store = ParamStore()
        return store, Mlp(store, "encoder", [lookback, 5, d], "relu",
                          np.random.default_rng(seed))

    def test_identical_channels_identical_queries(self):
        _, enc = self.make_encoder()
        col = np.random.default_rng(2).standard_normal(6)
        x0 = np.stack([col, col, col], axis=1)
        h, _ = encode(enc, x0)
        np.testing.assert_array_equal(h[0], h[1])
        np.testing.assert_array_equal(h[0], h[2])

    def test_zero_weights_bias_image(self):
        store, enc = self.make_encoder()
        for p in store:
            if "/W" in p.id:
                p.values[...] = 0.0
        h, _ = encode(enc, np.random.default_rng(3).standard_normal((6, 2)))
        want = store["encoder/W1"].values @ np.maximum(store["encoder/b0"].values, 0.0) \
            + store["encoder/b1"].values
        np.testing.assert_allclose(h[0], want, atol=1e-14)
        np.testing.assert_array_equal(h[0], h[1])

    def test_permutation_equivariance(self):
        _, enc = self.make_encoder()
        x0 = np.random.default_rng(4).standard_normal((6, 5))
        perm = np.array([3, 0, 4, 1, 2])
        h, _ = encode(enc, x0)
        h_perm, _ = encode(enc, x0[:, perm])
        np.testing.assert_array_equal(h_perm, h[perm])

    def test_wrong_length_rejected(self):
        _, enc = self.make_encoder()
        with pytest.raises(DataError):
            encode(enc, np.zeros((7, 2)))


class TestMemoryPrior:
    def test_identity_map_empty_episodic_recovers_semantic(self):
        store, cp = setup_params(d=3)
        cp.w_prior.values[...] = np.eye(3)
        blocks = store.register("sem", np.random.default_rng(5).standard_normal((4, 3)))
        mem = SemanticMemory(blocks)
        h = np.random.default_rng(6).standard_normal((2, 3))
        m_s, _ = mem.recall(h)
        m, _ = memory_prior(cp, m_s, np.zeros_like(m_s))
        np.testing.assert_allclose(m, m_s, atol=1e-14)
        # deterministic limit: variance forced to zero
        cp.log_var_prior.values[...] = -1e6
        m2, _ = memory_prior(cp, m_s, np.zeros_like(m_s), eps=np.ones_like(m_s))
        np.testing.assert_allclose(m2, m_s, atol=1e-14)

    def test_inference_determinism(self):
        _, cp = setup_params()
        u = np.random.default_rng(7).standard_normal((3, 4))
        a, _ = memory_prior(cp, u, np.zeros_like(u))
        b, _ = memory_prior(cp, u, np.zeros_like(u))
        np.testing.assert_array_equal(a, b)

    def test_reparameterized_mean_monte_carlo(self):
        _, cp = setup_params(d=4, seed=8)
        u = np.random.default_rng(9).standard_normal((2, 4))
        mean, _ = memory_prior(cp, u, np.zeros_like(u))
        rng = np.random.default_rng(10)
        n = 10_000
        total = np.zeros_like(mean)
        for _ in range(n):
            m, _ = memory_prior(cp, u, np.zeros_like(u), eps=rng.standard_normal(u.shape))
            total += m
        sigma = np.exp(0.5 * cp.log_var_prior.values)
        se = sigma / np.sqrt(n)
        assert np.all(np.abs(total / n - mean) < 3 * se)

    def test_backward_matches_finite_differences(self):
        store, cp = setup_params(d=3, seed=11)
        rng = np.random.default_rng(12)
        u = rng.standard_normal((4, 3))
        eps = rng.standard_normal((4, 3))
        g = rng.standard_normal((4, 3))

        def loss():
            m, _ = memory_prior(cp, u, np.zeros_like(u), eps=eps)
            return float(np.sum(m * g))

        store.zero_grads()
        _, trace = memory_prior(cp, u, np.zeros_like(u), eps=eps)
        du = memory_prior_backward(cp, trace, g)
        from memdiff import finite_diff_check
        assert finite_diff_check(loss, store, tolerance=1e-6, h=1e-6).passed
        h = 1e-6
        for r in range(2):
            for i in range(3):
                up, um = u.copy(), u.copy()
                up[r, i] += h
                um[r, i] -= h
                fd = (np.sum(memory_prior(cp, up, np.zeros_like(u), eps)[0] * g)
                      - np.sum(memory_prior(cp, um, np.zeros_like(u), eps)[0] * g)) / (2 * h)
                np.testing.assert_allclose(du[r, i], fd, rtol=1e-6)


class TestConditionHead:
    def test_zero_projection_gives_bias(self):
        _, cp = setup_params(d=4, horizon=3)
        cp.proj.values[...] = 0.0
        m = np.random.default_rng(13).standard_normal((2, 4))
        h = np.random.default_rng(14).standard_normal((2, 4))
        c_rows, _ = condition_head(cp, m, h)
        np.testing.assert_array_equal(c_rows[0], cp.proj_bias.values)
        np.testing.assert_array_equal(c_rows[1], cp.proj_bias.values)

    def test_identical_channels_identical_columns(self):
        _, cp = setup_params()
        m = np.tile(np.random.default_rng(15).standard_normal(4), (2, 1))
        h = np.tile(np.random.default_rng(16).standard_normal(4), (2, 1))
        c_rows, _ = condition_head(cp, m, h)
        np.testing.assert_array_equal(c_rows[0], c_rows[1])

    def test_backward_matches_finite_differences(self):
        store, cp = setup_params(d=3, horizon=4, seed=17)
        rng = np.random.default_rng(18)
        m = rng.standard_normal((3, 3))
        h = rng.standard_normal((3, 3))
        eps = rng.standard_normal((3, 3))
        g = rng.standard_normal((3, 4))

        def loss():
            c_rows, _ = condition_head(cp, m, h, eps=eps)
            return float(np.sum(c_rows * g))

        store.zero_grads()
        _, trace = condition_head(cp, m, h, eps=eps)
        d_m, d_h = condition_head_backward(cp, trace, g)
        from memdiff import finite_diff_check
        assert finite_diff_check(loss, store, tolerance=1e-6, h=1e-6).passed
        step = 1e-6
        for r in range(2):
            for i in range(3):
                mp, mm = m.copy(), m.copy()
                mp[r, i] += step
                mm[r, i] -= step
                fd = (np.sum(condition_head(cp, mp, h, eps)[0] * g)
                      - np.sum(condition_head(cp, mm, h, eps)[0] * g)) / (2 * step)
                np.testing.assert_allclose(d_m[r, i], fd, rtol=1e-6)
                hp, hm = h.copy(), h.copy()
                hp[r, i] += step
                hm[r, i] -= step
                fd = (np.sum(condition_head(cp, m, hp, eps)[0] * g)
                      - np.sum(condition_head(cp, m, hm, eps)[0] * g)) / (2 * step)
                np.testing.assert_allclose(d_h[r, i], fd, rtol=1e-6)


class TestFutureMixup:
    def setup_method(self):
        rng = np.random.default_rng(19)
        self.c = rng.standard_normal((5, 3))
        self.y0 = rng.standard_normal((5, 3))

    def test_zero_mask_gives_target(self):
        c_mix = future_mixup(self.c, self.y0, np.zeros_like(self.c))
        np.testing.assert_array_equal(c_mix, self.y0)

    def test_near_one_mask_gives_condition(self):
        mask = np.full_like(self.c, 1.0 - 1e-12)
        c_mix = future_mixup(self.c, self.y0, mask)
        np.testing.assert_allclose(c_mix, self.c, atol=1e-10)

    def test_fixed_point_when_equal(self):
        mask = np.random.default_rng(20).uniform(size=self.c.shape)
        c_mix = future_mixup(self.c, self.c, mask)
        np.testing.assert_allclose(c_mix, self.c, atol=1e-15)

    def test_interval_hull_property(self):
        mask = np.random.default_rng(21).uniform(0.0, 1.0, size=self.c.shape)
        assert np.all(mask >= 0) and np.all(mask < 1)
        c_mix = future_mixup(self.c, self.y0, mask)
        lo = np.minimum(self.c, self.y0)
        hi = np.maximum(self.c, self.y0)
        assert np.all(c_mix >= lo - 1e-12) and np.all(c_mix <= hi + 1e-12)

    def test_missing_mask_rejected(self):
        # training always mixes, so the mask is a required argument
        with pytest.raises(TypeError):
            future_mixup(self.c, self.y0)

    def test_misshapen_mask_or_target_rejected(self):
        with pytest.raises(DataError):
            future_mixup(self.c, self.y0, np.zeros((5, 2)))
        with pytest.raises(DataError):
            future_mixup(self.c, self.y0[:4], np.zeros_like(self.c))
