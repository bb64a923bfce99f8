import numpy as np
import pytest

from memdiff import Mlp, ParamStore, make_schedule
from memdiff.denoiser import (ddim_sample, ddpm_sample, ddpm_step, denoise_rows,
                              denoise_rows_backward, sampling_steps, step_embedding)
from memdiff.errors import DataError
from memdiff.schedule import posterior_mean_var


class TestStepEmbedding:
    def test_deterministic(self):
        np.testing.assert_array_equal(step_embedding(3, 8), step_embedding(3, 8))

    def test_k_zero(self):
        emb = step_embedding(0, 6)
        np.testing.assert_array_equal(emb[:3], 0.0)
        np.testing.assert_array_equal(emb[3:], 1.0)

    def test_distinct_for_all_steps(self):
        embs = [step_embedding(k, 16) for k in range(1, 11)]
        for i in range(10):
            for j in range(i + 1, 10):
                assert not np.allclose(embs[i], embs[j]), (i + 1, j + 1)

    def test_odd_dim_rejected(self):
        with pytest.raises(DataError):
            step_embedding(1, 7)


def make_denoiser(horizon=4, embed_dim=6, seed=0):
    store = ParamStore()
    net = Mlp(store, "denoiser", [2 * horizon + embed_dim, 16, horizon], "silu",
              np.random.default_rng(seed))
    return store, net


def predict_rows(net, cond, embed_dim=6):
    """Sampler predict_fn over an (H, N) condition block: one denoise_rows pass on the
    channel rows, every row given step k's embedding."""
    def predict(y_k, k):
        emb = np.tile(step_embedding(k, embed_dim), (y_k.shape[1], 1))
        return denoise_rows(net, y_k.T, cond.T, emb)[0].T
    return predict


class TestDenoiseRows:
    def test_duplicated_channels_duplicated_predictions(self):
        _, net = make_denoiser()
        rng = np.random.default_rng(1)
        y_row = rng.standard_normal(4)
        c_row = rng.standard_normal(4)
        y_k = np.stack([y_row, y_row, rng.standard_normal(4)])
        c = np.stack([c_row, c_row, rng.standard_normal(4)])
        out, _ = denoise_rows(net, y_k, c, np.tile(step_embedding(2, 6), (3, 1)))
        np.testing.assert_array_equal(out[0], out[1])
        assert not np.allclose(out[0], out[2])

    def test_zero_final_layer_gives_bias(self):
        store, net = make_denoiser()
        store["denoiser/W1"].values[...] = 0.0
        out, _ = denoise_rows(net, np.ones((3, 4)), np.ones((3, 4)),
                              np.tile(step_embedding(1, 6), (3, 1)))
        for j in range(3):
            np.testing.assert_array_equal(out[j], store["denoiser/b1"].values)

    def test_backward_matches_finite_differences(self):
        store, net = make_denoiser(seed=3)
        rng = np.random.default_rng(4)
        y_rows = rng.standard_normal((5, 4))
        c_rows = rng.standard_normal((5, 4))
        e_rows = np.tile(step_embedding(2, 6), (5, 1))
        g = rng.standard_normal((5, 4))

        def loss():
            out, _ = denoise_rows(net, y_rows, c_rows, e_rows)
            return float(np.sum(out * g))

        store.zero_grads()
        _, trace = denoise_rows(net, y_rows, c_rows, e_rows)
        d_c = denoise_rows_backward(net, trace, g, 4)
        from memdiff import finite_diff_check
        assert finite_diff_check(loss, store, tolerance=1e-5, h=1e-6).passed
        d_y = net.backward(trace, g, slice(0, 4))   # training never forms the noisy rows' gradient
        h = 1e-6
        for r in range(2):
            for i in range(4):
                yp, ym = y_rows.copy(), y_rows.copy()
                yp[r, i] += h
                ym[r, i] -= h
                fd = (np.sum(denoise_rows(net, yp, c_rows, e_rows)[0] * g)
                      - np.sum(denoise_rows(net, ym, c_rows, e_rows)[0] * g)) / (2 * h)
                np.testing.assert_allclose(d_y[r, i], fd, rtol=1e-5, atol=1e-9)
                cp, cm = c_rows.copy(), c_rows.copy()
                cp[r, i] += h
                cm[r, i] -= h
                fd = (np.sum(denoise_rows(net, y_rows, cp, e_rows)[0] * g)
                      - np.sum(denoise_rows(net, y_rows, cm, e_rows)[0] * g)) / (2 * h)
                np.testing.assert_allclose(d_c[r, i], fd, rtol=1e-5, atol=1e-9)


class TestDdpmStep:
    def test_k1_returns_prediction_exactly(self):
        sched = make_schedule(5)
        rng = np.random.default_rng(5)
        y0_hat = rng.standard_normal((4, 2))
        out = ddpm_step(rng.standard_normal((4, 2)), 1, y0_hat, sched,
                        rng.standard_normal((4, 2)))
        np.testing.assert_allclose(out, y0_hat, atol=1e-14)

    def test_equal_inputs_coefficient_sum(self):
        sched = make_schedule(6)
        v = 1.7
        for k in range(1, 7):
            out = ddpm_step(np.full((2, 2), v), k, np.full((2, 2), v), sched, None)
            abar_prev = sched.alpha_bar_prev(k)
            coeff_sum = (np.sqrt(sched.alpha[k - 1]) * (1 - abar_prev)
                         + np.sqrt(abar_prev) * sched.beta[k - 1]) / (1 - sched.alpha_bar[k - 1])
            np.testing.assert_allclose(out, v * coeff_sum, rtol=1e-13)

    def test_zero_noise_equals_posterior_mean_all_k(self):
        # cross-module identity against the schedule's posterior algebra
        sched = make_schedule(10)
        rng = np.random.default_rng(6)
        y_k = rng.standard_normal((5, 3))
        y0_hat = rng.standard_normal((5, 3))
        for k in range(1, 11):
            stepped = ddpm_step(y_k, k, y0_hat, sched, None)
            mean, _ = posterior_mean_var(y0_hat, y_k, k, sched)
            np.testing.assert_allclose(stepped, mean, atol=1e-12)


class TestSamplers:
    def oracle_predict(self, truth):
        return lambda y_k, k: truth

    def test_sampling_steps(self):
        assert sampling_steps(10, 1) == (10,)
        assert sampling_steps(10, 10) == tuple(range(10, 0, -1))
        ks = sampling_steps(10, 4)
        assert ks[0] == 10 and ks[-1] == 1
        assert all(a > b for a, b in zip(ks, ks[1:]))
        for substeps in (-1, 0, 11):
            with pytest.raises(DataError, match=f"got {substeps}"):
                sampling_steps(10, substeps)

    def test_oracle_denoiser_single_jump_exact(self):
        sched = make_schedule(10)
        truth = np.random.default_rng(7).standard_normal((6, 3))
        out = ddim_sample(self.oracle_predict(truth), 6, 3, sched, 1,
                          np.random.default_rng(0))
        np.testing.assert_allclose(out, truth, atol=1e-12)

    def test_oracle_denoiser_full_schedule_exact(self):
        sched = make_schedule(10)
        truth = np.random.default_rng(8).standard_normal((6, 3))
        out = ddim_sample(self.oracle_predict(truth), 6, 3, sched, 10,
                          np.random.default_rng(1))
        np.testing.assert_allclose(out, truth, atol=1e-10)

    def test_fixed_seed_bit_identical(self):
        sched = make_schedule(10)
        _, net = make_denoiser(horizon=6, embed_dim=6, seed=9)
        predict = predict_rows(net, np.random.default_rng(10).standard_normal((6, 3)))
        a = ddim_sample(predict, 6, 3, sched, 3, np.random.default_rng(42))
        b = ddim_sample(predict, 6, 3, sched, 3, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_channel_permutation_equivariance(self):
        sched = make_schedule(10)
        _, net = make_denoiser(horizon=5, embed_dim=6, seed=11)
        c = np.random.default_rng(12).standard_normal((5, 4))
        perm = np.array([2, 0, 3, 1])
        base = ddim_sample(predict_rows(net, c), 5, 4, sched, 2, np.random.default_rng(13))
        permuted = ddim_sample(predict_rows(net, c[:, perm]), 5, 4, sched, 2,
                               np.random.default_rng(13))
        np.testing.assert_allclose(permuted, base[:, perm], atol=1e-12)

    def test_ancestral_sampler_with_oracle(self):
        sched = make_schedule(10)
        truth = np.random.default_rng(14).standard_normal((4, 2))
        out = ddpm_sample(self.oracle_predict(truth), 4, 2, sched,
                          np.random.default_rng(15))
        # final ancestral step collapses onto the prediction
        np.testing.assert_allclose(out, truth, atol=1e-12)
