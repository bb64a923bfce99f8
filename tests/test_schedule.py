import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memdiff import make_schedule, forward_sample, posterior_mean_var
from memdiff.errors import DataError, InvariantError
from memdiff.schedule import TERMINAL_ALPHA_BAR, NoiseSchedule


def bayes_posterior(x0, xk, k, sched):
    """Independent oracle: product of the two scalar Gaussian kernels.

    q(x^{k-1} | x^k, x^0) ~ N(x^k; sqrt(a_k) x^{k-1}, b_k) * N(x^{k-1}; sqrt(abar_{k-1}) x^0, 1 - abar_{k-1})
    combined by adding their inverse variances.
    """
    a_k = sched.alpha[k - 1]
    b_k = sched.beta[k - 1]
    abar_prev = sched.alpha_bar_prev(k)
    prec = a_k / b_k + 1.0 / (1.0 - abar_prev)
    var = 1.0 / prec
    mean = var * (np.sqrt(a_k) * xk / b_k + np.sqrt(abar_prev) * x0 / (1.0 - abar_prev))
    return mean, var


class TestMakeSchedule:
    def test_single_step_explicit(self):
        s = make_schedule(1, beta=[0.5])
        assert s.alpha_bar.tolist() == [0.5]
        assert s.beta_tilde.tolist() == [0.0]

    def test_linear_scaled_endpoint(self):
        s = make_schedule(10)
        assert s.alpha_bar[-1] < 0.05

    def test_linear_scaled_endpoint_other_sizes(self):
        for steps in (1, 2, 4, 25):
            s = make_schedule(steps)
            assert s.alpha_bar[-1] < 0.05, steps

    def test_linear_scaled_matches_full_bisection(self):
        """Stopping the bisection at its fixed point keeps every table of the
        200-halving search it replaced."""
        for steps in (1, 2, 3, 5, 10, 20, 50):
            for beta_min, beta_max in ((0.05, 0.55), (1e-4, 0.02), (0.2, 0.2), (0.01, 0.9)):
                ramp = np.linspace(beta_min, beta_max, steps)

                def terminal(scale):
                    return float(np.prod(1.0 - np.clip(scale * ramp, 1e-12, 0.999)))

                lo, hi = 1e-9, 1.0
                while terminal(hi) > TERMINAL_ALPHA_BAR:
                    hi *= 2.0
                for _ in range(200):
                    mid = 0.5 * (lo + hi)
                    if terminal(mid) > TERMINAL_ALPHA_BAR:
                        lo = mid
                    else:
                        hi = mid
                want = NoiseSchedule(np.clip(hi * ramp, 1e-12, 0.999))
                got = make_schedule(steps, beta_min, beta_max)
                for name in ("beta", "alpha_bar", "beta_tilde"):
                    np.testing.assert_array_equal(getattr(got, name), getattr(want, name),
                                                  err_msg=f"{name} {steps} {beta_min} {beta_max}")

    def test_two_step_hand_arithmetic(self):
        s = make_schedule(2, beta=[0.1, 0.2])
        np.testing.assert_allclose(s.alpha_bar, [0.9, 0.72], rtol=0, atol=1e-15)
        np.testing.assert_allclose(s.beta_tilde[1], (1 - 0.9) / (1 - 0.72) * 0.2, atol=1e-15)

    def test_rejects_bad_steps(self):
        with pytest.raises(DataError):
            make_schedule(0)

    @pytest.mark.parametrize("steps,beta", [(10, [0.5]), (1, [0.1, 0.2]), (2, [[0.1, 0.2]] * 2)])
    def test_rejects_beta_of_another_length(self, steps, beta):
        with pytest.raises(DataError, match=f"for a {steps}-step schedule"):
            make_schedule(steps, beta=beta)

    def test_rejects_bad_beta(self):
        with pytest.raises(InvariantError):
            NoiseSchedule(np.array([0.0, 0.5]))
        with pytest.raises(InvariantError):
            NoiseSchedule(np.array([1.0]))

    def test_tables_immutable(self):
        s = make_schedule(5)
        with pytest.raises(ValueError):
            s.beta[0] = 0.3

    def test_alpha_bar_strictly_decreasing(self):
        s = make_schedule(10)
        assert np.all(np.diff(s.alpha_bar) < 0)

    def test_beta_tilde_first_zero(self):
        assert make_schedule(7).beta_tilde[0] == 0.0

    def test_csv_dump(self):
        text = make_schedule(3).to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "k,beta,alpha,alpha_bar,beta_tilde"
        assert len(lines) == 4


class TestForwardSample:
    def test_near_zero_noise_limit(self):
        # all-beta-zero is outside the schedule domain; tiny betas approach it
        s = make_schedule(3, beta=[1e-12, 1e-12, 1e-12])
        x0 = np.arange(6.0).reshape(2, 3)
        out = forward_sample(x0, 3, np.ones_like(x0), s)
        np.testing.assert_allclose(out, x0, atol=1e-5)

    def test_zero_signal(self):
        s = make_schedule(4)
        noise = np.random.default_rng(0).standard_normal((5, 2))
        out = forward_sample(np.zeros((5, 2)), 2, noise, s)
        np.testing.assert_array_equal(out, np.sqrt(1 - s.alpha_bar[1]) * noise)

    def test_shape_mismatch(self):
        s = make_schedule(4)
        with pytest.raises(DataError):
            forward_sample(np.zeros((2, 2)), 1, np.zeros(3), s)

    def test_seeded_bit_reproducible(self):
        s = make_schedule(10)
        outs = []
        for _ in range(2):
            rng = np.random.default_rng(123)
            outs.append(forward_sample(np.ones((4, 3)), 7, rng.standard_normal((4, 3)), s))
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_per_sample_steps_match_scalar_calls(self):
        s = make_schedule(10)
        rng = np.random.default_rng(5)
        x0 = rng.standard_normal((16, 6, 3))
        noise = rng.standard_normal((16, 6, 3))
        k = rng.integers(1, 11, size=16)
        out = forward_sample(x0, k, noise, s)
        want = np.stack([forward_sample(x0[b], int(k[b]), noise[b], s) for b in range(16)])
        np.testing.assert_array_equal(out, want)

    @pytest.mark.parametrize("k", [0, 11, -1, [3, 0, 5], [1, 10, 11], [11, 0, 2]])
    def test_out_of_range_step_rejected(self, k):
        s = make_schedule(10)
        shape = np.shape(k) + (4, 2)
        with pytest.raises(InvariantError, match="outside 1..10"):
            forward_sample(np.zeros(shape), k, np.zeros(shape), s)

    def test_step_shape_mismatch(self):
        s = make_schedule(10)
        with pytest.raises(DataError):
            forward_sample(np.zeros((3, 4, 2)), np.array([1, 2]), np.zeros((3, 4, 2)), s)

    @pytest.mark.slow
    def test_monte_carlo_composition_all_k(self):
        # Composing the one-step kernels must match the closed-form marginal.
        s = make_schedule(10)
        n = 100_000
        rng = np.random.default_rng(42)
        x = np.full(n, 1.0)
        for k in range(1, 11):
            x = np.sqrt(1.0 - s.beta[k - 1]) * x + np.sqrt(s.beta[k - 1]) * rng.standard_normal(n)
            want_mean = np.sqrt(s.alpha_bar[k - 1])
            want_var = 1.0 - s.alpha_bar[k - 1]
            se_mean = np.sqrt(want_var / n)
            se_var = want_var * np.sqrt(2.0 / (n - 1))
            assert abs(x.mean() - want_mean) < 3 * se_mean, k
            assert abs(x.var() - want_var) < 3 * se_var, k


class TestPosterior:
    def test_k1_collapses_to_x0(self):
        s = make_schedule(5)
        x0 = np.array([[1.0, -2.0]])
        mean, var = posterior_mean_var(x0, np.array([[9.0, 9.0]]), 1, s)
        np.testing.assert_allclose(mean, x0, atol=1e-15)
        assert var == 0.0

    def test_zero_inputs(self):
        s = make_schedule(5)
        mean, var = posterior_mean_var(np.zeros(3), np.zeros(3), 3, s)
        np.testing.assert_array_equal(mean, np.zeros(3))
        assert var > 0

    def test_bayes_product_k2_hand_schedule(self):
        s = make_schedule(2, beta=[0.1, 0.2])
        x0, xk = 0.7, -1.3
        mean, var = posterior_mean_var(np.array(x0), np.array(xk), 2, s)
        want_mean, want_var = bayes_posterior(x0, xk, 2, s)
        assert abs(float(mean) - want_mean) < 1e-10
        assert abs(var - want_var) < 1e-10

    def test_bayes_product_three_random_schedules(self):
        rng = np.random.default_rng(7)
        for trial in range(3):
            betas = rng.uniform(0.01, 0.6, size=10)
            s = make_schedule(10, beta=betas)
            x0, xk = rng.standard_normal(2)
            for k in range(2, 11):
                mean, var = posterior_mean_var(np.array(x0), np.array(xk), k, s)
                want_mean, want_var = bayes_posterior(x0, xk, k, s)
                assert abs(float(mean) - want_mean) < 1e-10
                assert abs(var - want_var) < 1e-10

    def test_tables_hold_the_scalar_coefficients_bit_for_bit(self):
        s = make_schedule(10)
        for k in range(1, 11):
            abar_prev, denom = s.alpha_bar_prev(k), 1.0 - s.alpha_bar[k - 1]
            assert s.post_xk[k - 1] == np.sqrt(s.alpha[k - 1]) * (1.0 - abar_prev) / denom
            assert s.post_x0[k - 1] == np.sqrt(abar_prev) * s.beta[k - 1] / denom
        assert not s.post_xk.flags.writeable and not s.post_x0.flags.writeable

    def test_invalid_k(self):
        s = make_schedule(4)
        with pytest.raises(InvariantError):
            posterior_mean_var(np.zeros(1), np.zeros(1), 5, s)

    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_coefficients_nonnegative_and_identity(self, steps, seed):
        rng = np.random.default_rng(seed)
        s = make_schedule(steps, beta=rng.uniform(0.01, 0.9, size=steps))
        v = rng.standard_normal()
        assert (s.post_xk >= 0).all() and (s.post_x0 >= 0).all()
        for k in range(1, steps + 1):
            mean, _ = posterior_mean_var(np.array(v), np.array(v), k, s)
            abar_prev = s.alpha_bar_prev(k)
            want = v * (np.sqrt(s.alpha[k - 1]) * (1 - abar_prev)
                        + np.sqrt(abar_prev) * s.beta[k - 1]) / (1 - s.alpha_bar[k - 1])
            np.testing.assert_allclose(float(mean), want, rtol=1e-12)
