"""Walk through the forward diffusion algebra.

Builds the default few-step noise schedule, prints its tables, and checks
the closed-form marginal against a brute-force Monte-Carlo composition of
the one-step kernels.
"""

import numpy as np

from memdiff import make_schedule, forward_sample, posterior_mean_var

sched = make_schedule(steps=10)
print("default 10-step schedule (terminal alpha_bar solved to 0.02):\n")
print(sched.to_csv())

# Closed-form marginal vs composing the one-step kernels sample by sample.
n = 50_000
rng = np.random.default_rng(0)
x = np.full(n, 1.0)
print("k   closed-form mean/var    monte-carlo mean/var")
for k in range(1, 11):
    beta = sched.beta[k - 1]
    x = np.sqrt(1.0 - beta) * x + np.sqrt(beta) * rng.standard_normal(n)
    mean = np.sqrt(sched.alpha_bar[k - 1])
    var = 1.0 - sched.alpha_bar[k - 1]
    print(f"{k:2d}  {mean:8.4f} {var:8.4f}      {x.mean():8.4f} {x.var():8.4f}")

# The forward posterior mean interpolates between x^k and x^0.
x0 = np.array([1.0])
xk = forward_sample(x0, 5, np.array([0.3]), sched)
mean, var = posterior_mean_var(x0, xk, 5, sched)
print(f"\nposterior at k=5 given x0=1, x5={xk[0]:.3f}: mean={mean[0]:.4f}, var={var:.4f}")
print("posterior at k=1 collapses onto x0:",
      posterior_mean_var(x0, xk, 1, sched)[0][0], "var", posterior_mean_var(x0, xk, 1, sched)[1])
