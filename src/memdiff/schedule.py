"""Diffusion noise schedule and closed-form forward-process algebra.

All tables are float64. Step indices are 1-based (k = 1..K); index k-1
addresses the arrays. alpha_bar_prev(k) supplies the k=1 edge case where
the product over an empty prefix is 1.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, InvariantError

# Terminal signal level make_schedule solves its ramp for. Must sit
# below the 0.05 prior-matching bound so y^K is close enough to N(0, I).
TERMINAL_ALPHA_BAR = 0.02
PRIOR_MATCHING_BOUND = 0.05

DEFAULT_STEPS = 10
DEFAULT_BETA_MIN = 0.05
DEFAULT_BETA_MAX = 0.55


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-step beta/alpha tables for a K-step forward noising chain.

    Immutable after construction; safe for concurrent reads.
    """

    beta: np.ndarray
    alpha: np.ndarray = field(init=False)
    alpha_bar: np.ndarray = field(init=False)
    beta_tilde: np.ndarray = field(init=False)
    sqrt_alpha_bar: np.ndarray = field(init=False)             # forward_sample's
    sqrt_one_minus_alpha_bar: np.ndarray = field(init=False)   # two coefficients
    post_xk: np.ndarray = field(init=False)   # posterior mean's coefficient on x^k
    post_x0: np.ndarray = field(init=False)   # and on x^0

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=np.float64)
        if beta.ndim != 1 or beta.size < 1:
            raise InvariantError("beta must be a non-empty 1-D sequence")
        if not np.all((beta > 0.0) & (beta < 1.0)):
            raise InvariantError("all beta_k must lie in (0, 1)")
        alpha = 1.0 - beta
        alpha_bar = np.cumprod(alpha)
        if not np.all(np.diff(alpha_bar) < 0.0):
            raise InvariantError("alpha_bar must be strictly decreasing")
        # beta_tilde_k = (1 - abar_{k-1}) / (1 - abar_k) * beta_k, abar_0 = 1
        abar_prev = np.concatenate(([1.0], alpha_bar[:-1]))
        beta_tilde = (1.0 - abar_prev) / (1.0 - alpha_bar) * beta
        post_xk = np.sqrt(alpha) * (1.0 - abar_prev) / (1.0 - alpha_bar)
        post_x0 = np.sqrt(abar_prev) * beta / (1.0 - alpha_bar)
        for name, table in (("beta", beta), ("alpha", alpha), ("alpha_bar", alpha_bar),
                            ("beta_tilde", beta_tilde), ("sqrt_alpha_bar", np.sqrt(alpha_bar)),
                            ("sqrt_one_minus_alpha_bar", np.sqrt(1.0 - alpha_bar)),
                            ("post_xk", post_xk), ("post_x0", post_x0)):
            table.setflags(write=False)
            object.__setattr__(self, name, table)

    @property
    def steps(self) -> int:
        return int(self.beta.size)

    def _check_step(self, k: int):
        if not 1 <= k <= self.steps:
            raise InvariantError(f"step index {k} outside 1..{self.steps}")

    def alpha_bar_prev(self, k: int) -> float:
        """alpha_bar_{k-1} with the alpha_bar_0 = 1 convention."""
        self._check_step(k)
        return 1.0 if k == 1 else float(self.alpha_bar[k - 2])

    def to_csv(self) -> str:
        """Schedule table as CSV text for inspection."""
        buf = io.StringIO()
        buf.write("k,beta,alpha,alpha_bar,beta_tilde\n")
        for k in range(1, self.steps + 1):
            cells = (self.beta[k - 1], self.alpha[k - 1],
                     self.alpha_bar[k - 1], self.beta_tilde[k - 1])
            buf.write(f"{k}," + ",".join(repr(float(c)) for c in cells) + "\n")
        return buf.getvalue()


def make_schedule(steps: int = DEFAULT_STEPS, beta_min: float = DEFAULT_BETA_MIN,
                  beta_max: float = DEFAULT_BETA_MAX,
                  beta: "np.ndarray | list[float] | None" = None) -> NoiseSchedule:
    """Build a K-step noise schedule.

    A linear beta ramp from beta_min to beta_max, rescaled by bisection so
    alpha_bar_K hits TERMINAL_ALPHA_BAR regardless of K. Few-step training
    needs the aggressive endpoint for the standard-normal prior to hold.

    A ``beta`` sequence of ``steps`` values, when given, is taken as is. It
    skips the prior-matching endpoint check so hand-built schedules for
    tests remain expressible.
    """
    if steps < 1:
        raise DataError(f"steps must be >= 1, got {steps}")
    if beta is not None:
        if np.size(beta) != steps:
            raise DataError(f"beta holds {np.size(beta)} values for a {steps}-step schedule")
        return NoiseSchedule(np.asarray(beta, dtype=np.float64))
    if not 0.0 < beta_min <= beta_max < 1.0:
        raise DataError(f"need 0 < beta_min <= beta_max < 1, got ({beta_min}, {beta_max})")
    ramp = np.linspace(beta_min, beta_max, steps)

    def terminal(scale: float) -> float:
        # np.clip and np.prod by their ufuncs, without the wrappers' per-call checks
        b = np.minimum(np.maximum(scale * ramp, 1e-12), 0.999)
        return float(np.multiply.reduce(1.0 - b))

    # terminal() decreases monotonically in scale; bracket then bisect.
    lo, hi = 1e-9, 1.0
    while terminal(hi) > TERMINAL_ALPHA_BAR:
        hi *= 2.0
        if hi > 1e9:
            raise InvariantError("failed to bracket schedule scale")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:   # adjacent floats: neither bound can move again
            break
        if terminal(mid) > TERMINAL_ALPHA_BAR:
            lo = mid
        else:
            hi = mid
    sched = NoiseSchedule(np.clip(hi * ramp, 1e-12, 0.999))
    if sched.alpha_bar[-1] >= PRIOR_MATCHING_BOUND:
        raise InvariantError(
            f"alpha_bar_K = {sched.alpha_bar[-1]:.4f} violates the "
            f"prior-matching bound {PRIOR_MATCHING_BOUND}"
        )
    return sched


def forward_sample(x0: np.ndarray, k: "int | np.ndarray", noise: np.ndarray,
                   sched: NoiseSchedule) -> np.ndarray:
    """Closed-form forward marginal: sqrt(abar_k) x0 + sqrt(1 - abar_k) noise.

    k is one step for the whole block, or an array of per-sample steps
    matching x0's leading axes (a (B,) array for a (B, H, N) batch).
    """
    k = np.asarray(k)
    x0 = np.asarray(x0, dtype=np.float64)
    noise = np.asarray(noise, dtype=np.float64)
    if x0.shape != noise.shape or k.shape != x0.shape[:k.ndim]:
        raise DataError(f"x0 shape {x0.shape}, noise shape {noise.shape} "
                        f"and step shape {k.shape} do not match")
    lo, hi = k.min(), k.max()
    if lo < 1 or hi > sched.steps:
        raise InvariantError(f"step index {lo if lo < 1 else hi} outside 1..{sched.steps}")
    at, shape = k - 1, k.shape + (1,) * (x0.ndim - k.ndim)
    out = sched.sqrt_alpha_bar.take(at).reshape(shape) * x0
    out += sched.sqrt_one_minus_alpha_bar.take(at).reshape(shape) * noise
    return out


def posterior_mean_var(
    x0: np.ndarray, xk: np.ndarray, k: int, sched: NoiseSchedule
) -> "tuple[np.ndarray, float]":
    """Mean and variance of q(x^{k-1} | x^k, x^0).

    At k = 1 the mean collapses to x0 and the variance to 0.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    xk = np.asarray(xk, dtype=np.float64)
    if x0.shape != xk.shape:
        raise DataError(f"x0 shape {x0.shape} != xk shape {xk.shape}")
    sched._check_step(k)
    mean = sched.post_xk[k - 1] * xk + sched.post_x0[k - 1] * x0
    return mean, float(sched.beta_tilde[k - 1])
