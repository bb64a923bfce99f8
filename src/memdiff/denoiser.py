"""Conditional denoiser and the two samplers.

The denoiser is a shared-weight MLP applied per channel to the
concatenation of the noisy horizon column, the condition column, and a
sinusoidal step embedding; it predicts the clean horizon directly. The
ancestral sampler follows the learned reverse chain; the accelerated
sampler is the deterministic skip-step variant and is the default
inference path (a single jump when substeps = 1).

Sampler start noise is one horizon-length draw broadcast across channels:
channel permutation then permutes forecasts exactly, and duplicated
channels forecast identically.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DataError, InvariantError
from .nn import Mlp
from .schedule import NoiseSchedule, posterior_mean_var


def step_embedding(k: int, dim: int) -> np.ndarray:
    """Sinusoidal embedding of a diffusion step index."""
    if dim % 2:
        raise DataError(f"embedding dim must be even, got {dim}")
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / half)
    angles = k * freqs
    return np.concatenate([np.sin(angles), np.cos(angles)])


def denoise_rows(net: Mlp, y_k_rows: np.ndarray, c_rows: np.ndarray,
                 k_embed_rows: np.ndarray):
    """Batched x0 prediction on channel rows.

    y_k_rows, c_rows: (R, H); k_embed_rows: (R, E). Returns ((R, H), trace).
    """
    x = np.concatenate([y_k_rows, c_rows, k_embed_rows], axis=1)
    return net.forward(x)


def denoise_rows_backward(net: Mlp, trace, upstream: np.ndarray, horizon: int) -> np.ndarray:
    """Returns d_c_rows, the gradient w.r.t. the condition rows. The noisy rows and the
    step embedding are data, so their gradient is never formed."""
    return net.backward(trace, upstream, slice(horizon, 2 * horizon))


def denoise_predict(net: Mlp, y_k: np.ndarray, k_embed: np.ndarray,
                    c: np.ndarray) -> np.ndarray:
    """Single-window x0 prediction: (H, N) blocks in, (H, N) prediction out.

    k_embed is the (E,) step embedding of y_k's step, shared by every channel.
    """
    if y_k.shape != c.shape:
        raise DataError(f"noisy block {y_k.shape} != condition {c.shape}")
    emb = k_embed[None, :].repeat(y_k.shape[1], axis=0)
    out, _ = denoise_rows(net, y_k.T, c.T, emb)
    return out.T


def ddpm_step(y_k: np.ndarray, k: int, y0_hat: np.ndarray, sched: NoiseSchedule,
              noise: "np.ndarray | None") -> np.ndarray:
    """One ancestral reverse step toward k-1.

    The mean is the forward-posterior mean with the prediction in place of
    the clean signal; noise is scaled by sqrt(beta_tilde_k) and omitted
    entirely at the final step (where beta_tilde_1 = 0 anyway).
    """
    out, var = posterior_mean_var(y0_hat, y_k, k, sched)
    if k > 1 and noise is not None:
        out = out + np.sqrt(var) * noise
    return out


def sampling_steps(steps: int, substeps: int) -> "list[int]":
    """Strictly decreasing step subsequence from K toward 1."""
    return list(_sampling_steps(steps, substeps))


@functools.lru_cache(maxsize=64)
def _sampling_steps(steps: int, substeps: int) -> "tuple[int, ...]":
    """sampling_steps as an immutable tuple, computed once per (steps, substeps)."""
    if not 1 <= substeps <= steps:
        raise DataError(f"substeps must lie in 1..{steps}, got {substeps}")
    ks = np.unique(np.round(np.linspace(steps, 1, substeps)).astype(int))[::-1]
    return tuple(int(k) for k in ks)


def init_noise(rng: np.random.Generator, horizon: int, n_channels: int) -> np.ndarray:
    """Channel-shared standard-normal start for the reverse process."""
    return np.repeat(rng.standard_normal((horizon, 1)), n_channels, axis=1)


def ddim_sample(predict_fn, horizon: int, n_channels: int, sched: NoiseSchedule,
                substeps: int, rng: np.random.Generator) -> np.ndarray:
    """Deterministic accelerated sampling (eta = 0) over a strided subsequence.

    predict_fn(y_k, k) -> y0_hat. With substeps = 1 this is a single jump
    from the Gaussian start through the model's x0 prediction.
    """
    y = init_noise(rng, horizon, n_channels)
    ks = _sampling_steps(sched.steps, substeps)
    signal_scale, noise_scale = sched.sqrt_alpha_bar, sched.sqrt_one_minus_alpha_bar
    for i, k in enumerate(ks):
        y0_hat = predict_fn(y, k)
        k_next = ks[i + 1] if i + 1 < len(ks) else 0
        if k_next == 0:
            y = y0_hat
        else:
            eps_hat = (y - signal_scale[k - 1] * y0_hat) / noise_scale[k - 1]
            y = signal_scale[k_next - 1] * y0_hat + noise_scale[k_next - 1] * eps_hat
    return y


def ddpm_sample(predict_fn, horizon: int, n_channels: int, sched: NoiseSchedule,
                rng: np.random.Generator) -> np.ndarray:
    """Full K-step ancestral sampling (kept for ablation)."""
    y = init_noise(rng, horizon, n_channels)
    for k in range(sched.steps, 0, -1):
        y0_hat = predict_fn(y, k)
        noise = init_noise(rng, horizon, n_channels) if k > 1 else None
        y = ddpm_step(y, k, y0_hat, sched, noise)
    if y.shape != (horizon, n_channels):
        raise InvariantError("sampler produced a wrong-shaped forecast")
    return y
