"""Conditioning path: temporal encoder, variational memory prior, condition head.

Each channel's lookback column runs through a shared-weight MLP encoder to
a latent query vector. The two memories are recalled with those queries;
their sum is mapped to the prior mean, sampled by reparameterization
during training, mapped again by the condition head, and concatenated
with the query before projecting to a horizon-length condition column.
All randomness is injected by the caller so a training loss is a pure
function of the parameters once the draws are frozen.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .nn import Mlp, ParamStore, ParamTensor, uniform_fan_in


@dataclass
class ConditionParams:
    """Learnable tensors of the conditioning path (excluding the encoder)."""

    w_prior: ParamTensor      # d x d map on recalled memory sums
    w_cond: ParamTensor       # d x d map on the sampled prior
    log_var_prior: ParamTensor
    log_var_cond: ParamTensor
    proj: ParamTensor         # H x 2d projection of [latent ; query]
    proj_bias: ParamTensor


def init_condition_params(store: ParamStore, latent_dim: int, horizon: int,
                          log_var_init: float, rng: np.random.Generator) -> ConditionParams:
    d = latent_dim
    # Near-identity init for the square maps keeps the recalled-memory signal
    # at full scale from the first step instead of attenuating it ~sqrt(3)x
    # per layer the way fan-in scaling would.
    eye = np.eye(d)
    jitter = 1.0 / np.sqrt(d)
    return ConditionParams(
        w_prior=store.register("prior/W2", eye + uniform_fan_in(rng, d, (d, d)) * jitter),
        w_cond=store.register("cond/W1", eye + uniform_fan_in(rng, d, (d, d)) * jitter),
        log_var_prior=store.register("prior/log_var", np.full(d, log_var_init)),
        log_var_cond=store.register("cond/log_var", np.full(d, log_var_init)),
        proj=store.register("cond/proj", uniform_fan_in(rng, 2 * d, (horizon, 2 * d))),
        proj_bias=store.register("cond/proj_bias", uniform_fan_in(rng, 2 * d, (horizon,))),
    )


def encode(enc: Mlp, x0: np.ndarray):
    """Lookback block (L, N) to channel queries (N, d); channels independent."""
    x0 = np.asarray(x0)
    if x0.ndim != 2 or x0.shape[0] != enc.in_width:
        raise DataError(f"lookback shape {x0.shape} incompatible with length {enc.in_width}")
    return enc.forward(x0.T)


def encode_rows(enc: Mlp, rows: np.ndarray):
    """Batched variant: rows (R, L) of channel columns, any grouping."""
    return enc.forward(rows)


@dataclass
class MapTrace:
    x: np.ndarray
    eps: "np.ndarray | None"
    sigma: "np.ndarray | None"


def _reparam(w: ParamTensor, log_var: ParamTensor, x: np.ndarray, eps: "np.ndarray | None"):
    """The reparameterized map x W^T + exp(log_var / 2) * eps, its mean when eps is None."""
    if eps is None:
        return x @ w.values.T, MapTrace(x, None, None)
    sigma = np.exp(0.5 * log_var.values)
    return x @ w.values.T + sigma * eps, MapTrace(x, eps, sigma)


def _reparam_backward(w: ParamTensor, log_var: ParamTensor, trace: MapTrace, upstream: np.ndarray):
    if trace.eps is not None:
        log_var.grad += 0.5 * (upstream * trace.eps * trace.sigma).sum(axis=0)
    w.grad += upstream.T @ trace.x
    return upstream @ w.values


def memory_prior(cp: ConditionParams, m_sem: np.ndarray, m_epi: np.ndarray,
                 eps: "np.ndarray | None" = None):
    """Prior per channel row: W2 (m_e + m_s) + sigma * eps, the mean when eps is None."""
    return _reparam(cp.w_prior, cp.log_var_prior, m_sem + m_epi, eps)


def memory_prior_backward(cp: ConditionParams, trace: MapTrace, upstream: np.ndarray):
    """Returns gradient w.r.t. the memory sum (m_e + m_s)."""
    return _reparam_backward(cp.w_prior, cp.log_var_prior, trace, upstream)


@dataclass
class HeadTrace:
    latent: MapTrace
    z: np.ndarray


def condition_head(cp: ConditionParams, m: np.ndarray, queries: np.ndarray,
                   eps: "np.ndarray | None" = None):
    """Per-channel condition columns: project [W1 m (+ sigma * eps) ; query] to R^H.

    Without eps the latent is the mean. Returns condition rows (R, H); the
    caller reshapes per sample to (H, N).
    """
    latent, latent_trace = _reparam(cp.w_cond, cp.log_var_cond, m, eps)
    z = np.concatenate([latent, queries], axis=1)
    c_rows = z @ cp.proj.values.T
    c_rows += cp.proj_bias.values
    return c_rows, HeadTrace(latent_trace, z)


def condition_head_backward(cp: ConditionParams, trace: HeadTrace, upstream: np.ndarray):
    """Returns (d_m, d_queries)."""
    cp.proj.grad += upstream.T @ trace.z
    cp.proj_bias.grad += upstream.sum(axis=0)
    dz = upstream @ cp.proj.values
    d = cp.w_cond.shape[0]
    return _reparam_backward(cp.w_cond, cp.log_var_cond, trace.latent, dz[:, :d]), dz[:, d:]


def future_mixup(c: np.ndarray, y0: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Training-time blend of the condition with the ground-truth future.

    c_mix = mask * c + (1 - mask) * y0 elementwise, mask entries in [0, 1).
    Inference has no ground truth and uses the condition unmixed.
    """
    if mask.shape != c.shape or y0.shape != c.shape:
        raise DataError(f"mixup needs mask {mask.shape} and target {y0.shape} "
                        f"shaped like the condition {c.shape}")
    return mask * c + (1.0 - mask) * y0
