"""Full forecaster: parameters, memories, loss pipeline, sampling.

The training loss is evaluated as a pure function of the parameters once
the per-step random draws (step indices, forward noise, mixup masks,
reparameterization noise) are frozen, which is what makes the exact
backward pass checkable against finite differences.

Channel-row layout: batched per-channel vectors are stacked as
(batch * n_channels, ...) with channel index = row % n_channels. The
memories hold one group (channel-shared) or one group per channel
(shared_memory off) and map rows to groups themselves.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import attention, conditioning, denoiser
from .config import TrainConfig
from .episodic import EpisodicStore
from .errors import DataError
from .nn import Mlp, ParamStore
from .schedule import forward_sample, make_schedule
from .semantic import SemanticMemory


@dataclass
class StepDraws:
    """All randomness of one training step, frozen up front."""

    k: np.ndarray          # (B,) step indices in 1..K
    eps_forward: np.ndarray  # (B, H, N)
    mask: np.ndarray       # (B, H, N) mixup mask
    eps_prior: np.ndarray  # (B*N, d)
    eps_cond: np.ndarray   # (B*N, d)


def draw_step_randomness(rng: np.random.Generator, cfg: TrainConfig, batch: int) -> StepDraws:
    """The step's draws, in stream order: steps, forward noise, mask, prior then head noise.

    ``random`` draws what ``uniform(0, 1)`` draws, and one (2, rows, d)
    normal draw is the two latent noises drawn one after the other.
    """
    shape = (batch, cfg.horizon, cfg.n_channels)
    k = rng.integers(1, cfg.diffusion_steps + 1, size=batch)
    eps_forward = rng.standard_normal(shape)
    mask = rng.random(shape)
    eps_prior, eps_cond = rng.standard_normal((2, batch * cfg.n_channels, cfg.latent_dim))
    return StepDraws(k, eps_forward, mask, eps_prior, eps_cond)


@dataclass
class LossBreakdown:
    total: float
    condition: float
    l1: float
    l2: float
    per_sample_condition: np.ndarray   # (B,)
    queries: np.ndarray                # (B, N, d) for episodic selection
    episodic_trace: "attention.ReadTrace | None"   # the recall the step commits by counting


class ForecastModel:
    """Memory-conditioned few-step diffusion forecaster."""

    def __init__(self, cfg: TrainConfig, rng: np.random.Generator):
        cfg.validate()
        self.cfg = cfg
        self.params = ParamStore()
        self.enc = Mlp(self.params, "encoder",
                       [cfg.lookback, *cfg.enc_hidden, cfg.latent_dim], "relu", rng)
        den_in = 2 * cfg.horizon + cfg.embed_dim
        self.den = Mlp(self.params, "denoiser",
                       [den_in, *cfg.den_hidden, cfg.horizon], "silu", rng)
        self.cp = conditioning.init_condition_params(
            self.params, cfg.latent_dim, cfg.horizon, cfg.log_var_init, rng)
        groups = 1 if cfg.shared_memory else cfg.n_channels
        self.semantic = self.episodic = None
        if cfg.use_semantic:
            blocks = rng.standard_normal((groups * cfg.semantic_size, cfg.latent_dim))
            self.semantic = SemanticMemory(self.params.register("semantic/blocks", blocks), groups)
        if cfg.use_episodic:
            self.episodic = EpisodicStore(cfg.latent_dim, cfg.episodic_size, cfg.queue_size,
                                          cfg.recall_top_k, groups)
        # without any memory the prior mean is identically zero, so the
        # query bypass is the only conditioning path left: force it on
        self.query_bypass = cfg.condition_uses_query or (
            self.semantic is None and self.episodic is None)
        self.sched = make_schedule(cfg.diffusion_steps, cfg.beta_min, cfg.beta_max)

    @functools.cached_property
    def step_table(self) -> np.ndarray:
        """(K, E) step embeddings, row k-1 for step k.

        Rows come from denoiser.step_embedding itself, so they keep its bits.
        """
        return np.stack([denoiser.step_embedding(k, self.cfg.embed_dim)
                         for k in range(1, self.cfg.diffusion_steps + 1)])

    # -- training loss ----------------------------------------------------

    def _channel_rows(self, blocks: np.ndarray) -> np.ndarray:
        """(B, T, N) time-major blocks to (B*N, T) channel rows, a copy unless N = 1."""
        return blocks.transpose(0, 2, 1).reshape(-1, blocks.shape[1])

    def condition_rows(self, h_rows: np.ndarray, eps_prior: "np.ndarray | None" = None,
                       eps_cond: "np.ndarray | None" = None):
        """Condition rows (R, H) for query rows (R, d): both recalls, the prior and the head.

        The prior and the head are sampled with the given noise, or take
        their means without it, as at inference. An absent memory recalls
        zeros. Returns (c_rows, (sem_trace, epi_trace, prior_trace, head_trace)).
        """
        if self.semantic is not None:
            m_sem, sem_trace = self.semantic.recall(h_rows)
        else:
            m_sem, sem_trace = np.zeros_like(h_rows), None
        if self.episodic is not None:
            m_epi, epi_trace = self.episodic.recall(h_rows)
        else:
            m_epi, epi_trace = np.zeros_like(h_rows), None
        m, prior_trace = conditioning.memory_prior(self.cp, m_sem, m_epi, eps=eps_prior)
        head_queries = h_rows if self.query_bypass else np.zeros_like(h_rows)
        c_rows, head_trace = conditioning.condition_head(self.cp, m, head_queries, eps=eps_cond)
        return c_rows, (sem_trace, epi_trace, prior_trace, head_trace)

    def loss(self, batch_x: np.ndarray, batch_y: np.ndarray, draws: StepDraws,
             compute_grad: bool = True) -> LossBreakdown:
        """Total training objective; optionally accumulates exact gradients.

        batch_x: (B, L, N) lookbacks, batch_y: (B, H, N) horizons, already
        normalized. Gradients are ADDED to the parameter buffers; the
        caller zeroes them at the start of the step. The memories are only
        read: the caller commits the episodic recall (EpisodicStore.count).
        """
        cfg = self.cfg
        batch = batch_x.shape[0]
        if batch_x.shape[1:] != (cfg.lookback, cfg.n_channels):
            raise DataError(f"lookback batch shaped {batch_x.shape}, "
                            f"expected (*, {cfg.lookback}, {cfg.n_channels})")
        if batch_y.shape[1:] != (cfg.horizon, cfg.n_channels):
            raise DataError(f"horizon batch shaped {batch_y.shape}, "
                            f"expected (*, {cfg.horizon}, {cfg.n_channels})")

        x_rows, y_rows, eps_rows, mask_rows = map(
            self._channel_rows, (batch_x, batch_y, draws.eps_forward, draws.mask))
        k_rows = draws.k.repeat(cfg.n_channels)
        h_rows, enc_trace = conditioning.encode_rows(self.enc, x_rows)
        c_rows, (sem_trace, epi_trace, prior_trace, head_trace) = self.condition_rows(
            h_rows, draws.eps_prior, draws.eps_cond)
        if self.semantic is not None:
            l1_sum, l2_sum, loss_trace = self.semantic.losses(sem_trace, cfg.margin)
        else:
            l1_sum = l2_sum = 0.0
        c_mix_rows = conditioning.future_mixup(c_rows, y_rows, mask_rows)
        y_k_rows = forward_sample(y_rows, k_rows, eps_rows, self.sched)
        y0_rows, den_trace = denoiser.denoise_rows(
            self.den, y_k_rows, c_mix_rows, self.step_table.take(k_rows - 1, axis=0))

        resid = y0_rows - y_rows
        # sum / count is what mean computes, without its wrapper
        per_sample = (resid * resid).reshape(batch, -1).sum(axis=1) / (resid.size // batch)
        l_cond = float(per_sample.sum() / batch)
        l1 = l1_sum / batch
        l2 = l2_sum / batch
        total = l_cond + cfg.alpha1 * l1 + cfg.alpha2 * l2

        if compute_grad:
            d_y0 = resid    # not read again
            d_y0 *= 2.0
            d_y0 /= resid.size
            d_cmix_rows = denoiser.denoise_rows_backward(self.den, den_trace, d_y0, cfg.horizon)
            d_cmix_rows *= mask_rows   # through the mixup; d_cmix_rows is fresh
            d_m, d_h = conditioning.condition_head_backward(self.cp, head_trace, d_cmix_rows)
            if not self.query_bypass:
                d_h = np.zeros_like(d_h)
            d_u = conditioning.memory_prior_backward(self.cp, prior_trace, d_m)
            # d_h views the head's fresh input gradient, or is zeros: add in place
            if self.semantic is not None:
                d_h += self.semantic.recall_backward(sem_trace, d_u)
                if cfg.alpha1 or cfg.alpha2:   # unweighted losses add exact zeros
                    d_h += self.semantic.losses_backward(
                        loss_trace, cfg.alpha1 / batch, cfg.alpha2 / batch)
            if self.episodic is not None:
                d_h += self.episodic.recall_backward(epi_trace, d_u)
            self.enc.backward(enc_trace, d_h, None)   # lookbacks are data

        queries = h_rows.reshape(batch, cfg.n_channels, cfg.latent_dim)
        return LossBreakdown(total, l_cond, l1, l2, per_sample, queries, epi_trace)

    # -- inference ----------------------------------------------------------

    def _queries(self, x0: np.ndarray) -> np.ndarray:
        """Channel queries (N, d) of one lookback block, refused before any recall
        unless it is (L, N)."""
        want = (self.cfg.lookback, self.cfg.n_channels)
        if np.shape(x0) != want:
            raise DataError(f"lookback shaped {np.shape(x0)}, expected {want}")
        return conditioning.encode(self.enc, x0)[0]

    def forecast(self, x0: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Predict the (H, N) horizon for one normalized lookback block, on (N, ·)
        channel rows through the row functions the training loss uses."""
        cfg = self.cfg
        c_rows, _ = self.condition_rows(self._queries(x0))

        def predict(y_k, k):
            emb = self.step_table[k - 1:k].repeat(cfg.n_channels, axis=0)
            return denoiser.denoise_rows(self.den, y_k.T, c_rows, emb)[0].T

        if cfg.ancestral:
            return denoiser.ddpm_sample(predict, cfg.horizon, cfg.n_channels, self.sched, rng)
        return denoiser.ddim_sample(predict, cfg.horizon, cfg.n_channels, self.sched,
                                    cfg.substeps, rng)

    def attention_scores(self, x0: np.ndarray):
        """(semantic (N, N1) or None, episodic (N, records) or None) for one window.

        Row j scores channel j's query against the memory of its group."""
        h = self._queries(x0)
        sem = self.semantic.scores(h) if self.semantic is not None else None
        epi = self.episodic.scores(h) if self.episodic is not None else None
        return sem, epi
