"""Training orchestration and evaluation.

One training step: freeze the step's randomness, run the loss forward and
exact backward, clip the global gradient norm, apply Adam, then commit the
step's episodic recall counts and hardest sample to the store. All random
streams are spawned from the single run seed, so identical config + seed
reproduces identical parameters bit for bit, and the last of the five
streams seeds the CLI's forecast past the end of the data.
"""

from __future__ import annotations

import contextlib
import logging
from dataclasses import dataclass

import numpy as np

from . import checkpoint
from .config import TrainConfig, config_hash
from .data import ChannelStats, Dataset, SeriesWindow, split, windows
from .episodic import select_special
from .errors import DataError, NumericError
from .model import ForecastModel, draw_step_randomness
from .nn import Adam

log = logging.getLogger("memdiff.trainer")


# Forecast values evaluate holds per block (at least one window): the per-window
# metric sums run vectorized once per block, in memory bounded by this.
EVAL_BLOCK = 2 ** 16


@contextlib.contextmanager
def raise_float_errors(doing: str):
    """Run the block with numpy overflow and invalid values raised, as NumericError
    naming what it was doing."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise NumericError(f"{doing}: {exc}") from exc


def window_error_sums(truth: np.ndarray, pred: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """(sum of |truth - pred|, sum of (truth - pred)^2) per window of two same-shaped
    (..., H, N) blocks, each over the window's H*N values in row-major order."""
    truth, pred = np.asarray(truth), np.asarray(pred)
    if truth.shape != pred.shape:
        raise DataError(f"metric shapes differ: {truth.shape} vs {pred.shape}")
    diff = truth - pred
    diff = np.abs(diff, out=diff).reshape(*diff.shape[:-2], -1)
    return diff.sum(axis=-1), (diff * diff).sum(axis=-1)


def mae(truth: np.ndarray, pred: np.ndarray) -> float:
    """Mean absolute error over all entries of two same-shaped (H, N) blocks."""
    return float(window_error_sums(truth, pred)[0] / np.size(truth))


def mse(truth: np.ndarray, pred: np.ndarray) -> float:
    """Mean squared error over all entries of two same-shaped (H, N) blocks."""
    return float(window_error_sums(truth, pred)[1] / np.size(truth))


@dataclass
class PreparedData:
    """Chronological splits, normalized with train-segment statistics only.

    train_spans views the normalized train segment as the train windows'
    (W, lookback + horizon, N) row spans, without a copy: a batch is one
    gather from it.
    """

    stats: ChannelStats
    train: "list[SeriesWindow]"
    val: "list[SeriesWindow]"
    test: "list[SeriesWindow]"
    train_spans: np.ndarray


def prepare(cfg: TrainConfig, ds: Dataset) -> PreparedData:
    if ds.n_channels != cfg.n_channels:
        raise DataError(f"dataset has {ds.n_channels} channels, config says {cfg.n_channels}")
    span = cfg.lookback + cfg.horizon
    segments = split(ds, cfg.ratios(), min_len=span)
    stats = ChannelStats.fit(segments[0])
    normed = [stats.normalize(seg) for seg in segments]
    spans = np.lib.stride_tricks.sliding_window_view(normed[0], (span, cfg.n_channels))
    return PreparedData(
        stats=stats,
        train=windows(normed[0], cfg.lookback, cfg.horizon, cfg.stride_train),
        val=windows(normed[1], cfg.lookback, cfg.horizon, cfg.eval_stride),
        test=windows(normed[2], cfg.lookback, cfg.horizon, cfg.eval_stride),
        train_spans=spans[::cfg.stride_train, 0],
    )


@dataclass
class StepResult:
    step: int
    total: float
    condition: float
    l1: float
    l2: float
    grad_norm: float = 0.0
    aborted: bool = False
    reason: str = ""


@dataclass
class EvalResult:
    mae: float
    mse: float
    mae_raw: float
    mse_raw: float
    n_windows: int

    def as_dict(self) -> dict:
        return {"mae": self.mae, "mse": self.mse, "mae_raw": self.mae_raw,
                "mse_raw": self.mse_raw, "n_windows": self.n_windows}


class Trainer:
    def __init__(self, cfg: TrainConfig, data: PreparedData):
        cfg.validate()
        self.cfg = cfg
        self.data = data
        seeds = np.random.SeedSequence(cfg.seed).spawn(5)
        self.model = ForecastModel(cfg, np.random.default_rng(seeds[0]))
        self._train_rng = np.random.default_rng(seeds[1])
        self._shuffle_rng = np.random.default_rng(seeds[2])
        self._eval_seed = seeds[3]
        self.forecast_seed = seeds[4]
        self.opt = Adam(self.model.params, lr=cfg.lr)
        self.step_count = 0
        self.incidents: "list[str]" = []
        self.history: "list[StepResult]" = []

    # -- single step -------------------------------------------------------

    def training_step(self, batch_x: np.ndarray, batch_y: np.ndarray) -> StepResult:
        """One optimizer step over a normalized batch, then the episodic count and
        update; a step that aborts changes neither parameters nor memory."""
        cfg = self.cfg
        self.model.params.zero_grads()
        draws = draw_step_randomness(self._train_rng, cfg, batch_x.shape[0])
        result = StepResult(self.step_count + 1, np.nan, np.nan, np.nan, np.nan)
        try:
            out = self.model.loss(batch_x, batch_y, draws, compute_grad=True)
        except NumericError as exc:
            return self._abort(result, f"loss evaluation failed: {exc}")
        result.total, result.condition = out.total, out.condition
        result.l1, result.l2 = out.l1, out.l2
        if not np.isfinite(out.total):
            return self._abort(result, f"non-finite total loss {out.total}")
        result.grad_norm = self.model.params.clip_global_norm(cfg.grad_clip)
        try:
            self.opt.step()
        except NumericError as exc:
            return self._abort(result, str(exc))
        if self.model.semantic is not None:
            self.model.semantic.rejitter(self._train_rng)
        if self.model.episodic is not None:
            self.model.episodic.count(out.episodic_trace)
            # Hardness is the denoising term only; the compactness losses
            # say nothing about which sample the predictor found hard.
            pattern = select_special(out.per_sample_condition, out.queries)
            if pattern is not None:
                self.model.episodic.update(pattern)
        self.step_count += 1
        result.step = self.step_count
        return result

    def _abort(self, result: StepResult, reason: str) -> StepResult:
        result.aborted = True
        result.reason = reason
        self.incidents.append(f"step={self.step_count + 1} aborted: {reason}")
        log.warning("step %d aborted: %s", self.step_count + 1, reason)
        return result

    # -- loop ----------------------------------------------------------------

    def _batches(self):
        """Shuffled (lookback, horizon) batches of the train windows, each one gather."""
        spans = self.data.train_spans
        order = self._shuffle_rng.permutation(len(spans))
        bs, lookback = self.cfg.batch_size, self.cfg.lookback
        for lo in range(0, len(order), bs):
            batch = spans[order[lo:lo + bs]]
            yield batch[:, :lookback], batch[:, lookback:]

    def fit(self, log_stream=None, checkpoint_path: "str | None" = None) -> "list[StepResult]":
        """Run the configured epochs over the training windows, or until max_steps
        steps have been attempted, counted from the step this trainer is at;
        aborted steps count too.

        With checkpoint_path set, the latest state is written there every
        checkpoint_every epochs (and the caller typically saves once more
        at the end).
        """
        if not self.data.train:
            raise DataError("trainer has no training windows")
        cfg = self.cfg
        best_val = np.inf
        stale = 0
        done = False
        attempted = self.step_count
        for epoch in range(cfg.epochs):
            for batch_x, batch_y in self._batches():
                res = self.training_step(batch_x, batch_y)
                self.history.append(res)
                attempted += 1
                if log_stream is not None:
                    log_stream.write(self._log_line(epoch, res))
                if cfg.max_steps and attempted >= cfg.max_steps:
                    done = True
                    break
            if checkpoint_path and (epoch + 1) % cfg.checkpoint_every == 0:
                self.save_checkpoint(checkpoint_path)
            if done:
                break
            if cfg.patience > 0 and self.data.val:
                val = self.evaluate("val").mae
                if val < best_val - 1e-12:
                    best_val, stale = val, 0
                else:
                    stale += 1
                    if stale >= cfg.patience:
                        log.info("early stop after epoch %d (patience %d)", epoch, cfg.patience)
                        break
        return self.history

    def _log_line(self, epoch: int, res: StepResult) -> str:
        if res.aborted:
            return f"step={res.step} epoch={epoch} aborted reason={res.reason!r}\n"
        return (f"step={res.step} epoch={epoch} cond={res.condition:.6f} "
                f"l1={res.l1:.6f} l2={res.l2:.6f} total={res.total:.6f} "
                f"lr={self.cfg.lr:.6g} grad_norm={res.grad_norm:.6f}\n")

    # -- evaluation ------------------------------------------------------------

    def evaluate(self, which: str = "test") -> EvalResult:
        """Forecast every window of the val or test split with the configured sampler.

        Metrics are reported on the normalized scale (the benchmark
        convention) and on the de-normalized raw scale. Each window is
        forecast by its own model.forecast call, in window order, from one
        eval stream; the errors are summed per window a block at a time and
        the windows' sums added in window order. An overflow or invalid value
        anywhere on the way raises NumericError naming the split.
        """
        wins = {"val": self.data.val, "test": self.data.test}[which]
        if not wins:
            raise DataError(f"empty {which} split")
        rng = np.random.default_rng(self._eval_seed)
        stats = self.data.stats
        size = wins[0].horizon.size
        per_block = max(1, EVAL_BLOCK // size)
        preds = np.empty((min(per_block, len(wins)), *wins[0].horizon.shape))
        sums = np.empty((4, len(wins)))   # absolute and squared error, normalized then raw
        with raise_float_errors(f"evaluating the {which} split"):
            for lo in range(0, len(wins), per_block):
                block = wins[lo:lo + per_block]
                pred = preds[:len(block)]
                for i, win in enumerate(block):
                    pred[i] = self.model.forecast(win.lookback, rng)
                truth = np.stack([win.horizon for win in block])
                sums[:2, lo:lo + len(block)] = window_error_sums(truth, pred)
                sums[2:, lo:lo + len(block)] = window_error_sums(stats.denormalize(truth),
                                                                 stats.denormalize(pred))
            # cumsum adds the windows one after another, as a running total would
            mae_norm, mse_norm, mae_raw, mse_raw = sums.cumsum(axis=1)[:, -1] / (size * len(wins))
        return EvalResult(mae_norm, mse_norm, mae_raw, mse_raw, n_windows=len(wins))

    # -- persistence -------------------------------------------------------------

    def save_checkpoint(self, path: str):
        arrays = self.model.state_arrays()
        arrays.update(self.opt.state_arrays())
        arrays["trainer/step"] = np.array([self.step_count], dtype=np.int64)
        meta = {"config_hash": config_hash(self.cfg), "seed": self.cfg.seed,
                "step": self.step_count}
        checkpoint.save(path, arrays, meta)

    def load_checkpoint(self, path: str):
        """Restore model, optimizer and step count; a refused checkpoint, including one
        holding an array memdiff never writes, raises DataError before any of them is
        written."""
        arrays, meta = checkpoint.load(path)
        step = checkpoint.counter(arrays, "trainer/step")
        ours = {name for name in arrays
                if name == "trainer/step" or name.startswith(("param/", "adam/", "episodic/"))}
        checkpoint.refuse_extra(arrays, "", ours)
        for write in [self.model.reader(arrays), self.opt.reader(arrays)]:
            write()
        self.step_count = step
        return meta
