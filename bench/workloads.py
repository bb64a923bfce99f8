"""The benchmark's workloads, their timed loops and their output checks.

A run repeats episodes until its time is up. A train episode builds the
data and a fresh Trainer from the workload seed, fits a few warm-up steps
so the episodic store is full, then fits a fixed number of timed steps
through ``Trainer.fit``. A forecast episode loads the checkpoint of a
briefly trained model into a fresh Trainer, then times ``Trainer.evaluate``
over the stride-1 test split and a block of single-window forecasts.
Every episode of a run repeats the same computation, so the outputs of all
episodes must agree bit for bit; that also shows the tracer changes
nothing.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field

import numpy as np

from memdiff import SynthSpec, TrainConfig, Trainer, prepare, synth_generate
from memdiff.data import surprise_motifs
from memdiff.denoiser import sampling_steps

from spans import SETUP, TIMED, UNTIMED


@dataclass
class Episode:
    """Timings of one episode."""

    traced: bool
    setup_s: "list[float]" = field(default_factory=list)
    op_ns: "list[int]" = field(default_factory=list)   # duration of each timed op
    # throughput phase: time from the start of each op to the start of the
    # next (or the end of the phase), so the loop's own work is included
    interval_ns: "list[int]" = field(default_factory=list)
    work_ops: int = 0            # ops in the throughput phase
    work_ns: int = 0             # wall time of that phase


@dataclass
class Tally:
    """What one run measured and checked."""

    episodes: "list[Episode]" = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: "list[str]" = field(default_factory=list)
    fingerprint: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)   # model facts for per-layer figures

    def check(self, ok: bool, problem: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)


def param_digest(model) -> str:
    h = hashlib.sha256()
    for p in model.params:
        h.update(np.ascontiguousarray(p.values).tobytes())
    return h.hexdigest()[:16]


def check_steps(tally: Tally, history):
    """Every step must be finite (loss and gradient norm) and not aborted."""
    bad = [r for r in history
           if r.aborted or not np.isfinite(r.total) or not np.isfinite(r.grad_norm)]
    tally.attempted += len(history)
    tally.failed += len(bad)
    tally.problems += [f"step {r.step}: aborted={r.aborted} total={r.total} {r.reason}"
                       for r in bad[:5]]


def check_capacity(tally: Tally, model, cfg: TrainConfig, window) -> int:
    """Episodic records, read through the public attention-score export."""
    _, epi = model.attention_scores(window.lookback)
    records = 0 if epi is None else epi.shape[1]
    tally.check(records <= cfg.episodic_size + cfg.queue_size,
                f"episodic store holds {records} records, capacity "
                f"{cfg.episodic_size} + queue {cfg.queue_size}")
    return records


def timed_calls(obj, attr: str, durations: "list[int]", starts: "list[int]"):
    """Record the start and the duration of every obj.attr(...) call."""
    inner = getattr(obj, attr)
    clock = time.perf_counter_ns

    def timed(*args, **kwargs):
        t0 = clock()
        out = inner(*args, **kwargs)
        durations.append(clock() - t0)
        starts.append(t0)
        return out

    setattr(obj, attr, timed)


def intervals(starts: "list[int]", end_ns: int) -> "list[int]":
    """Start-to-start times of consecutive ops; the last one runs to end_ns."""
    return np.diff(np.asarray(starts + [end_ns], dtype=np.int64)).tolist()


def _span(tracer, name, fn, *args):
    return fn(*args) if tracer is None else tracer.call(name, fn, *args)


def _set_phase(tracer, phase):
    if tracer is not None:
        tracer.phase = phase


# -- configurations ------------------------------------------------------

def ablation_config(seed: int) -> TrainConfig:
    """The `full` variant of the acceptance suite's criterion 7 (its hot loop)."""
    return TrainConfig(
        lookback=24, horizon=8, n_channels=4, latent_dim=16,
        enc_hidden=[32], den_hidden=[64, 64], embed_dim=8,
        diffusion_steps=10, semantic_size=16, episodic_size=48, queue_size=16,
        recall_top_k=5, batch_size=16, epochs=10 ** 9, lr=1e-3,
        alpha1=0.0, alpha2=0.0, dataset="synthetic", seed=seed,
    ).validate()


def ablation_spec(cfg: TrainConfig) -> SynthSpec:
    """Criterion 7's surprise-motif series."""
    return SynthSpec(length=1200, channels=4, sinusoids=[(24.0, 0.4)],
                     channel_phase=0.35, motifs=surprise_motifs(),
                     motif_rate=0.012, motif_amp=4.0, noise=0.25)


def default_config(seed: int, **overrides) -> TrainConfig:
    """`memdiff train` defaults on the built-in synthetic dataset (4 channels)."""
    return TrainConfig(n_channels=TrainConfig.synth_channels, seed=seed, **overrides).validate()


def default_spec(cfg: TrainConfig) -> SynthSpec:
    """The series `memdiff train` generates for the synthetic dataset."""
    return SynthSpec(length=cfg.synth_length, channels=cfg.synth_channels,
                     noise=cfg.synth_noise, motif_rate=cfg.synth_motif_rate)


def _load(cfg: TrainConfig, spec_fn, seed: int):
    ds, _ = synth_generate(spec_fn(cfg), seed)
    return prepare(cfg, ds)


# -- workloads -----------------------------------------------------------

@dataclass
class TrainWorkload:
    """Trainer.fit on one configuration; an op is one training step."""

    name: str
    config_fn: object
    spec_fn: object
    warm_steps: int
    timed_steps: int
    setup_reps: int = 5
    kind: str = "train"

    def start(self, seed: int, tally: Tally):
        self.seed = seed
        self.digest = None

    def episode(self, tally: Tally, ep: Episode, tracer, first: bool):
        seed = self.seed
        _set_phase(tracer, SETUP)
        for _ in range(self.setup_reps):
            t0 = time.perf_counter()
            cfg = self.config_fn(seed)
            data = _span(tracer, "data.prepare_ms", _load, cfg, self.spec_fn, seed)
            trainer = Trainer(cfg, data)
            ep.setup_s.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.install_model(trainer.model)

        _set_phase(tracer, UNTIMED)
        cfg.max_steps = self.warm_steps
        trainer.fit()

        _set_phase(tracer, TIMED)
        cfg.max_steps = self.warm_steps + self.timed_steps
        starts = []
        timed_calls(trainer, "training_step", ep.op_ns, starts)
        t0 = time.perf_counter_ns()
        trainer.fit()
        t1 = time.perf_counter_ns()
        ep.work_ns, ep.work_ops = t1 - t0, self.timed_steps
        ep.interval_ns = intervals(starts, t1)
        _set_phase(tracer, UNTIMED)

        check_steps(tally, trainer.history)
        tally.check(len(trainer.history) == self.warm_steps + self.timed_steps,
                    f"fit ran {len(trainer.history)} steps, expected "
                    f"{self.warm_steps + self.timed_steps}")
        records = check_capacity(tally, trainer.model, cfg, data.test[0])

        digest = param_digest(trainer.model)
        if self.digest is None:
            self.digest = digest
        tally.check(digest == self.digest,
                    f"parameters after an episode differ ({digest} vs {self.digest})")
        if first:
            coords = sum(p.values.size for p in trainer.model.params)
            tally.fingerprint = {"param_sha256": digest,
                                 "test_mse": trainer.evaluate("test").mse}
            tally.layers = {
                "param_tensors": len(trainer.model.params),
                "param_coords": coords,
                "param_bytes": sum(p.values.nbytes for p in trainer.model.params),
                "mlp_flop_per_op": mlp_flop(trainer.model, cfg.batch_size * cfg.n_channels,
                                            backward=True),
                "records": records,
                "checkpoint_bytes": 0,
            }


@dataclass
class ForecastWorkload:
    """The `memdiff evaluate` path; an op is one forecast window.

    Setup (timed as setup_s) is: build the data, make a fresh Trainer,
    save the trained model's checkpoint and load it into the fresh one.
    The timed phase is (a) Trainer.evaluate over the stride-1 test split,
    which gives throughput, and (b) single-window ForecastModel.forecast
    calls, which give latency.
    """

    name: str
    single_windows: int
    setup_reps: int = 5
    kind: str = "forecast"

    def start(self, seed: int, tally: Tally):
        self.seed = seed
        self.cfg = default_config(seed, stride_eval=1)
        self.data = _load(self.cfg, default_spec, seed)
        self.trained = Trainer(self.cfg, self.data)
        # just long enough to fill the episodic store and its queue
        self.cfg.max_steps = -(-(self.cfg.episodic_size + self.cfg.queue_size)
                               // self.cfg.n_channels)
        check_steps(tally, self.trained.fit())
        os.makedirs(OUT_DIR, exist_ok=True)
        self.path = os.path.join(OUT_DIR, f"{self.name}.checkpoint.bin")
        self.probe = self.data.test[0].lookback
        self.probe_forecast = self.trained.model.forecast(self.probe, np.random.default_rng(seed))
        self.digest = param_digest(self.trained.model)
        self.eval_result = None

    def episode(self, tally: Tally, ep: Episode, tracer, first: bool):
        cfg = self.cfg
        shape = (cfg.horizon, cfg.n_channels)
        _set_phase(tracer, SETUP)
        for _ in range(self.setup_reps):
            t0 = time.perf_counter()
            fresh = default_config(self.seed, stride_eval=1)
            data = _span(tracer, "data.prepare_ms", _load, fresh, default_spec, self.seed)
            loaded = Trainer(fresh, data)
            self.trained.save_checkpoint(self.path)
            loaded.load_checkpoint(self.path)
            ep.setup_s.append(time.perf_counter() - t0)
        model = loaded.model
        _set_phase(tracer, UNTIMED)

        again = model.forecast(self.probe, np.random.default_rng(self.seed))
        tally.check(np.array_equal(again, self.probe_forecast),
                    "checkpoint round trip changed the probe forecast")
        tally.check(param_digest(model) == self.digest,
                    "checkpoint round trip changed the parameters")
        records = check_capacity(tally, model, cfg, data.test[0])

        checked = [0, 0]   # forecasts made, forecasts bad
        starts = []
        inner = model.forecast
        clock = time.perf_counter_ns

        def forecast(*args, **kwargs):
            starts.append(clock())
            pred = inner(*args, **kwargs)
            checked[0] += 1
            if pred.shape != shape or not np.all(np.isfinite(pred)):
                checked[1] += 1
            return pred

        model.forecast = forecast

        _set_phase(tracer, TIMED)
        t0 = clock()
        result = loaded.evaluate("test")
        t1 = clock()
        ep.work_ns, ep.work_ops = t1 - t0, result.n_windows
        ep.interval_ns = intervals(starts, t1)

        rng = np.random.default_rng(self.seed)
        wins = data.test
        for i in range(self.single_windows):
            lookback = wins[i * 7 % len(wins)].lookback
            t0 = clock()
            model.forecast(lookback, rng)
            ep.op_ns.append(clock() - t0)
        _set_phase(tracer, UNTIMED)

        tally.attempted += checked[0]
        tally.failed += checked[1]
        if checked[1]:
            tally.problems.append(f"{checked[1]} of {checked[0]} forecasts non-finite "
                                  f"or not shaped {shape}")
        tally.check(result.n_windows == len(wins) and np.isfinite(result.mse)
                    and np.isfinite(result.mae), f"evaluate returned {result}")
        if self.eval_result is None:
            self.eval_result = result
        tally.check(result == self.eval_result,
                    f"evaluate differs between episodes ({result} vs {self.eval_result})")
        if first:
            tally.fingerprint = {"param_sha256": self.digest, "test_mse": result.mse}
            tally.layers = {
                "param_tensors": len(model.params),
                "param_coords": sum(p.values.size for p in model.params),
                "param_bytes": 0,   # no optimizer runs here
                "mlp_flop_per_op": mlp_flop(model, cfg.n_channels, backward=False),
                "records": records,
                "checkpoint_bytes": os.path.getsize(self.path),
            }


def mlp_flop(model, rows: int, backward: bool) -> float:
    """Computed MLP floating-point operations per op.

    A dense layer costs 2 * rows * n_in * n_out for its forward matmul;
    the backward pass does two matmuls of the same size (weight and input
    gradients). Inference runs the denoiser once per sampler step.
    """
    cfg = model.cfg

    def dense(widths):
        return sum(2 * rows * a * b for a, b in zip(widths[:-1], widths[1:]))

    enc, den = dense(model.enc.widths), dense(model.den.widths)
    if backward:
        return 3.0 * (enc + den)
    den_calls = (cfg.diffusion_steps if cfg.ancestral
                 else len(sampling_steps(cfg.diffusion_steps, cfg.substeps)))
    return float(enc + den_calls * den)


OUT_DIR = ".bench_out"

# Warm-up steps fill the episodic store (capacity + queue over the
# patterns added per step) before any step is timed. A train-default
# episode lasts about 3 s, so it sets up more often per episode to give
# setup_s about as many set-ups per run as the other workloads.
WORKLOADS = {
    "train-ablation": lambda: TrainWorkload("train-ablation", ablation_config, ablation_spec,
                                            warm_steps=32, timed_steps=240),
    "train-default": lambda: TrainWorkload("train-default", default_config, default_spec,
                                           warm_steps=28, timed_steps=150, setup_reps=10),
    "forecast": lambda: ForecastWorkload("forecast", single_windows=600),
}

# Step counts for the smoke test: enough to touch every layer, no more.
SMOKE = {
    "train-ablation": {"warm_steps": 2, "timed_steps": 4, "setup_reps": 1},
    "train-default": {"warm_steps": 2, "timed_steps": 3, "setup_reps": 1},
    "forecast": {"single_windows": 5, "setup_reps": 1},
}
