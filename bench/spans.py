"""Span recorder for the benchmark's traced runs.

The recorder wraps memdiff's public functions and methods where the
program looks them up: module attributes (``memdiff.trainer.select_special``
is the name the trainer calls, not ``memdiff.episodic.select_special``),
class attributes (``Adam.step``) and, for the two MLP backward passes that
share one method, attributes of a single model instance. Nothing in the
program is edited; ``uninstall`` puts every original back.

Each span records its name, start, end, parent span, run id (one training
step or one forecast window) and the benchmark phase it ran in. Spans stay
in memory in flat int64 columns and are written out once, at the end. A
span's self time is its duration minus the durations of its children, so
the self times of every span under a root add up to the root's duration.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

import numpy as np

# Benchmark phases a span can belong to; only SETUP and TIMED are reported.
SETUP, UNTIMED, TIMED = 0, 1, 2

# (module, attribute path, span name). The span name is the per-layer
# metric it feeds. Two targets may share a span name when together they
# form one layer (forward and backward of the compactness losses, the four
# prior/head functions, the two samplers).
TARGETS = [
    ("memdiff.trainer", "Trainer.fit", "data.batch_ms"),
    ("memdiff.trainer", "Trainer.training_step", "trainer.step_self_ms"),
    ("memdiff.trainer", "Trainer.evaluate", "trainer.evaluate_self_ms"),
    ("memdiff.trainer", "Trainer.save_checkpoint", "checkpoint.save_ms"),
    ("memdiff.trainer", "Trainer.load_checkpoint", "checkpoint.load_ms"),
    ("memdiff.trainer", "draw_step_randomness", "model.draws_ms"),
    ("memdiff.trainer", "select_special", "episodic.update_ms"),
    ("memdiff.nn", "Adam.step", "nn.adam_ms"),
    ("memdiff.nn", "ParamStore.clip_global_norm", "nn.clip_ms"),
    ("memdiff.nn", "ParamStore.zero_grads", "nn.zero_grads_ms"),
    ("memdiff.episodic", "EpisodicStore.recall", "episodic.recall_ms"),
    ("memdiff.episodic", "EpisodicStore.recall_backward", "episodic.recall_bwd_ms"),
    ("memdiff.episodic", "EpisodicStore.update", "episodic.update_ms"),
    ("memdiff.semantic", "SemanticMemory.recall", "semantic.recall_ms"),
    ("memdiff.semantic", "SemanticMemory.recall_backward", "semantic.recall_bwd_ms"),
    ("memdiff.semantic", "SemanticMemory.losses", "semantic.losses_ms"),
    ("memdiff.semantic", "SemanticMemory.losses_backward", "semantic.losses_ms"),
    ("memdiff.semantic", "SemanticMemory.rejitter", "semantic.rejitter_ms"),
    ("memdiff.conditioning", "encode_rows", "conditioning.encode_ms"),
    ("memdiff.conditioning", "encode", "conditioning.encode_ms"),
    ("memdiff.conditioning", "memory_prior", "conditioning.prior_head_ms"),
    ("memdiff.conditioning", "memory_prior_backward", "conditioning.prior_head_ms"),
    ("memdiff.conditioning", "condition_head", "conditioning.prior_head_ms"),
    ("memdiff.conditioning", "condition_head_backward", "conditioning.prior_head_ms"),
    ("memdiff.denoiser", "step_embedding", "denoiser.step_embed_ms"),
    ("memdiff.denoiser", "denoise_rows", "denoiser.fwd_ms"),
    ("memdiff.denoiser", "ddim_sample", "denoiser.sample_self_ms"),
    ("memdiff.denoiser", "ddpm_sample", "denoiser.sample_self_ms"),
    ("memdiff.model", "ForecastModel.loss", "model.loss_self_ms"),
    ("memdiff.model", "ForecastModel.forecast", "model.forecast_self_ms"),
]

# Per-model-instance targets: encoder and denoiser are both `Mlp`, so
# their backward passes are told apart by wrapping each instance.
INSTANCE_TARGETS = [
    ("enc", "backward", "conditioning.encode_bwd_ms"),
    ("den", "backward", "denoiser.bwd_ms"),
]

# A new run id starts at each of these spans.
OP_SPANS = {"trainer.step_self_ms", "model.forecast_self_ms"}

# Spans set up outside the timed loop; reported per call, not per op.
PER_CALL_SPANS = {"data.prepare_ms", "checkpoint.save_ms", "checkpoint.load_ms"}

# Every self-time metric the recorder can report, in output order.
SPAN_METRICS = ["data.prepare_ms"] + list(dict.fromkeys(
    [name for _, _, name in TARGETS] + [name for _, _, name in INSTANCE_TARGETS]))


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self):
        self.phase = SETUP
        self.names: "list[str]" = []
        self._ids: "dict[str, int]" = {}
        self.cols = {key: array("q") for key in ("name", "parent", "start", "end", "run", "phase")}
        self.counts: "dict[tuple[str, int], int]" = {}   # (counter, phase) -> total
        self.missing: "list[str]" = []
        self._stack = [-1]
        self._run = -1
        self._runs = 0
        self._patches: "list[tuple[object, str, bool, object]]" = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, count_rows: bool = False):
        """Return fn wrapped in a span; count_rows also tallies arg rows."""
        nid = self._intern(name)
        is_op = name in OP_SPANS
        c = self.cols
        names, parents, starts, ends, runs, phases = (
            c["name"], c["parent"], c["start"], c["end"], c["run"], c["phase"])
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self
        row_key = name.replace("_ms", "_rows")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            outer_run = tracer._run
            if is_op:
                tracer._runs += 1
                tracer._run = tracer._runs
            if count_rows:
                key = (row_key, tracer.phase)
                tracer.counts[key] = tracer.counts.get(key, 0) + np.atleast_2d(args[1]).shape[0]
            names.append(nid)
            parents.append(stack[-1])
            runs.append(tracer._run)
            phases.append(tracer.phase)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
                tracer._run = outer_run

        return traced

    def call(self, name: str, fn, *args):
        """Run fn(*args) inside a span opened by the benchmark itself."""
        return self.wrap(fn, name)(*args)

    def _patch(self, owner, attr: str, name: str, count_rows: bool = False):
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        setattr(owner, attr, self.wrap(original, name, count_rows))
        self._patches.append((owner, attr, own, original))

    def install(self):
        """Wrap every module and class target; missing ones are listed."""
        for module_name, path, name in TARGETS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            try:
                for part in parents:
                    owner = getattr(owner, part)
                getattr(owner, attr)
            except AttributeError:
                self._note_missing(f"{module_name}.{path}")
                continue
            self._patch(owner, attr, name, count_rows=name == "episodic.recall_ms")

    def install_model(self, model):
        """Wrap the per-instance targets of one ForecastModel."""
        for member, attr, name in INSTANCE_TARGETS:
            owner = getattr(model, member, None)
            if owner is None or not hasattr(owner, attr):
                self._note_missing(f"ForecastModel.{member}.{attr}")
                continue
            self._patch(owner, attr, name)

    def _note_missing(self, target: str):
        if target not in self.missing:
            self.missing.append(target)

    def uninstall(self):
        for owner, attr, own, original in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # -- aggregation ----------------------------------------------------

    def arrays(self) -> "dict[str, np.ndarray]":
        return {key: np.frombuffer(col, dtype=np.int64) for key, col in self.cols.items()}

    def summary(self) -> dict:
        """Self time and call count per span name, per phase, plus root time.

        Returns {"self_ns": {phase: {name: ns}}, "calls": {phase: {name: n}},
        "root_ns": {phase: ns}}.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        nested = a["parent"] >= 0
        np.add.at(child, a["parent"][nested], dur[nested])
        self_ns = dur - child
        out = {"self_ns": {}, "calls": {}, "root_ns": {}}
        for phase in (SETUP, TIMED):
            sel = a["phase"] == phase
            totals = np.bincount(a["name"][sel], weights=self_ns[sel], minlength=len(self.names))
            calls = np.bincount(a["name"][sel], minlength=len(self.names))
            out["self_ns"][phase] = {n: float(totals[i]) for i, n in enumerate(self.names)}
            out["calls"][phase] = {n: int(calls[i]) for i, n in enumerate(self.names)}
            out["root_ns"][phase] = float(dur[sel & ~nested].sum())
        return out

    def write(self, path: str):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
