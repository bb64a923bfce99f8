"""Smoke test of the benchmark: a tiny step count on every workload.

    python -m pytest bench/test_smoke.py -q

Checks that every metric BENCHMARK.json names is emitted with its unit,
that the traced self times add up to the traced loop, that each layer
reads nonzero on the workloads that run it, and that the command fails
when an output check fails or when it has no memdiff sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
from spans import PER_CALL_SPANS, SPAN_METRICS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

TRAIN_LAYERS = [
    "data.prepare_ms", "data.batch_ms", "trainer.step_self_ms", "model.draws_ms",
    "model.loss_self_ms", "nn.adam_ms", "nn.clip_ms", "nn.zero_grads_ms",
    "episodic.recall_ms", "episodic.recall_bwd_ms", "episodic.update_ms",
    "semantic.recall_ms", "semantic.recall_bwd_ms", "semantic.losses_ms",
    "semantic.rejitter_ms", "conditioning.encode_ms", "conditioning.encode_bwd_ms",
    "conditioning.prior_head_ms", "denoiser.step_embed_ms", "denoiser.fwd_ms",
    "denoiser.bwd_ms", "nn.adam_mb_per_step", "nn.adam_gbps",
]
FORECAST_LAYERS = [
    "data.prepare_ms", "trainer.evaluate_self_ms", "model.forecast_self_ms",
    "denoiser.sample_self_ms", "checkpoint.save_ms", "checkpoint.load_ms",
    "episodic.recall_ms", "semantic.recall_ms", "conditioning.encode_ms",
    "conditioning.prior_head_ms", "denoiser.step_embed_ms", "denoiser.fwd_ms",
    "checkpoint.bytes",
]
EVERYWHERE = ["nn.param_tensors", "nn.param_coords", "nn.mlp_mflop_per_step",
              "nn.mlp_gflops", "episodic.records", "episodic.recall_rows", "trace.loop_ms"]


def bench(workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_named_with_units(workload):
    metrics = result_of(bench(workload, 0))["metrics"]
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in metrics.items()} == want
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_named_and_accounted(workload):
    metrics = result_of(bench(workload, 1))["metrics"]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in metrics.items()} == want
    values = {name: m["value"] for name, m in metrics.items()}

    running = TRAIN_LAYERS if workload.startswith("train") else FORECAST_LAYERS
    assert [name for name in running + EVERYWHERE if values[name] <= 0] == []
    if workload == "forecast":   # the memory layers are read-only here
        assert values["nn.adam_ms"] == values["episodic.update_ms"] == 0

    self_times = [n for n in SPAN_METRICS if n not in PER_CALL_SPANS]
    assert sum(values[n] for n in self_times) == pytest.approx(values["trace.loop_ms"], rel=1e-9)


def test_failed_output_check_exits_nonzero(monkeypatch, capsys):
    run.import_memdiff()
    import memdiff.model

    forecast = memdiff.model.ForecastModel.forecast
    monkeypatch.setattr(memdiff.model.ForecastModel, "forecast",
                        lambda self, *args, **kwargs: forecast(self, *args, **kwargs) * np.nan)
    monkeypatch.chdir(ROOT)
    code = run.main(["--workload", "forecast", "--seed", "0", "--seconds", "0", "--smoke"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert not result["correct"] and result["failed"] > 0


def test_fails_without_memdiff_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
