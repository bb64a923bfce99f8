import dataclasses
import json
import os
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from memdiff.cli import build_parser, run
from memdiff.config import TrainConfig, config_hash, load_config, parse_config_text, resolved_text
from memdiff.errors import UsageError

TINY = """
[model]
lookback = 8
horizon = 4
n_channels = 2
latent_dim = 4
enc_hidden = [8]
den_hidden = [16]
embed_dim = 8

[diffusion]
diffusion_steps = 4

[memory]
semantic_size = 3
episodic_size = 4
queue_size = 2
recall_top_k = 2

[train]
batch_size = 4
epochs = 1

[data]
dataset = "synthetic"

[synth]
synth_length = 400
synth_channels = 2
"""


@pytest.fixture
def tiny_cfg_file(tmp_path):
    path = tmp_path / "c.toml"
    path.write_text(TINY)
    return str(path)


def read_matrix_csv(path: str) -> np.ndarray:
    lines = Path(path).read_text().strip().splitlines()
    return np.array([[float(v) for v in line.split(",")] for line in lines[1:]])


def loaded_trainer(cfg_file: str, out: str, *overrides: str):
    """The Trainer and synthetic dataset that a CLI run under out builds, with
    out's checkpoint loaded."""
    from memdiff import SynthSpec, Trainer, prepare, synth_generate
    cfg = load_config(cfg_file, [f"out_dir={out}", *overrides])
    ds, _ = synth_generate(SynthSpec(length=cfg.synth_length, channels=cfg.synth_channels,
                                     noise=cfg.synth_noise, motif_rate=cfg.synth_motif_rate),
                           cfg.seed)
    trainer = Trainer(cfg, prepare(cfg, ds))
    trainer.load_checkpoint(os.path.join(out, "checkpoint.bin"))
    return trainer, ds


class TestConfig:
    def test_parse_sections_and_values(self):
        vals = parse_config_text(TINY)
        assert vals["lookback"] == 8
        assert vals["dataset"] == "synthetic"
        assert vals["enc_hidden"] == [8]

    def test_bare_strings_accepted(self):
        assert parse_config_text("missing_policy = ffill")["missing_policy"] == "ffill"

    def test_unknown_key_rejected(self):
        with pytest.raises(UsageError, match="unknown key"):
            parse_config_text("nonsense = 3")

    def test_garbled_line_rejected(self):
        with pytest.raises(UsageError, match="line 2"):
            parse_config_text("lookback = 8\njust words\n")

    def test_overrides_win(self, tiny_cfg_file):
        cfg = load_config(tiny_cfg_file, ["lookback=16", "train.lr=0.01"])
        assert cfg.lookback == 16
        assert cfg.lr == 0.01

    def test_resolved_text_roundtrip(self, tiny_cfg_file):
        cfg = load_config(tiny_cfg_file, ["seed=9"])
        text = resolved_text(cfg)
        reparsed = parse_config_text(text)
        cfg2 = TrainConfig(**{k: tuple(v) if k == "split_ratios" and v is not None else v
                              for k, v in reparsed.items()})
        assert config_hash(cfg) == config_hash(cfg2)

    def test_integral_values_convert_to_int(self):
        cfg = load_config(None, ["epochs=2.0", "batch_size=4", "enc_hidden=[8.0]",
                                 "split_ratios=[7.0, 1, 2]"])
        assert (cfg.epochs, cfg.batch_size, cfg.enc_hidden, cfg.split_ratios) == (2, 4, [8], (7, 1, 2))
        assert all(type(v) is int for v in (cfg.epochs, *cfg.enc_hidden, *cfg.split_ratios))

    @pytest.mark.parametrize("raw,want", [
        ("true", True), ("false", False), ("1", True), ("0", False), ("YES", True),
        ("off", False), ('"On"', True), ('"no"', False)])
    def test_boolean_values(self, raw, want):
        assert load_config(None, [f"use_episodic={raw}"]).use_episodic is want

    def test_quoted_number_is_a_string(self):
        assert load_config(None, ['csv_path="5"']).csv_path == "5"

    def test_ratios_default_by_dataset(self):
        assert TrainConfig(dataset="ETTh1").ratios() == (3, 1, 2)
        assert TrainConfig(dataset="weather").ratios() == (7, 1, 2)
        assert TrainConfig(dataset="ETTh1", split_ratios=(7, 1, 2)).ratios() == (7, 1, 2)

    def test_validation_errors(self):
        with pytest.raises(UsageError):
            TrainConfig(queue_size=99).validate()
        with pytest.raises(UsageError):
            TrainConfig(embed_dim=7).validate()
        with pytest.raises(UsageError):
            TrainConfig(alpha1=-0.1).validate()


class TestCliCommands:
    def test_synth_writes_dataset(self, tmp_path, tiny_cfg_file):
        out = str(tmp_path / "out")
        # synth reads no data, so a csv_path it has yet to write is no error
        assert run(["synth", "--config", tiny_cfg_file, "--out", out, "--seed", "3",
                    "--set", f"csv_path={out}/synthetic.csv"]) == 0
        assert os.path.exists(os.path.join(out, "synthetic.csv"))
        assert os.path.exists(os.path.join(out, "resolved_config"))
        stats = json.loads(Path(out, "dataset_stats.json").read_text())
        assert stats["channels"] == 2

    def test_train_twice_byte_identical_checkpoints(self, tmp_path, tiny_cfg_file):
        blobs = []
        for sub in ("a", "b"):
            out = str(tmp_path / sub)
            code = run(["train", "--config", tiny_cfg_file, "--seed", "7", "--out", out])
            assert code == 0
            with open(os.path.join(out, "checkpoint.bin"), "rb") as f:
                blobs.append(f.read())
        assert blobs[0] == blobs[1]

    def test_train_then_evaluate_and_forecast(self, tmp_path, tiny_cfg_file):
        out = str(tmp_path / "run")
        assert run(["train", "--config", tiny_cfg_file, "--out", out, "--seed", "1"]) == 0
        assert os.path.exists(os.path.join(out, "training.log"))
        assert run(["evaluate", "--config", tiny_cfg_file, "--out", out, "--seed", "1"]) == 0
        metrics = json.loads(Path(out, "metrics.json").read_text())
        assert {"mae", "mse", "mae_raw", "mse_raw"} <= set(metrics)
        assert run(["forecast", "--config", tiny_cfg_file, "--out", out, "--seed", "1",
                    "--substeps", "2"]) == 0
        lines = Path(out, "forecasts.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 4  # header + horizon rows
        sidecar = json.loads(Path(out, "forecasts.json").read_text())
        assert sidecar["substeps"] == 2 and sidecar["seed"] == 1

    @pytest.mark.parametrize("substeps", ["0", "5"])
    def test_substeps_flag_out_of_range_is_usage_error(self, tmp_path, tiny_cfg_file, capsys,
                                                       substeps):
        out = tmp_path / "run"
        assert run(["forecast", "--config", tiny_cfg_file, "--out", str(out),
                    "--substeps", substeps]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "UsageError" and err["exit_code"] == 1
        assert f"got {substeps}" in err["message"]
        assert not out.exists()

    def test_substeps_reach_evaluate_and_forecast_through_the_config(self, tmp_path,
                                                                       tiny_cfg_file):
        out = str(tmp_path / "run")
        assert run(["train", "--config", tiny_cfg_file, "--out", out, "--seed", "5"]) == 0
        metrics = {}
        for substeps in ("1", "2"):
            assert run(["evaluate", "--config", tiny_cfg_file, "--out", out, "--seed", "5",
                        "--substeps", substeps]) == 0
            metrics[substeps] = json.loads(Path(out, "metrics.json").read_text())
        assert run(["forecast", "--config", tiny_cfg_file, "--out", out, "--seed", "5",
                    "--substeps", "2"]) == 0
        got = read_matrix_csv(os.path.join(out, "forecasts.csv"))

        trainer, ds = loaded_trainer(tiny_cfg_file, out, "seed=5", "substeps=2")
        want = trainer.evaluate("test").as_dict()
        assert {key: metrics["2"][key] for key in want} == want
        assert metrics["1"]["mse"] != metrics["2"]["mse"]
        stats = trainer.data.stats
        pred = trainer.model.forecast(stats.normalize(ds.values[-trainer.cfg.lookback:]),
                                      np.random.default_rng(trainer.forecast_seed))
        np.testing.assert_array_equal(got, stats.denormalize(pred))

    def test_export_scores_match_forward_pass(self, tmp_path, tiny_cfg_file):
        out = str(tmp_path / "run")
        assert run(["train", "--config", tiny_cfg_file, "--out", out, "--seed", "2"]) == 0
        assert run(["export-scores", "--config", tiny_cfg_file, "--out", out,
                    "--seed", "2"]) == 0
        got = read_matrix_csv(os.path.join(out, "scores_semantic.csv"))

        # recompute the same forward pass from the checkpoint
        trainer, _ = loaded_trainer(tiny_cfg_file, out, "seed=2")
        sem, _ = trainer.model.attention_scores(trainer.data.test[0].lookback)
        np.testing.assert_array_equal(got, sem)

    def test_ablate_rows(self, tmp_path, tiny_cfg_file):
        out = str(tmp_path / "ablate")
        code = run(["ablate", "--config", tiny_cfg_file, "--out", out, "--seed", "4",
                    "--set", "epochs=1", "--set", "synth_length=300"])
        assert code == 0
        lines = Path(out, "ablation.csv").read_text().strip().splitlines()
        assert lines[0] == "variant,mae,mse,mae_raw,mse_raw"
        names = [line.split(",")[0] for line in lines[1:]]
        assert names == ["full", "w/o-semantic", "w/o-episodic", "w/o-both"]
        # each variant's directory holds the resolved config it ran under
        semantic = {name: load_config(os.path.join(out, name.replace("/", "_"),
                                                   "resolved_config")).use_semantic
                    for name in names}
        assert semantic == {"full": True, "w/o-semantic": False, "w/o-episodic": True,
                            "w/o-both": False}

    def test_unknown_variant(self, tmp_path, tiny_cfg_file, capsys):
        code = run(["ablate", "--config", tiny_cfg_file, "--out", str(tmp_path / "x"),
                    "--variants", "nope"])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "UsageError"

    def test_usage_error_is_machine_readable(self, capsys):
        code = run(["train", "--config", "/does/not/exist"])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["exit_code"] == 1

    def test_unknown_flag(self, capsys):
        assert run(["train", "--frobnicate"]) == 1

    @pytest.mark.parametrize("command", ["synth", "train", "evaluate", "forecast", "ablate",
                                         "export-scores"])
    def test_unwritable_output_directory_is_usage_error(self, tmp_path, tiny_cfg_file, capsys,
                                                        command):
        a_file = tmp_path / "a_file"   # a regular file as parent: root ignores chmod
        a_file.write_text("")
        code = run([command, "--config", tiny_cfg_file, "--out", str(a_file / "out")])
        err = capsys.readouterr().err.splitlines()
        assert code == 1 and len(err) == 1
        payload = json.loads(err[0])
        assert payload["error"] == "UsageError" and payload["exit_code"] == 1
        assert payload["message"].startswith(f"cannot write to output directory {a_file}/out: ")

    def test_unwritable_variant_directory_is_usage_error(self, tmp_path, tiny_cfg_file, capsys):
        out = tmp_path / "d"
        out.mkdir()
        (out / "full").write_text("")   # the variant's directory is taken by a regular file
        code = run(["ablate", "--config", tiny_cfg_file, "--out", str(out), "--variants", "full"])
        err = capsys.readouterr().err.splitlines()
        assert code == 1 and len(err) == 1
        payload = json.loads(err[0])
        assert payload["error"] == "UsageError" and payload["exit_code"] == 1
        assert payload["message"].startswith(f"cannot write to output directory {out}/full: ")

    def test_missing_checkpoint_is_data_error(self, tmp_path, tiny_cfg_file, capsys):
        code = run(["evaluate", "--config", tiny_cfg_file, "--out", str(tmp_path / "none")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DataError"

    def test_unreadable_checkpoint_is_data_error(self, tmp_path, tiny_cfg_file, capsys):
        out = tmp_path / "run"
        (out / "checkpoint.bin").mkdir(parents=True)   # there, but not a file
        code = run(["evaluate", "--config", tiny_cfg_file, "--out", str(out)])
        lines = capsys.readouterr().err.strip().splitlines()
        assert code == 2 and len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "DataError" and err["exit_code"] == 2
        assert err["message"].startswith(f"cannot read checkpoint {out}/checkpoint.bin: ")

    @pytest.fixture
    def overflowing_run(self, tmp_path, tiny_cfg_file):
        """Arguments of a trained run on a CSV whose last 20 rows, all in the test split and
        the last lookback, hold b = 1e300; the training run's metrics.json is removed."""
        values = np.random.default_rng(0).standard_normal((400, 2))
        values[-20:, 1] = 1e300
        data = tmp_path / "huge.csv"
        data.write_text("a,b\n" + "".join(f"{a!r},{b!r}\n" for a, b in values.tolist()))
        args = ["--config", tiny_cfg_file, "--out", str(tmp_path / "run"),
                "--set", f"csv_path={data}"]
        assert run(["train", *args]) == 0
        (tmp_path / "run" / "metrics.json").unlink()
        return args

    @pytest.mark.parametrize("command,doing,output", [
        ("evaluate", "evaluating the test split: ", "metrics.json"),
        ("forecast", "forecasting past the end of the data: ", "forecasts.csv"),
    ])
    def test_overflow_is_numeric_error(self, tmp_path, overflowing_run, capsys, command, doing,
                                       output):
        capsys.readouterr()
        assert run([command, *overflowing_run]) == 3
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "NumericError" and err["exit_code"] == 3
        assert err["message"].startswith(doing + "overflow")
        assert not (tmp_path / "run" / output).exists()

    @pytest.fixture
    def trained_run(self, tmp_path, tiny_cfg_file):
        """A trained run's directory, its metrics.json removed."""
        out = tmp_path / "run"
        assert run(["train", "--config", tiny_cfg_file, "--out", str(out)]) == 0
        (out / "metrics.json").unlink()
        return out

    @pytest.mark.parametrize("command,output", [("evaluate", "metrics.json"),
                                                ("forecast", "forecasts.csv")])
    def test_nan_parameter_is_data_error(self, trained_run, tiny_cfg_file, capsys, command,
                                         output):
        from memdiff import checkpoint
        out = trained_run
        arrays, meta = checkpoint.load(str(out / "checkpoint.bin"))
        checkpoint.save(str(out / "checkpoint.bin"),
                        {**arrays, "param/encoder/b0": np.full(8, np.nan)}, meta)
        capsys.readouterr()
        assert run([command, "--config", tiny_cfg_file, "--out", str(out)]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "DataError" and err["exit_code"] == 2
        assert err["message"] == ("checkpoint array 'param/encoder/b0' (float64) "
                                  "is not all finite float64")
        assert not (out / output).exists()

    def test_nan_metric_is_numeric_error(self, trained_run, tiny_cfg_file, capsys):
        # a nan episodic pattern propagates quietly, past the floating-point error checks
        from memdiff import checkpoint
        out = trained_run
        arrays, meta = checkpoint.load(str(out / "checkpoint.bin"))
        patterns = arrays["episodic/patterns"].copy()
        patterns[0, 0, 0] = np.nan
        checkpoint.save(str(out / "checkpoint.bin"), {**arrays, "episodic/patterns": patterns},
                        meta)
        capsys.readouterr()
        assert run(["evaluate", "--config", tiny_cfg_file, "--out", str(out)]) == 3
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "NumericError" and err["exit_code"] == 3
        assert err["message"].startswith('non-finite metrics {"mae": NaN')
        assert not (out / "metrics.json").exists()

    def test_truncated_checkpoint_is_data_error(self, tmp_path, tiny_cfg_file, capsys):
        out = str(tmp_path / "run")
        assert run(["train", "--config", tiny_cfg_file, "--out", out, "--seed", "1"]) == 0
        ckpt = os.path.join(out, "checkpoint.bin")
        with open(ckpt, "rb") as f:
            blob = f.read()
        with open(ckpt, "wb") as f:
            f.write(blob[:40])
        capsys.readouterr()
        assert run(["evaluate", "--config", tiny_cfg_file, "--out", out, "--seed", "1"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DataError" and "checkpoint.bin" in err["message"]

    @pytest.mark.parametrize("train_sets,eval_sets,message", [
        ([], ["shared_memory=false"], "(3, 4) != (6, 4) for parameter 'semantic/blocks'"),
        (["use_semantic=false"], ["use_semantic=false", "shared_memory=false"],
         "episodic/patterns is shaped (1, 6, 4), expected (2, records, 4)"),
        ([], ["episodic_size=2"], "capacity 2"),
        ([], ["use_semantic=false"], "does not: 'param/semantic/blocks'"),
        ([], ["use_episodic=false"], "does not: 'episodic/birth_counter'"),
    ])
    def test_checkpoint_of_another_config_is_data_error(self, tmp_path, tiny_cfg_file, capsys,
                                                         train_sets, eval_sets, message):
        def sets(items):
            return [arg for item in items for arg in ("--set", item)]

        out = str(tmp_path / "run")
        assert run(["train", "--config", tiny_cfg_file, "--out", out, "--seed", "1",
                    *sets(train_sets)]) == 0
        capsys.readouterr()
        assert run(["evaluate", "--config", tiny_cfg_file, "--out", out, "--seed", "1",
                    *sets(eval_sets)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DataError" and err["exit_code"] == 2
        assert message in err["message"]

    @pytest.mark.parametrize("change,message", [
        ({"adam/t": np.zeros(0, dtype=np.int64)}, "'adam/t'"),
        ({"trainer/step": np.zeros(0, dtype=np.int64)}, "'trainer/step'"),
        ({"adam/m/ghost": np.ones(3), "adam/v/ghost": np.ones(3)}, "does not: 'adam/m/ghost'"),
        ({"adam/m/encoder/b0": np.ones(3)}, "(3,) != (8,) for parameter 'encoder/b0'"),
    ], ids=["empty-adam-t", "empty-trainer-step", "ghost-moments", "misshapen-moment"])
    def test_malformed_optimizer_or_step_state_is_data_error(self, tmp_path, tiny_cfg_file,
                                                             capsys, change, message):
        from memdiff import checkpoint
        out = str(tmp_path / "run")
        assert run(["train", "--config", tiny_cfg_file, "--out", out, "--seed", "1"]) == 0
        ckpt = os.path.join(out, "checkpoint.bin")
        arrays, meta = checkpoint.load(ckpt)
        checkpoint.save(ckpt, {**arrays, **change}, meta)
        capsys.readouterr()
        assert run(["evaluate", "--config", tiny_cfg_file, "--out", out, "--seed", "1"]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "DataError" and err["exit_code"] == 2
        assert message in err["message"]

    @pytest.mark.parametrize("setting,message", [
        ("checkpoint_every=0", "checkpoint_every must be positive, got 0"),
        ("grad_clip=0", "grad_clip must be positive, got 0.0"),
        ("grad_clip=-1", "grad_clip must be positive, got -1.0"),
        ("lr=0", "lr must be positive, got 0.0"),
        ("lr=-1", "lr must be positive, got -1.0"),
        ("lr=nan", "lr must be positive, got nan"),
        ("lr=inf", "lr must be finite, got inf"),
        # the tiny config has diffusion_steps = 4
        ("substeps=0", "substeps must lie in 1..diffusion_steps (4), got 0"),
        ("substeps=5", "substeps must lie in 1..diffusion_steps (4), got 5"),
        ("threads=1", "unknown key 'threads'"),
        ("epochs=-1", "epochs must be nonnegative, got -1"),
        ("max_steps=-1", "max_steps must be nonnegative, got -1"),
        ("patience=-1", "patience must be nonnegative, got -1"),
        ("stride_train=0", "stride_train must be positive, got 0"),
        ("stride_eval=-1", "stride_eval must be nonnegative, got -1"),
        ("schedule_kind=cosine", "unknown key 'schedule_kind'"),
        ("schedule_kind=linear", "unknown key 'schedule_kind'"),
        ("lr=abc", "lr cannot take the value 'abc'"),
        ("epochs=abc", "epochs cannot take the value 'abc'"),
        ("enc_hidden=[\"a\"]", "enc_hidden cannot take the value ['a']"),
        ("split_ratios=5", "split_ratios cannot take the value 5"),
        ("beta_max=1.5", "need 0 < beta_min <= beta_max < 1, got (0.05, 1.5)"),
        ("beta_min=0", "need 0 < beta_min <= beta_max < 1, got (0.0, 0.55)"),
        ("beta_min=0.6", "need 0 < beta_min <= beta_max < 1, got (0.6, 0.55)"),
        ("beta_max=nan", "need 0 < beta_min <= beta_max < 1, got (0.05, nan)"),
        ("epochs=1.5", "epochs cannot take the value 1.5"),
        ("batch_size=2.9", "batch_size cannot take the value 2.9"),
        ("epochs=true", "epochs cannot take the value True"),
        ("enc_hidden=[8.5]", "enc_hidden cannot take the value [8.5]"),
        ("den_hidden=[16,true]", "den_hidden cannot take the value [16, True]"),
        ("split_ratios=[7,1.5,2]", "split_ratios cannot take the value [7, 1.5, 2]"),
        ("enc_hidden=[-3]", "enc_hidden widths must be positive, got [-3]"),
        ("den_hidden=[-1]", "den_hidden widths must be positive, got [-1]"),
        ("den_hidden=[0]", "den_hidden widths must be positive, got [0]"),
        ("split_ratios=[1,0,1]", "split_ratios must be three positive integers, got [1, 0, 1]"),
        ("split_ratios=[1,2]", "split_ratios must be three positive integers, got [1, 2]"),
        ("synth_length=-5", "synth_length must be positive, got -5"),
        ("synth_channels=-1", "synth_channels must be positive, got -1"),
        ("synth_channels=0", "synth_channels must be positive, got 0"),
        ("synth_channels=3", "n_channels patterns per episodic update exceed queue_size"),
        ("use_episodic=flase", "use_episodic cannot take the value 'flase'"),
        ("use_episodic=maybe", "use_episodic cannot take the value 'maybe'"),
        ("use_episodic=null", "use_episodic cannot take the value None"),
        ("use_episodic=[1]", "use_episodic cannot take the value [1]"),
        ("use_episodic=0.5", "use_episodic cannot take the value 0.5"),
        ("use_episodic=2", "use_episodic cannot take the value 2"),
        ("lr=true", "lr cannot take the value True"),
        ("csv_path=5", "csv_path cannot take the value 5"),
        ("out_dir=5", "out_dir cannot take the value 5"),
        ("dataset=null", "dataset cannot take the value None"),
        ("alpha1=nan", "alpha1 must be finite, got nan"),
        ("alpha2=inf", "alpha2 must be finite, got inf"),
        ("log_var_init=nan", "log_var_init must be finite, got nan"),
        ("log_var_init=-inf", "log_var_init must be finite, got -inf"),
        ("margin=nan", "margin must be finite, got nan"),
        ("margin=inf", "margin must be finite, got inf"),
        ("synth_noise=nan", "synth_noise must be finite and nonnegative, got nan"),
        ("synth_noise=inf", "synth_noise must be finite and nonnegative, got inf"),
        ("synth_noise=-1", "synth_noise must be finite and nonnegative, got -1.0"),
        ("synth_motif_rate=inf", "synth_motif_rate must lie in [0, 1], got inf"),
        ("synth_motif_rate=nan", "synth_motif_rate must lie in [0, 1], got nan"),
        ("synth_motif_rate=-0.5", "synth_motif_rate must lie in [0, 1], got -0.5"),
        ("synth_motif_rate=1.5", "synth_motif_rate must lie in [0, 1], got 1.5"),
    ])
    def test_invalid_config_value_is_usage_error(self, tmp_path, tiny_cfg_file, capsys,
                                                 setting, message):
        out = tmp_path / "run"
        assert run(["train", "--config", tiny_cfg_file, "--out", str(out),
                    "--set", setting]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "UsageError" and err["exit_code"] == 1
        assert message in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("setting", ["synth_motif_rate=inf", "synth_motif_rate=nan",
                                         "synth_noise=nan", "synth_noise=-1"])
    def test_synth_refuses_a_bad_setting_before_writing(self, tmp_path, tiny_cfg_file, capsys,
                                                        setting):
        out = tmp_path / "run"
        assert run(["synth", "--config", tiny_cfg_file, "--out", str(out),
                    "--set", setting]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "UsageError" and setting.split("=")[0] in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("command,sets,message", [
        ("synth", ["synth_noise=1e308"], "synth_noise=1e+308 overflows the synthetic series"),
        ("train", ["synth_noise=1e308"], "synth_noise=1e+308 overflows the synthetic series"),
        ("train", ["synth_noise=1e200", "max_steps=2"],
         "train-segment channels [0, 1]: mean or std overflows float64"),
        ("train", ["csv"], "train-segment channels [1]: mean or std overflows float64"),
    ])
    def test_huge_finite_data_is_data_error(self, tmp_path, tiny_cfg_file, capsys, command,
                                            sets, message):
        """A finite series too large to normalize exits 2 naming its cause, with no
        numpy RuntimeWarning and no NaN metrics."""
        if sets == ["csv"]:
            path = tmp_path / "huge.csv"
            path.write_text("a,b\n" + "".join(f"{i % 7},{(-1) ** i}e200\n" for i in range(400)))
            sets = [f"csv_path={path}", "dataset=huge"]
        out = tmp_path / "run"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run([command, "--config", tiny_cfg_file, "--out", str(out),
                        *[arg for item in sets for arg in ("--set", item)]])
        lines = capsys.readouterr().err.strip().splitlines()
        assert code == 2 and len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "DataError" and err["exit_code"] == 2
        assert message in err["message"]
        assert not (out / "metrics.json").exists()

    def test_n_channels_comes_from_the_data(self, tmp_path, tiny_cfg_file):
        # n_channels = 7 alone would exceed queue_size = 3; the data has 3 channels
        out = tmp_path / "run"
        assert run(["train", "--config", tiny_cfg_file, "--out", str(out), "--set",
                    "n_channels=7", "--set", "synth_channels=3", "--set", "queue_size=3"]) == 0
        resolved = load_config(str(out / "resolved_config"))
        assert resolved.n_channels == 3
        metrics = json.loads((out / "metrics.json").read_text())
        assert config_hash(resolved) == metrics["config_hash"]

    @pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
    def test_unreadable_csv_is_data_error(self, tmp_path, tiny_cfg_file, capsys, kind):
        path = tmp_path / "input.csv"
        if kind == "directory":
            path.mkdir()
        elif kind == "not-utf8":
            path.write_bytes(b"ch0,ch1\n1.0,\xff\n")
        out = tmp_path / "run"
        assert run(["train", "--config", tiny_cfg_file, "--out", str(out),
                    "--set", f"csv_path={path}", "--set", "dataset=mine"]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "DataError" and str(path) in err["message"]
        assert not out.exists()

    def test_checkpoint_of_the_per_group_layout_is_data_error(self, tmp_path, tiny_cfg_file,
                                                              capsys):
        """A checkpoint that keys the episodic store by group and by main/queue part,
        the layout before whole-store arrays, is refused."""
        from memdiff import checkpoint
        out = str(tmp_path / "run")
        assert run(["train", "--config", tiny_cfg_file, "--out", out, "--seed", "1"]) == 0
        ckpt = os.path.join(out, "checkpoint.bin")
        arrays, meta = checkpoint.load(ckpt)
        main = int(arrays.pop("episodic/main")[0])
        old = {"episodic/0/birth_counter": arrays.pop("episodic/birth_counter")}
        for name in ("patterns", "freqs", "births"):
            column = arrays.pop(f"episodic/{name}")[0]
            old[f"episodic/0/entries/{name}"] = column[:main]
            old[f"episodic/0/queue/{name}"] = column[main:]
        checkpoint.save(ckpt, {**arrays, **old}, meta)
        capsys.readouterr()
        assert run(["evaluate", "--config", tiny_cfg_file, "--out", out, "--seed", "1"]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "DataError" and err["exit_code"] == 2
        assert "does not: 'episodic/0/birth_counter'" in err["message"]
        assert "(written under another config or an older memdiff?)" in err["message"]

    @pytest.mark.parametrize("where", ["set", "file"])
    def test_removed_precision_key_is_usage_error(self, tmp_path, tiny_cfg_file, capsys, where):
        args = ["--config", tiny_cfg_file, "--set", "precision=double"]
        if where == "file":
            path = tmp_path / "old.toml"
            path.write_text(TINY.replace("[model]\n", '[model]\nprecision = "double"\n'))
            args = ["--config", str(path)]
        assert run(["train", *args, "--out", str(tmp_path / "run")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "UsageError" and err["exit_code"] == 1
        assert "unknown key 'precision'" in err["message"]

    def test_threads_flag_is_usage_error(self, tmp_path, tiny_cfg_file, capsys):
        """BLAS threads come from the environment only; the removed flag is refused."""
        out = tmp_path / "run"
        assert run(["train", "--config", tiny_cfg_file, "--out", str(out), "--threads", "2"]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "UsageError" and "--threads" in err["message"]
        assert not out.exists()

    def test_resolved_config_of_an_older_memdiff(self, tmp_path, tiny_cfg_file, capsys):
        """A snapshot holding the removed schedule_kind and threads keys is refused, and
        loads again once those two lines are deleted."""
        current = resolved_text(load_config(tiny_cfg_file))
        old = current.replace("beta_min =", 'schedule_kind = "linear-scaled"\nbeta_min =')
        old = old.replace("out_dir =", "threads = 1\nout_dir =")
        path = tmp_path / "resolved_config"
        path.write_text(old)
        out = tmp_path / "run"
        assert run(["train", "--config", str(path), "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "UsageError" and "unknown key 'schedule_kind'" in err["message"]
        assert not out.exists()
        kept = [line for line in old.splitlines()
                if not line.startswith(("schedule_kind", "threads"))]
        path.write_text("\n".join(kept) + "\n")
        assert resolved_text(load_config(str(path))) == current

    def test_input_files_not_mutated(self, tmp_path):
        from memdiff.data import dataset_to_csv, synth_generate as gen
        from memdiff import SynthSpec
        ds, _ = gen(SynthSpec(length=420, channels=2), seed=0)
        csv_path = tmp_path / "input.csv"
        csv_path.write_text(dataset_to_csv(ds))
        before = csv_path.read_bytes()
        out = str(tmp_path / "out")
        code = run(["train", "--set", f"csv_path={csv_path}", "--set", "dataset=mine",
                    "--set", "lookback=8", "--set", "horizon=4", "--set", "n_channels=2",
                    "--set", "latent_dim=4", "--set", "enc_hidden=[8]",
                    "--set", "den_hidden=[16]", "--set", "embed_dim=8",
                    "--set", "diffusion_steps=4", "--set", "semantic_size=3",
                    "--set", "episodic_size=4", "--set", "queue_size=2",
                    "--set", "recall_top_k=2", "--set", "epochs=1",
                    "--set", "batch_size=4", "--out", out])
        assert code == 0
        assert csv_path.read_bytes() == before


class TestReadme:
    """README's lists of config fields and flags, and the package names it cites, track
    the code."""

    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

    def between(self, start: str, end: str) -> str:
        return self.text.split(start, 1)[1].split(end, 1)[0]

    def test_main_fields_are_the_config_fields(self):
        bullets = self.between("Main fields and defaults:", "\n## ")
        names = set(re.findall(r"`([a-z][a-z0-9_]*)`", bullets))
        assert names == {f.name for f in dataclasses.fields(TrainConfig)}

    def test_package_names_resolve(self):
        import memdiff
        names = re.findall(r"`memdiff\.([A-Za-z_]\w*)", self.text)
        for imported in re.findall(r"^from memdiff import (.+)$", self.text, re.M):
            names += [name.strip() for name in imported.split(",")]
        assert names and [name for name in names if not hasattr(memdiff, name)] == []

    def test_flags_line_is_the_parser_options(self):
        listed = set(re.findall(r"`(--[a-z-]+)", self.between("Flags:", "\n\n")))
        subparsers = build_parser()._subparsers._group_actions[0].choices.values()
        options = {opt for sub in subparsers for action in sub._actions
                   for opt in action.option_strings if opt not in ("-h", "--help")}
        assert listed == options
