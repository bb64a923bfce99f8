"""Command-line entry point.

Commands: train, forecast, evaluate, ablate, export-scores, synth. Every
run writes a resolved-config snapshot beside its outputs, derives all
randomness from the single seed, and reports failures as machine-readable
JSON on stderr with the exit-code taxonomy 1=usage, 2=data, 3=numeric,
4=internal invariant.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys

import numpy as np

from .config import TrainConfig, config_hash, load_config, resolved_text
from .data import Dataset, SynthSpec, dataset_to_csv, load_csv, matrix_csv, synth_generate
from .errors import DataError, MemdiffError, UsageError
from .trainer import EvalResult, Trainer, prepare

VARIANTS = {
    "full": {},
    "w/o-semantic": {"use_semantic": False},
    "w/o-episodic": {"use_episodic": False},
    "w/o-both": {"use_semantic": False, "use_episodic": False},
    "w/o-shared": {"shared_memory": False},
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="memdiff", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, descr in [
        ("train", "fit a model and write a checkpoint"),
        ("forecast", "forecast past the end of the dataset from a checkpoint"),
        ("evaluate", "compute test metrics from a checkpoint"),
        ("ablate", "train and evaluate memory-ablation variants"),
        ("export-scores", "dump semantic/episodic attention-score CSVs"),
        ("synth", "generate the synthetic benchmark CSV"),
    ]:
        p = sub.add_parser(name, help=descr)
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--substeps", type=int, default=None)
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       dest="overrides", help="config override (repeatable)")
        if name == "ablate":
            p.add_argument("--variants", default="full,w/o-semantic,w/o-episodic,w/o-both",
                           help="comma-separated variant names")
    return parser


def _resolve_config(args) -> "tuple[TrainConfig, Dataset | None]":
    """The run's validated config and its CSV dataset (None for synthetic data and for
    synth). n_channels comes from the data, so both are read before any output is written."""
    cfg = load_config(args.config, args.overrides)
    for key, value in (("seed", args.seed), ("out_dir", args.out), ("substeps", args.substeps)):
        if value is not None:
            setattr(cfg, key, value)
    synth = args.command == "synth"   # writes synthetic data and reads none
    csv_data = None
    if cfg.csv_path and not synth:
        csv_data = load_csv(cfg.csv_path, cfg.dataset, cfg.missing_policy)
    elif cfg.dataset != "synthetic" and not synth:
        raise DataError(f"dataset {cfg.dataset!r} has no csv_path and is not synthetic")
    cfg.n_channels = csv_data.n_channels if csv_data is not None else cfg.synth_channels
    return cfg.validate(), csv_data


def _write(path: str, text: str):
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def _snapshot(cfg: TrainConfig) -> str:
    """Create the run's output directory and write resolved_config into it; a directory
    that cannot be made or written is a usage error, like an unreadable --config."""
    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
        _write(os.path.join(cfg.out_dir, "resolved_config"), resolved_text(cfg))
    except OSError as exc:
        raise UsageError(f"cannot write to output directory {cfg.out_dir}: {exc}") from exc
    return cfg.out_dir


def _synthetic(cfg: TrainConfig) -> "tuple[Dataset, list[tuple[int, int, int]]]":
    spec = SynthSpec(length=cfg.synth_length, channels=cfg.synth_channels,
                     noise=cfg.synth_noise, motif_rate=cfg.synth_motif_rate)
    return synth_generate(spec, cfg.seed)


def _prepared_trainer(cfg: TrainConfig, csv_data: "Dataset | None", fit: bool,
                      out_dir: str) -> "tuple[Trainer, Dataset]":
    ds = csv_data if csv_data is not None else _synthetic(cfg)[0]
    data = prepare(cfg, ds)
    _write(os.path.join(out_dir, "dataset_stats.json"),
           ds.stats_json((len(data.train), len(data.val), len(data.test))))
    trainer = Trainer(cfg, data)
    ckpt = os.path.join(out_dir, "checkpoint.bin")
    if fit:
        _write(os.path.join(out_dir, "schedule.csv"), trainer.model.sched.to_csv())
        with open(os.path.join(out_dir, "training.log"), "w", encoding="utf-8") as logf:
            trainer.fit(log_stream=logf, checkpoint_path=ckpt)
        trainer.save_checkpoint(ckpt)
    else:
        if not os.path.exists(ckpt):
            raise DataError(f"no checkpoint at {ckpt}; run train first")
        trainer.load_checkpoint(ckpt)
    return trainer, ds


def _write_metrics(out_dir: str, result: EvalResult, **extra):
    _write(os.path.join(out_dir, "metrics.json"),
           json.dumps({**result.as_dict(), **extra}, sort_keys=True))


def cmd_train(cfg: TrainConfig, trainer: Trainer, ds: Dataset, out: str):
    _write_metrics(out, trainer.evaluate("val"), split="val", config_hash=config_hash(cfg),
                   seed=cfg.seed)


def cmd_evaluate(cfg: TrainConfig, trainer: Trainer, ds: Dataset, out: str):
    _write_metrics(out, trainer.evaluate("test"), split="test", config_hash=config_hash(cfg),
                   seed=cfg.seed, substeps=cfg.substeps)


def cmd_forecast(cfg: TrainConfig, trainer: Trainer, ds: Dataset, out: str):
    stats = trainer.data.stats
    lookback = stats.normalize(ds.values[-cfg.lookback:])
    rng = np.random.default_rng(trainer.forecast_seed)
    pred = stats.denormalize(trainer.model.forecast(lookback, rng))
    _write(os.path.join(out, "forecasts.csv"), matrix_csv(pred, ds.channel_names))
    _write(os.path.join(out, "forecasts.json"), json.dumps(
        {"config_hash": config_hash(cfg), "seed": cfg.seed, "substeps": cfg.substeps},
        sort_keys=True))


def cmd_export_scores(cfg: TrainConfig, trainer: Trainer, ds: Dataset, out: str):
    sem, epi = trainer.model.attention_scores(trainer.data.test[0].lookback)
    if sem is not None:
        _write(os.path.join(out, "scores_semantic.csv"),
               matrix_csv(sem, [f"block{i}" for i in range(sem.shape[1])]))
    if epi is not None and epi.size:
        _write(os.path.join(out, "scores_episodic.csv"),
               matrix_csv(epi, [f"record{i}" for i in range(epi.shape[1])]))


TRAINER_COMMANDS = {"train": cmd_train, "evaluate": cmd_evaluate, "forecast": cmd_forecast,
                    "export-scores": cmd_export_scores}


def cmd_ablate(cfg: TrainConfig, csv_data: "Dataset | None", variants: str, out: str):
    names = [v.strip() for v in variants.split(",") if v.strip()]
    for name in names:
        if name not in VARIANTS:
            raise UsageError(f"unknown variant {name!r}; choose from {sorted(VARIANTS)}")
    rows = []
    for name in names:
        vcfg = dataclasses.replace(cfg, out_dir=os.path.join(out, name.replace("/", "_")),
                                   **VARIANTS[name]).validate()
        vout = _snapshot(vcfg)
        trainer, _ = _prepared_trainer(vcfg, csv_data, fit=True, out_dir=vout)
        result = trainer.evaluate("test")
        rows.append((name, result))
        _write_metrics(vout, result, variant=name, seed=cfg.seed)
    with open(os.path.join(out, "ablation.csv"), "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["variant", "mae", "mse", "mae_raw", "mse_raw"])
        for name, r in rows:
            writer.writerow([name, repr(r.mae), repr(r.mse), repr(r.mae_raw), repr(r.mse_raw)])


def cmd_synth(cfg: TrainConfig, out: str):
    ds, injections = _synthetic(cfg)
    _write(os.path.join(out, "synthetic.csv"), dataset_to_csv(ds))
    _write(os.path.join(out, "synthetic_injections.json"),
           json.dumps([{"channel": c, "start": s, "motif": m} for c, s, m in injections]))
    _write(os.path.join(out, "dataset_stats.json"), ds.stats_json())


def run(argv: "list[str] | None" = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg, csv_data = _resolve_config(args)
        out = _snapshot(cfg)
        if args.command == "synth":
            cmd_synth(cfg, out)
        elif args.command == "ablate":
            cmd_ablate(cfg, csv_data, args.variants, out)
        else:
            trainer, ds = _prepared_trainer(cfg, csv_data, fit=args.command == "train",
                                            out_dir=out)
            TRAINER_COMMANDS[args.command](cfg, trainer, ds, out)
        return 0
    except MemdiffError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc),
                          "exit_code": exc.exit_code}), file=sys.stderr)
        return exc.exit_code


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
