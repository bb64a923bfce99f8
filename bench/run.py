"""memdiff benchmark: one workload per process, one JSON result line.

    python3 bench/run.py --workload train-ablation --seed 0 --seconds 20 --trace 0

Run from the repository root. With ``--trace 0`` the last stdout line
carries the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics of a traced run. Earlier lines give the run context,
the per-seed fingerprint and every metric by name and unit. The exit code
is 1 when an output check failed and 2 when memdiff cannot be imported
from ``src/``. See bench/README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s_p99": "1/s",
    "op_ms_p1": "ms",
}

# Timings printed beside the result but not in it: they move with the
# share of the run the host spent in its slow state (see README).
PRINTED = {"ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_p90": "ms"}

# The per-workload names of the op metrics, printed beside the shared ones.
ALIASES = {
    "train": {"ops_per_s_p99": "train_steps_per_s_p99", "op_ms_p1": "train_step_ms_p1",
              "ops_per_s": "train_steps_per_s", "op_ms_p50": "train_step_ms_p50",
              "op_ms_p90": "train_step_ms_p90"},
    "forecast": {"ops_per_s_p99": "forecast_windows_per_s_p99",
                 "op_ms_p1": "forecast_window_ms_p1", "ops_per_s": "forecast_windows_per_s",
                 "op_ms_p50": "forecast_window_ms_p50", "op_ms_p90": "forecast_window_ms_p90"},
}

COMPUTED_UNITS = {
    "nn.param_tensors": "count",
    "nn.param_coords": "count",
    "nn.mlp_mflop_per_step": "MFLOP",
    "nn.mlp_gflops": "GFLOP/s",
    "nn.adam_mb_per_step": "MB",
    "nn.adam_gbps": "GB/s",
    "episodic.records": "count",
    "episodic.recall_rows": "count",
    "checkpoint.bytes": "bytes",
    "trace.loop_ms": "ms",
    "trace.overhead_pct": "%",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["train-ablation", "train-default", "forecast"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed episode loop")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny step counts, for the benchmark's own smoke test")
    args = parser.parse_args(argv)
    if not 0 <= args.seconds <= 600:
        parser.error("--seconds must lie in 0..600")
    return args


def import_memdiff():
    """Import memdiff from this checkout's src/, never from elsewhere."""
    src = Path(__file__).resolve().parent.parent / "src"
    if (src / "memdiff" / "__init__.py").is_file():
        sys.path.insert(0, str(src))
        import memdiff
        if Path(memdiff.__file__).resolve().parent == src / "memdiff":
            return memdiff
    print(f"bench: no memdiff sources under {src}", file=sys.stderr)
    raise SystemExit(2)


def read_cpu_times():
    """(steal, total) jiffies of the whole machine from /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as f:
            fields = [int(v) for v in f.readline().split()[1:]]
    except OSError:
        return None
    steal = fields[7] if len(fields) > 7 else 0
    return steal, sum(fields[:8])


def blas_threads():
    """Threads OpenBLAS will use, asked of the library numpy loaded."""
    import ctypes
    import glob

    import numpy
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def run_context(cpu_start, cpu_end, load_start) -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            model = next((line.split(":", 1)[1].strip() for line in f
                          if line.startswith("model name")), "")
    except OSError:
        pass
    steal_pct = None
    if cpu_start and cpu_end and cpu_end[1] > cpu_start[1]:
        steal_pct = 100.0 * (cpu_end[0] - cpu_start[0]) / (cpu_end[1] - cpu_start[1])
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "blas_threads": blas_threads(),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
        "cpu_steal_pct": steal_pct,
    }


def run_episodes(workload, seed: int, seconds: float, trace: bool):
    """Repeat episodes for `seconds`; in a traced run, every other one is traced."""
    from spans import Tracer
    from workloads import Episode, Tally

    tally = Tally()
    workload.start(seed, tally)
    tracer = Tracer() if trace else None
    end = time.monotonic() + seconds
    k = 0
    # a traced run needs untraced episodes too, for the overhead, in equal number
    while k < 1 + trace or time.monotonic() < end or (trace and k % 2):
        traced = trace and k % 2 == 1
        if traced:
            tracer.install()
        ep = Episode(traced)
        tally.episodes.append(ep)
        try:
            workload.episode(tally, ep, tracer if traced else None, first=k == 0)
        finally:
            if traced:
                tracer.uninstall()
        k += 1
    return tally, tracer, k


def timings(episodes) -> dict:
    """The run's timings, each op pooled over every episode.

    On a shared host contention only adds time, and the host flips
    between a fast and a slow state, for milliseconds or for minutes;
    a median moves with the share of the run spent slow (see README).
    The gated figures are low percentiles over thousands of ops, a
    best-of-repeats estimate like timeit's: the 1st percentile of the op
    durations and of the start-to-start intervals of the throughput
    phase, given as a rate. The set-up time is the median of an
    episode's set-ups, from the episode whose median is lowest.
    """
    import numpy as np

    op_ms = np.concatenate([e.op_ns for e in episodes]) / 1e6
    interval_ms = np.concatenate([e.interval_ns for e in episodes]) / 1e6
    return {
        "setup_s": min(statistics.median(e.setup_s) for e in episodes),
        "ops_per_s_p99": 1e3 / float(np.percentile(interval_ms, 1)),
        "op_ms_p1": float(np.percentile(op_ms, 1)),
        "ops_per_s": sum(e.work_ops for e in episodes) / (sum(e.work_ns for e in episodes) / 1e9),
        "op_ms_p50": float(np.percentile(op_ms, 50)),
        "op_ms_p90": float(np.percentile(op_ms, 90)),
    }


def episode_summary(ep) -> dict:
    return {"traced": ep.traced, "setup_s": statistics.median(ep.setup_s),
            "ops_per_s": ep.work_ops / (ep.work_ns / 1e9),
            "op_ms_p50": statistics.median(ep.op_ns) / 1e6}


def end_to_end_metrics(tally) -> dict:
    found = timings(tally.episodes)
    found["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {name: found[name] for name in END_TO_END}


def per_layer_metrics(tally, tracer, kind: str) -> dict:
    from spans import PER_CALL_SPANS, SETUP, SPAN_METRICS, TIMED

    summary = tracer.summary()
    traced = [e for e in tally.episodes if e.traced]
    untraced = [e for e in tally.episodes if not e.traced]
    timed_ns, calls = summary["self_ns"][TIMED], summary["calls"][TIMED]
    ops = calls.get("trainer.step_self_ms" if kind == "train" else "model.forecast_self_ms", 0)
    if ops == 0:
        raise RuntimeError("traced run recorded no ops")
    out = {}
    for name in SPAN_METRICS:
        if name in PER_CALL_SPANS:
            n = summary["calls"][SETUP].get(name, 0)
            out[name] = summary["self_ns"][SETUP].get(name, 0.0) / n / 1e6 if n else 0.0
        else:
            out[name] = timed_ns.get(name, 0.0) / ops / 1e6
    layers = tally.layers
    mlp_ms = sum(out[n] for n in ("conditioning.encode_ms", "conditioning.encode_bwd_ms",
                                  "denoiser.fwd_ms", "denoiser.bwd_ms"))
    adam_mb = 7 * layers["param_bytes"] / 1e6   # read p, g, m, v; write p, m, v
    out.update({
        "nn.param_tensors": layers["param_tensors"],
        "nn.param_coords": layers["param_coords"],
        "nn.mlp_mflop_per_step": layers["mlp_flop_per_op"] / 1e6,
        "nn.mlp_gflops": layers["mlp_flop_per_op"] / 1e6 / mlp_ms if mlp_ms else 0.0,
        "nn.adam_mb_per_step": adam_mb,
        "nn.adam_gbps": adam_mb / out["nn.adam_ms"] if out["nn.adam_ms"] else 0.0,
        "episodic.records": layers["records"],
        "episodic.recall_rows": tracer.counts.get(("episodic.recall_rows", TIMED), 0) / ops,
        "checkpoint.bytes": layers["checkpoint_bytes"],
        "trace.loop_ms": summary["root_ns"][TIMED] / ops / 1e6,
        "trace.overhead_pct": 100.0 * (timings(traced)["op_ms_p50"]
                                       / timings(untraced)["op_ms_p50"] - 1.0),
    })
    return out


def unit_of(name: str) -> str:
    return END_TO_END.get(name) or PRINTED.get(name) or COMPUTED_UNITS.get(name) or "ms"


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_ENV:          # before numpy is first imported
        os.environ[var] = "1"
    import_memdiff()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import OUT_DIR, SMOKE, WORKLOADS

    workload = WORKLOADS[args.workload]()
    if args.smoke:
        workload = dataclasses.replace(workload, **SMOKE[args.workload])
    cpu_start, load_start = read_cpu_times(), os.getloadavg()
    tally, tracer, episodes = run_episodes(workload, args.seed, args.seconds, bool(args.trace))
    context = run_context(cpu_start, read_cpu_times(), load_start)
    context["episodes"] = episodes

    if args.trace:
        metrics = per_layer_metrics(tally, tracer, workload.kind)
        for target in tracer.missing:
            print(f"bench: trace target {target} not found; its layer reads 0", file=sys.stderr)
    else:
        metrics = end_to_end_metrics(tally)
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}.trace{args.trace}")
    if tracer is not None:
        tracer.write(stem + ".spans.npz")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"episodes {episodes} ops {sum(len(e.op_ns) for e in tally.episodes)}")
    print("context " + json.dumps(context))
    print("fingerprint " + json.dumps(tally.fingerprint))
    for problem in tally.problems:
        print("problem " + problem)
    aliases = ALIASES[workload.kind]
    found = timings(tally.episodes)
    printed = dict(metrics, **{name: found[name] for name in PRINTED})
    for name, value in printed.items():
        alias = f"  ({aliases[name]})" if name in aliases else ""
        print(f"{name} = {value:.6g} {unit_of(name)}{alias}")
    print(f"failed_ratio = {tally.failed / max(tally.attempted, 1):.6g}"
          f"  ({tally.failed} of {tally.attempted})")

    result = {
        "correct": tally.failed == 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    with open(stem + ".result.json", "w", encoding="utf-8") as f:
        json.dump(dict(result, context=context, fingerprint=tally.fingerprint,
                       problems=tally.problems,
                       episodes=[episode_summary(e) for e in tally.episodes]), f, indent=1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
