"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete. Criterion 7 trains 4 variants x 5 seeds x 20k
steps and takes a few minutes; criterion 9 is the optional real-dataset
benchmark, enabled by pointing ETTH1_CSV at the ETTh1 csv file (hours of
CPU).
"""

import math
import os
import time

import numpy as np
import pytest

from conftest import tiny_config

from memdiff import (EpisodicStore, ForecastModel, SynthSpec, TrainConfig, Trainer,
                     draw_step_randomness, finite_diff_check, make_schedule,
                     posterior_mean_var, prepare, synth_generate)
from memdiff.attention import clamp_normalize
from memdiff.denoiser import ddim_sample, ddpm_step
from memdiff.semantic import SemanticMemory
from memdiff.nn import ParamStore
from memdiff.trainer import mae, mse


def report(criterion: int, ok: bool, detail: str):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_forward_process_monte_carlo():
    started = time.perf_counter()
    sched = make_schedule(10)
    n = 100_000
    rng = np.random.default_rng(2024)
    x = np.full(n, 1.0)
    worst = 0.0
    for k in range(1, 11):
        x = np.sqrt(1.0 - sched.beta[k - 1]) * x + np.sqrt(sched.beta[k - 1]) * rng.standard_normal(n)
        want_mean = np.sqrt(sched.alpha_bar[k - 1])
        want_var = 1.0 - sched.alpha_bar[k - 1]
        se_mean = np.sqrt(want_var / n)
        se_var = want_var * np.sqrt(2.0 / (n - 1))
        dev_mean = abs(x.mean() - want_mean) / se_mean
        dev_var = abs(x.var() - want_var) / se_var
        worst = max(worst, dev_mean, dev_var)
    elapsed = time.perf_counter() - started
    report(1, worst < 3.0 and elapsed < 30.0,
           f"MC composition, worst deviation {worst:.2f} SE over all k, {elapsed:.1f}s")


def test_criterion_2_posterior_bayes_product():
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(3):
        sched = make_schedule(10, beta=rng.uniform(0.01, 0.6, size=10))
        x0, xk = rng.standard_normal(2)
        for k in range(2, 11):
            mean, var = posterior_mean_var(np.array(x0), np.array(xk), k, sched)
            a_k, b_k = sched.alpha[k - 1], sched.beta[k - 1]
            abar_prev = sched.alpha_bar_prev(k)
            prec = a_k / b_k + 1.0 / (1.0 - abar_prev)
            want_var = 1.0 / prec
            want_mean = want_var * (np.sqrt(a_k) * xk / b_k
                                    + np.sqrt(abar_prev) * x0 / (1.0 - abar_prev))
            worst = max(worst, abs(float(mean) - want_mean), abs(var - want_var))
    elapsed = time.perf_counter() - started
    report(2, worst < 1e-10 and elapsed < 1.0,
           f"Bayes-product vs posterior algebra, worst |diff| {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_gradient_exactness_tiny_config():
    started = time.perf_counter()
    cfg = tiny_config()  # L=8 H=4 N=2 d=4 N1=3 N2=4 N3=2 K=4 batch=2, float64
    assert (cfg.lookback, cfg.horizon, cfg.n_channels, cfg.latent_dim) == (8, 4, 2, 4)
    assert (cfg.semantic_size, cfg.episodic_size, cfg.queue_size) == (3, 4, 2)
    assert cfg.diffusion_steps == 4 and cfg.batch_size == 2
    rng = np.random.default_rng(99)
    model = ForecastModel(cfg, np.random.default_rng(3))
    for _ in range(3):
        model.episodic.update(rng.standard_normal((cfg.n_channels, cfg.latent_dim)))
    batch_x = rng.standard_normal((2, cfg.lookback, cfg.n_channels))
    batch_y = rng.standard_normal((2, cfg.horizon, cfg.n_channels))
    draws = draw_step_randomness(rng, cfg, 2)

    def loss():
        return model.loss(batch_x, batch_y, draws, compute_grad=False).total

    model.params.zero_grads()
    model.loss(batch_x, batch_y, draws)
    rep = finite_diff_check(loss, model.params, tolerance=1e-4, h=1e-5)
    elapsed = time.perf_counter() - started
    report(3, rep.passed and elapsed < 60.0,
           f"all {rep.n_checked} coordinates, max rel err {rep.max_rel_error:.2e} "
           f"(worst {rep.worst_param}), {elapsed:.1f}s")


def test_criterion_4_attention_normalization():
    rng = np.random.default_rng(11)
    ok = True
    for _ in range(1000):
        n_blocks = int(rng.integers(1, 9))
        dim = int(rng.integers(2, 7))
        scores = rng.uniform(-1.0, 1.0, size=(1, n_blocks))
        weights, _ = clamp_normalize(scores)
        ok &= bool(np.all(weights >= 0.0)) and abs(weights.sum() - 1.0) < 1e-6
    # module-level check through both recall paths
    store = ParamStore()
    sem = SemanticMemory(store.register("b", rng.standard_normal((5, 4))))
    epi = EpisodicStore(dim=4, capacity=6, queue_capacity=3, recall_top_k=3)
    for _ in range(3):
        epi.update(rng.standard_normal((2, 4)))
    queries = rng.standard_normal((1000, 4))
    _, sem_trace = sem.recall(queries)
    _, epi_trace = epi.recall(queries)
    ok &= bool(np.all(sem_trace.weights >= 0.0))
    ok &= bool(np.max(np.abs(sem_trace.weights.sum(axis=-1) - 1.0)) < 1e-6)
    ok &= bool(np.all(epi_trace.weights >= 0.0))
    ok &= bool(np.max(np.abs(epi_trace.weights.sum(axis=-1) - 1.0)) < 1e-6)
    # single-block memory returns the block exactly
    single = SemanticMemory(ParamStore().register("one", rng.standard_normal((1, 4))))
    out, _ = single.recall(rng.standard_normal((3, 4)))
    ok &= bool(np.allclose(out, single.blocks.values[0], atol=1e-12))
    report(4, ok, "recall weights nonnegative, sum 1 +/- 1e-6; N1=1 recall exact")


def test_criterion_5_algorithm_oracle_and_fuzz():
    # scripted hand simulation (N2=4, N3=2, k=2)
    def unit(deg):
        return np.array([math.cos(math.radians(deg)), math.sin(math.radians(deg))])

    p = {i: unit(20.0 * (i - 1)) for i in range(1, 9)}
    store = EpisodicStore(dim=2, capacity=4, queue_capacity=2, recall_top_k=1)
    store.update(np.stack([p[1], p[2]]))
    store.update(np.stack([p[3], p[4]]))
    store.update(np.stack([p[5], p[6]]))
    ok = [np.array_equal(r.pattern, p[i]) for r, i in zip(store.entries, (1, 2, 3, 4))]
    ok.append(np.array_equal(store.queue[0].pattern, p[5]))
    for target, times in ((2, 2), (3, 1), (5, 1)):
        for _ in range(times):
            store.count(store.recall(p[target][None, :])[1])
    store.update(np.stack([p[7], p[8]]))
    ok += [np.array_equal(r.pattern, p[i]) for r, i in zip(store.entries, (2, 3, 5, 1))]
    ok += [np.array_equal(store.queue[0].pattern, p[7]),
           np.array_equal(store.queue[1].pattern, p[8])]
    ok.append(all(r.freq == 0 for r in store.entries))
    scripted_ok = all(ok)

    # randomized fuzz: 10k operations
    n2, n3, k = 4, 2, 2
    protect = math.ceil(n3 / k)
    rng = np.random.default_rng(5)
    fuzz = EpisodicStore(dim=3, capacity=n2, queue_capacity=n3, recall_top_k=2)
    queued_at = {}
    updates = 0
    fuzz_ok = True
    for _ in range(10_000):
        if rng.random() < 0.5:
            fuzz.count(fuzz.recall(rng.standard_normal((2, 3)))[1])
        else:
            pats = rng.standard_normal((k, 3))
            fuzz.update(pats)
            updates += 1
            in_queue = {rec.pattern.tobytes() for rec in fuzz.queue}
            for pat in pats:
                if pat.tobytes() in in_queue:
                    queued_at[pat.tobytes()] = updates
            live = in_queue | {rec.pattern.tobytes() for rec in fuzz.entries}
            for key, born in list(queued_at.items()):
                if updates - born < protect:
                    fuzz_ok &= key in live
                else:
                    del queued_at[key]
            fuzz_ok &= all(rec.freq == 0 for rec in fuzz.entries)
        fuzz_ok &= len(fuzz.entries) <= n2 and len(fuzz.queue) <= n3
    report(5, scripted_ok and fuzz_ok,
           f"scripted state match {scripted_ok}, 10k-op fuzz invariants {fuzz_ok}")


def test_criterion_6_sampler_identities():
    sched = make_schedule(10)
    rng = np.random.default_rng(17)
    ok = True
    # zero-noise ancestral step equals the posterior mean at 1e-12, all k
    y_k = rng.standard_normal((6, 3))
    y0_hat = rng.standard_normal((6, 3))
    for k in range(1, 11):
        stepped = ddpm_step(y_k, k, y0_hat, sched, None)
        mean, _ = posterior_mean_var(y0_hat, y_k, k, sched)
        ok &= bool(np.max(np.abs(stepped - mean)) < 1e-12)
    # oracle denoiser recovers the target exactly at substeps 1 and K
    truth = rng.standard_normal((6, 3))
    for substeps in (1, 10):
        out = ddim_sample(lambda y, k: truth, 6, 3, sched, substeps,
                          np.random.default_rng(0))
        ok &= bool(np.max(np.abs(out - truth)) < 1e-10)
    # fixed-seed forecasts are bit-identical across runs
    cfg = tiny_config()
    model = ForecastModel(cfg, np.random.default_rng(1))
    x0 = rng.standard_normal((cfg.lookback, cfg.n_channels))
    a = model.forecast(x0, np.random.default_rng(123))
    b = model.forecast(x0, np.random.default_rng(123))
    ok &= bool(np.array_equal(a, b))
    report(6, ok, "ddpm/posterior identity 1e-12; oracle DDIM exact; bit-identical forecasts")


ABLATION_VARIANTS = {
    "full": {},
    "w/o-semantic": {"use_semantic": False},
    "w/o-episodic": {"use_episodic": False},
    "w/o-both": {"use_semantic": False, "use_episodic": False},
}


def ablation_config(seed: int, **overrides) -> TrainConfig:
    base = dict(
        lookback=24, horizon=8, n_channels=4, latent_dim=16,
        enc_hidden=[32], den_hidden=[64, 64], embed_dim=8,
        diffusion_steps=10, semantic_size=16, episodic_size=48, queue_size=16,
        recall_top_k=5, batch_size=16, epochs=10 ** 9, max_steps=20_000, lr=1e-3,
        alpha1=0.0, alpha2=0.0, dataset="synthetic", seed=seed,
    )
    base.update(overrides)
    return TrainConfig(**base).validate()


def ablation_dataset(seed: int):
    from memdiff.data import surprise_motifs

    spec = SynthSpec(length=1200, channels=4, sinusoids=[(24.0, 0.4)],
                     channel_phase=0.35, motifs=surprise_motifs(),
                     motif_rate=0.012, motif_amp=4.0, noise=0.25)
    ds, _ = synth_generate(spec, seed)
    return ds


@pytest.mark.slow
def test_criterion_7_memory_ablation_direction():
    seeds = [0, 1, 2, 3, 4]
    results = {name: [] for name in ABLATION_VARIANTS}
    per_seed_times = []
    for seed in seeds:
        started = time.perf_counter()
        ds = ablation_dataset(seed)
        for name, overrides in ABLATION_VARIANTS.items():
            cfg = ablation_config(seed, **overrides)
            trainer = Trainer(cfg, prepare(cfg, ds))
            trainer.fit()
            results[name].append(trainer.evaluate("test").mse)
        per_seed_times.append(time.perf_counter() - started)
    means = {name: float(np.mean(vals)) for name, vals in results.items()}
    improvement = 1.0 - means["full"] / means["w/o-both"]
    tol = 1e-9
    order_sem = sum(results["full"][i] <= results["w/o-semantic"][i] + tol
                    and results["w/o-semantic"][i] <= results["w/o-both"][i] + tol
                    for i in range(len(seeds)))
    order_epi = sum(results["full"][i] <= results["w/o-episodic"][i] + tol
                    and results["w/o-episodic"][i] <= results["w/o-both"][i] + tol
                    for i in range(len(seeds)))
    ok = improvement >= 0.10 and order_sem >= 4 and order_epi >= 4
    ok &= max(per_seed_times) < 600.0
    report(7, ok,
           f"mean MSE full={means['full']:.4f} vs w/o-both={means['w/o-both']:.4f} "
           f"({improvement * 100:.1f}% better); w/o-semantic between in {order_sem}/5, "
           f"w/o-episodic between in {order_epi}/5; "
           f"slowest seed {max(per_seed_times):.0f}s")


def test_criterion_8_channel_sharing():
    rng = np.random.default_rng(23)
    col = rng.standard_normal(8)
    other = rng.standard_normal(8)
    x0 = np.stack([col, col, other], axis=1)
    ok = True
    for shared, expect_dup in ((True, True), (False, False)):
        cfg = tiny_config(n_channels=3, synth_channels=3, episodic_size=6, queue_size=3,
                          shared_memory=shared)
        model = ForecastModel(cfg, np.random.default_rng(4))
        for _ in range(3):
            model.episodic.update(rng.standard_normal((3, cfg.latent_dim)))
        c, _ = model.condition_for(x0)
        pred = model.forecast(x0, np.random.default_rng(6))
        same_memory = np.array_equal(c[:, 0], c[:, 1])
        same_forecast = np.array_equal(pred[:, 0], pred[:, 1])
        ok &= (same_memory == expect_dup) and (same_forecast == expect_dup)
    report(8, ok, "duplicated channel duplicates recall+forecast iff shared_memory")


@pytest.mark.stretch
@pytest.mark.skipif("ETTH1_CSV" not in os.environ,
                    reason="stretch benchmark: set ETTH1_CSV to the ETTh1 csv path")
def test_criterion_9_etth1_stretch():
    from memdiff import load_csv

    cfg = TrainConfig(
        dataset="ETTh1", csv_path=os.environ["ETTH1_CSV"],
        lookback=336, horizon=168, n_channels=7, latent_dim=64,
        semantic_size=64, episodic_size=70, queue_size=35, recall_top_k=5,
        batch_size=32, epochs=int(os.environ.get("ETTH1_EPOCHS", "20")),
        lr=1e-3, alpha1=0.0, alpha2=0.0, seed=0,
    ).validate()
    ds = load_csv(cfg.csv_path, "ETTh1")
    cfg.n_channels = ds.n_channels
    trainer = Trainer(cfg, prepare(cfg, ds))
    trainer.fit()
    result = trainer.evaluate("test")
    report(9, result.mae <= 0.50, f"ETTh1 H=168 test MAE {result.mae:.3f} (target <= 0.50)")


def test_criterion_10_metrics_hand_fixture():
    truth = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    pred = np.array([[1.0, 1.0, 5.0], [2.0, 5.0, 6.5]])
    # |diff| = [0, 1, 2, 2, 0, 0.5] -> MAE 5.5/6; squares -> MSE 9.25/6
    ok = mae(truth, pred) == 5.5 / 6.0 and mse(truth, pred) == 9.25 / 6.0
    ok &= mae(truth, truth) == 0.0 and mse(truth, truth) == 0.0
    report(10, ok, "MAE/MSE reproduce the 2x3 hand fixtures exactly")
