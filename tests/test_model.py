import copy
import hashlib
import io
import re
import types

import numpy as np
import pytest

from conftest import tiny_config, tiny_trainer

from memdiff import ForecastModel, checkpoint, draw_step_randomness, finite_diff_check, step_embedding
from memdiff import ddpm_sample
from memdiff.conditioning import encode
from memdiff.denoiser import denoise_rows
from memdiff.errors import DataError, NumericError


def seeded_model(cfg, seed=0):
    return ForecastModel(cfg, np.random.default_rng(seed))


def random_batch(cfg, rng, batch=None):
    b = batch or cfg.batch_size
    return (rng.standard_normal((b, cfg.lookback, cfg.n_channels)),
            rng.standard_normal((b, cfg.horizon, cfg.n_channels)))


def populate_episodic(model, rng, updates=3):
    if model.episodic is None:
        return
    for _ in range(updates):
        model.episodic.update(rng.standard_normal((model.cfg.n_channels,
                                                   model.cfg.latent_dim)))


class TestStepRewrite:
    """The step's draws and passes as the rewrite left them: the same draws,
    and no pass writes into an array it did not allocate."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("batch", [1, 16])
    def test_draws_equal_the_five_call_draws(self, seed, batch):
        cfg = tiny_config()
        got = draw_step_randomness(np.random.default_rng(seed), cfg, batch)
        rng = np.random.default_rng(seed)
        block, rows = (batch, cfg.horizon, cfg.n_channels), (batch * cfg.n_channels, cfg.latent_dim)
        want = [rng.integers(1, cfg.diffusion_steps + 1, size=batch),
                rng.standard_normal(block), rng.uniform(0.0, 1.0, size=block),
                rng.standard_normal(rows), rng.standard_normal(rows)]
        for name, value in zip(("k", "eps_forward", "mask", "eps_prior", "eps_cond"), want):
            np.testing.assert_array_equal(getattr(got, name), value, err_msg=name)

    @pytest.mark.parametrize("overrides", [
        {},
        {"shared_memory": False},
        {"condition_uses_query": False},
        {"use_semantic": False, "use_episodic": False},
        {"n_channels": 1, "synth_channels": 1},    # channel rows view the blocks
    ])
    def test_loss_writes_into_no_input_or_parameter(self, overrides, rng):
        cfg = tiny_config(alpha1=0.3, alpha2=0.2, **overrides)
        model = seeded_model(cfg, seed=5)
        populate_episodic(model, rng)
        # batches arrive as views of one gathered block, as Trainer._batches makes them
        spans = rng.standard_normal((cfg.batch_size, cfg.lookback + cfg.horizon, cfg.n_channels))
        batch_x, batch_y = spans[:, :cfg.lookback], spans[:, cfg.lookback:]
        draws = draw_step_randomness(rng, cfg, cfg.batch_size)
        seen = [spans.copy()] + [getattr(draws, f).copy() for f in
                                 ("k", "eps_forward", "mask", "eps_prior", "eps_cond")]
        params = model.params.snapshot()
        model.params.zero_grads()
        model.loss(batch_x, batch_y, draws, compute_grad=True)
        now = [spans] + [getattr(draws, f) for f in
                         ("k", "eps_forward", "mask", "eps_prior", "eps_cond")]
        for before, after in zip(seen, now):
            np.testing.assert_array_equal(after, before)
        for pid, values in params.items():
            np.testing.assert_array_equal(model.params[pid].values, values, err_msg=pid)


class TestStepTable:
    def test_rows_are_step_embeddings(self):
        cfg = tiny_config()
        model = seeded_model(cfg)
        assert model.step_table.shape == (cfg.diffusion_steps, cfg.embed_dim)
        for k in range(1, cfg.diffusion_steps + 1):
            np.testing.assert_array_equal(model.step_table[k - 1],
                                          step_embedding(k, cfg.embed_dim))


class TestLossGradients:
    @pytest.mark.parametrize("overrides", [
        {},                                            # full model
        {"use_semantic": False},
        {"use_episodic": False},
        {"use_semantic": False, "use_episodic": False},
        {"shared_memory": False},
    ])
    def test_full_loss_matches_finite_differences(self, overrides, rng):
        cfg = tiny_config(**overrides)
        model = seeded_model(cfg, seed=3)
        populate_episodic(model, rng)
        batch_x, batch_y = random_batch(cfg, rng)
        draws = draw_step_randomness(rng, cfg, cfg.batch_size)

        def loss():
            return model.loss(batch_x, batch_y, draws, compute_grad=False).total

        model.params.zero_grads()
        out = model.loss(batch_x, batch_y, draws)
        assert np.isfinite(out.total)
        report = finite_diff_check(loss, model.params, tolerance=1e-4,
                                   max_coords_per_param=24, rng=rng)
        assert report.passed, (report.max_rel_error, report.worst_param)


class TestAblationWiring:
    def test_without_both_reduces_to_condition_loss(self, rng):
        cfg = tiny_config(use_semantic=False, use_episodic=False, alpha1=0.0, alpha2=0.0)
        model = seeded_model(cfg)
        batch_x, batch_y = random_batch(cfg, rng)
        out = model.loss(batch_x, batch_y, draw_step_randomness(rng, cfg, 2),
                         compute_grad=False)
        assert out.l1 == 0.0 and out.l2 == 0.0
        assert out.total == out.condition

    def test_semantic_off_zeroes_compactness_losses(self, rng):
        cfg = tiny_config(use_semantic=False, alpha1=0.5, alpha2=0.5)
        model = seeded_model(cfg)
        batch_x, batch_y = random_batch(cfg, rng)
        out = model.loss(batch_x, batch_y, draw_step_randomness(rng, cfg, 2),
                         compute_grad=False)
        assert out.l1 == 0.0 and out.l2 == 0.0

    def test_memory_terms_enter_total(self, rng):
        cfg = tiny_config(alpha1=0.3, alpha2=0.2)
        model = seeded_model(cfg)
        batch_x, batch_y = random_batch(cfg, rng)
        out = model.loss(batch_x, batch_y, draw_step_randomness(rng, cfg, 2),
                         compute_grad=False)
        assert out.l1 > 0.0
        np.testing.assert_allclose(out.total, out.condition + 0.3 * out.l1 + 0.2 * out.l2)


class TestChannelSharing:
    def duplicated_lookback(self, cfg, rng):
        col = rng.standard_normal(cfg.lookback)
        third = rng.standard_normal(cfg.lookback)
        cols = [col, col] + [third] * (cfg.n_channels - 2)
        return np.stack(cols[:cfg.n_channels], axis=1)

    def test_shared_memory_duplicates_recall_and_forecast(self, rng):
        cfg = tiny_config(n_channels=3, synth_channels=3, episodic_size=6, queue_size=3)
        model = seeded_model(cfg, seed=5)
        populate_episodic(model, rng)
        x0 = self.duplicated_lookback(cfg, rng)
        h, _ = encode(model.enc, x0)
        c, _ = model.condition_rows(h)
        np.testing.assert_array_equal(h[0], h[1])
        np.testing.assert_array_equal(c[0], c[1])
        pred = model.forecast(x0, np.random.default_rng(9))
        np.testing.assert_array_equal(pred[:, 0], pred[:, 1])
        assert not np.allclose(pred[:, 0], pred[:, 2])

    def test_unshared_memory_breaks_duplication(self, rng):
        cfg = tiny_config(n_channels=3, synth_channels=3, episodic_size=6, queue_size=3,
                          shared_memory=False)
        model = seeded_model(cfg, seed=5)
        x0 = self.duplicated_lookback(rng=rng, cfg=cfg)
        h, _ = encode(model.enc, x0)
        c, _ = model.condition_rows(h)
        np.testing.assert_array_equal(h[0], h[1])  # encoder is still shared
        assert not np.allclose(c[0], c[1])         # memories are not
        pred = model.forecast(x0, np.random.default_rng(9))
        assert not np.allclose(pred[:, 0], pred[:, 1])


class TestConditionRouting:
    def test_memory_only_routing_ignores_query_in_head(self, rng):
        cfg = tiny_config(condition_uses_query=False)
        model = seeded_model(cfg, seed=8)
        x0 = rng.standard_normal((cfg.lookback, cfg.n_channels))
        h, _ = encode(model.enc, x0)
        c1, _ = model.condition_rows(h)
        # a second lookback with identical queries is impossible to build
        # directly, but zeroing the query half means c depends on x0 only
        # through the recalled memories; with an empty episodic store and
        # the same semantic recall the condition must match
        m_sem, _ = model.semantic.recall(h)
        from memdiff.conditioning import condition_head, memory_prior
        m, _ = memory_prior(model.cp, m_sem, np.zeros_like(m_sem))
        c_manual, _ = condition_head(model.cp, m, np.zeros_like(h))
        np.testing.assert_array_equal(c1, c_manual)

    def test_memory_only_routing_gradcheck(self, rng):
        cfg = tiny_config(condition_uses_query=False)
        model = seeded_model(cfg, seed=9)
        populate_episodic(model, rng)
        batch_x, batch_y = random_batch(cfg, rng)
        draws = draw_step_randomness(rng, cfg, cfg.batch_size)

        def loss():
            return model.loss(batch_x, batch_y, draws, compute_grad=False).total

        model.params.zero_grads()
        model.loss(batch_x, batch_y, draws)
        report = finite_diff_check(loss, model.params, tolerance=1e-4,
                                   max_coords_per_param=16, rng=rng)
        assert report.passed, (report.max_rel_error, report.worst_param)

    def test_no_memory_forces_query_bypass(self):
        cfg = tiny_config(use_semantic=False, use_episodic=False,
                          condition_uses_query=False)
        model = seeded_model(cfg)
        assert model.query_bypass


class TestEpisodicIsolation:
    def test_stored_patterns_receive_no_gradient(self, rng):
        cfg = tiny_config()
        model = seeded_model(cfg, seed=7)
        populate_episodic(model, rng)
        snapshot = [rec.pattern.copy() for rec in model.episodic.records]
        batch_x, batch_y = random_batch(cfg, rng)
        model.params.zero_grads()
        model.loss(batch_x, batch_y, draw_step_randomness(rng, cfg, 2))
        for rec, before in zip(model.episodic.records, snapshot):
            np.testing.assert_array_equal(rec.pattern, before)
        assert not any(p.id.startswith("episodic") for p in model.params)


class TestTrainerBehavior:
    def test_seeded_runs_bitwise_identical(self):
        snaps = []
        for _ in range(2):
            trainer = tiny_trainer(seed=11, epochs=2)
            trainer.fit()
            snaps.append(trainer.model.params.snapshot())
        assert snaps[0].keys() == snaps[1].keys()
        for key in snaps[0]:
            np.testing.assert_array_equal(snaps[0][key], snaps[1][key])

    @staticmethod
    def trained_trainer(rng, steps=5):
        """A tiny trainer after a few steps: Adam moments set, episodic store
        holding main and queued records with recall counts."""
        trainer = tiny_trainer()
        for _ in range(steps):
            assert not trainer.training_step(*random_batch(trainer.cfg, rng)).aborted
        return trainer

    @staticmethod
    def trainer_state(trainer):
        state = {"param/" + k: v for k, v in trainer.model.params.snapshot().items()}
        state.update(trainer.model.episodic.state_arrays())
        opt = trainer.opt
        state.update({"step": np.array(trainer.step_count), "adam/t": np.array(opt.t),
                      "adam/m": np.array(opt.m), "adam/v": np.array(opt.v)})
        return state

    def assert_unchanged(self, trainer, before):
        after = self.trainer_state(trainer)
        assert before.keys() == after.keys()
        for key in before:
            np.testing.assert_array_equal(before[key], after[key], err_msg=key)

    def test_nan_batch_aborts_and_rolls_back(self, rng):
        trainer = self.trained_trainer(rng)
        before = self.trainer_state(trainer)
        assert len(trainer.model.episodic.queue) > 0
        bad_x, batch_y = random_batch(trainer.cfg, rng)
        bad_x[0, 0, 0] = np.nan
        result = trainer.training_step(bad_x, batch_y)
        assert result.aborted
        assert trainer.incidents
        self.assert_unchanged(trainer, before)

    def test_nonfinite_gradient_aborts_and_rolls_back(self, rng, monkeypatch):
        trainer = self.trained_trainer(rng)
        before = self.trainer_state(trainer)
        params = trainer.model.params
        clip = params.clip_global_norm

        def clip_then_poison(max_norm):
            norm = clip(max_norm)
            params["encoder/b0"].grad[0] = np.inf
            return norm

        monkeypatch.setattr(params, "clip_global_norm", clip_then_poison)
        result = trainer.training_step(*random_batch(trainer.cfg, rng))
        assert result.aborted and "encoder/b0" in result.reason
        self.assert_unchanged(trainer, before)

    @pytest.mark.parametrize("change,message", [
        ({"trainer/step": np.zeros(0, dtype=np.int64)}, "trainer/step"),
        ({"param/encoder/W0": np.ones(3)}, "encoder/W0"),
        ({"episodic/births": np.zeros(0, dtype=np.int64)}, "episodic/births"),
        ({"adam/t": np.zeros(0, dtype=np.int64)}, "adam/t"),
        ({"adam/m/encoder/b0": np.ones(3)}, "encoder/b0"),
        ({"adam/v/ghost": np.ones(3)}, "adam/v/ghost"),
        ({"junk": np.ones(3)}, "'junk'"),
        ({"adam/x": np.ones(3)}, "adam/x"),
        ({"trainer/x": np.ones(3)}, "trainer/x"),
        ({"param/encoder/b0": np.full(8, np.nan)}, r"'param/encoder/b0' \(float64\) is not"),
        ({"adam/m/encoder/b0": np.ones(8, dtype=complex)}, r"'adam/m/encoder/b0' \(complex128"),
    ], ids=["step", "param", "episodic", "adam-t", "moment", "ghost-moment", "junk",
            "adam-extra", "trainer-extra", "nan-param", "complex-moment"])
    def test_refused_checkpoint_leaves_trainer_unchanged(self, tmp_path, rng, change, message):
        source = tiny_trainer(seed=4)
        source.fit()
        path = str(tmp_path / "checkpoint.bin")
        source.save_checkpoint(path)
        arrays, meta = checkpoint.load(path)
        checkpoint.save(path, {**arrays, **change}, meta)
        trainer = self.trained_trainer(rng)
        before = self.trainer_state(trainer)
        with pytest.raises(DataError, match=message):
            trainer.load_checkpoint(path)
        self.assert_unchanged(trainer, before)

    def test_numeric_error_in_loss_aborts_and_is_logged(self, rng):
        trainer = self.trained_trainer(rng)
        last = len(trainer.cfg.enc_hidden)   # the encoder's output layer: all queries zero
        for name in (f"encoder/W{last}", f"encoder/b{last}"):
            trainer.model.params[name].values[...] = 0.0
        before = self.trainer_state(trainer)
        log_stream = io.StringIO()
        history = trainer.fit(log_stream=log_stream)
        reason = "loss evaluation failed: zero-norm query vector at index 0"
        assert history and all(res.aborted and res.reason == reason for res in history)
        assert log_stream.getvalue().splitlines()[0] == (
            f"step={trainer.step_count + 1} epoch=0 aborted reason={reason!r}")
        self.assert_unchanged(trainer, before)

    @pytest.mark.parametrize("maes,epochs_run", [([0.5] * 4, 3), ([4.0, 3.0, 2.0, 1.0], 4)],
                             ids=["constant", "improving"])
    def test_early_stop_after_patience_epochs(self, monkeypatch, maes, epochs_run):
        trainer = tiny_trainer(epochs=4, patience=2, batch_size=64)
        assert trainer.data.val
        calls = []

        def evaluate(which):
            calls.append(which)
            return types.SimpleNamespace(mae=maes[len(calls) - 1])

        monkeypatch.setattr(trainer, "evaluate", evaluate)
        trainer.fit()
        per_epoch = -(-len(trainer.data.train) // trainer.cfg.batch_size)
        assert calls == ["val"] * epochs_run
        assert trainer.step_count == epochs_run * per_epoch

    def test_max_steps_counts_aborted_steps(self, monkeypatch):
        trainer = tiny_trainer(epochs=2, max_steps=3)

        def loss(*args, **kwargs):
            raise NumericError("always")

        monkeypatch.setattr(trainer.model, "loss", loss)
        history = trainer.fit()
        assert len(history) == 3 and all(res.aborted for res in history)
        assert trainer.step_count == 0
        trainer.step_count = 2    # as if resumed from a checkpoint at step 2
        assert len(trainer.fit()) == 3 + 1

    def test_spent_budget_runs_no_step(self, tmp_path):
        trainer = tiny_trainer(max_steps=5)
        trainer.fit()
        trainer.fit()
        assert len(trainer.history) == 5 and trainer.step_count == 5
        path = str(tmp_path / "checkpoint.bin")
        trainer.save_checkpoint(path)
        resumed = tiny_trainer(max_steps=5)
        resumed.load_checkpoint(path)
        assert resumed.fit() == [] and resumed.step_count == 5

    @pytest.mark.parametrize("stride", [1, 3])
    def test_batches_are_the_stacked_windows(self, stride):
        trainer = tiny_trainer(stride_train=stride, batch_size=7)
        wins, bs = trainer.data.train, trainer.cfg.batch_size
        order = copy.deepcopy(trainer._shuffle_rng).permutation(len(wins))
        batches = list(trainer._batches())
        assert len(batches) == -(-len(wins) // bs)
        for lo, (batch_x, batch_y) in zip(range(0, len(wins), bs), batches):
            idx = order[lo:lo + bs]
            np.testing.assert_array_equal(batch_x, np.stack([wins[i].lookback for i in idx]))
            np.testing.assert_array_equal(batch_y, np.stack([wins[i].horizon for i in idx]))

    def test_one_episodic_update_per_step(self, rng):
        trainer = tiny_trainer()
        cfg = trainer.cfg
        store = trainer.model.episodic
        for step in range(3):
            batch = random_batch(cfg, rng)
            trainer.training_step(*batch)
            live = len(store.entries) + len(store.queue)
            assert live == min((step + 1) * cfg.n_channels,
                               cfg.episodic_size + cfg.queue_size)

    def test_loss_decreases_on_synthetic_task(self):
        trainer = tiny_trainer(epochs=6, batch_size=8, lr=3e-3, synth_length=600)
        history = trainer.fit()
        totals = [h.total for h in history if not h.aborted]
        tenth = max(len(totals) // 10, 5)
        assert np.median(totals[-tenth:]) < np.median(totals[:tenth])

    def test_checkpoint_roundtrip_identical_forecasts(self, tmp_path, rng):
        trainer = tiny_trainer(epochs=1)
        trainer.fit()
        path = str(tmp_path / "ckpt.bin")
        trainer.save_checkpoint(path)
        clone = tiny_trainer(epochs=1)
        clone.load_checkpoint(path)
        x0 = rng.standard_normal((trainer.cfg.lookback, trainer.cfg.n_channels))
        a = trainer.model.forecast(x0, np.random.default_rng(3))
        b = clone.model.forecast(x0, np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)
        arrays, _ = checkpoint.load(path)
        assert sorted(name for name in arrays if name.startswith("episodic/")) == [
            "episodic/birth_counter", "episodic/births", "episodic/freqs", "episodic/main",
            "episodic/patterns"]
        again = tmp_path / "again.bin"
        clone.save_checkpoint(str(again))
        assert again.read_bytes() == (tmp_path / "ckpt.bin").read_bytes()

    def test_ancestral_forecast_is_ddpm_sample(self, rng):
        cfg = tiny_config(ancestral=True)
        model = seeded_model(cfg)
        populate_episodic(model, rng)
        x0 = rng.standard_normal((cfg.lookback, cfg.n_channels))
        got = model.forecast(x0, np.random.default_rng(8))
        c_rows, _ = model.condition_rows(encode(model.enc, x0)[0])

        def predict(y_k, k):
            emb = np.tile(model.step_table[k - 1], (cfg.n_channels, 1))
            return denoise_rows(model.den, y_k.T, c_rows, emb)[0].T

        want = ddpm_sample(predict, cfg.horizon, cfg.n_channels, model.sched,
                           np.random.default_rng(8))
        assert got.shape == (cfg.horizon, cfg.n_channels) and np.isfinite(got).all()
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("substeps", [0, -1])
    def test_substeps_below_one_is_data_error(self, rng, substeps):
        # validate() refuses these values; a config mutated after it still
        # cannot reach the sampler with them, on either route
        trainer = tiny_trainer()
        assert trainer.model.cfg is trainer.cfg
        trainer.cfg.substeps = substeps
        x0 = rng.standard_normal((trainer.cfg.lookback, trainer.cfg.n_channels))
        with pytest.raises(DataError, match=f"got {substeps}"):
            trainer.model.forecast(x0, rng)
        with pytest.raises(DataError, match=f"got {substeps}"):
            trainer.evaluate()

    def test_periodic_checkpoint_during_fit(self, tmp_path):
        trainer = tiny_trainer(epochs=2, checkpoint_every=1)
        path = str(tmp_path / "ck.bin")
        trainer.fit(checkpoint_path=path)
        import os
        assert os.path.exists(path)
        clone = tiny_trainer(epochs=2, checkpoint_every=1)
        meta = clone.load_checkpoint(path)
        assert meta["step"] == clone.step_count > 0

    def test_checkpoints_byte_identical_across_runs(self, tmp_path):
        payloads = []
        for name in ("a", "b"):
            trainer = tiny_trainer(seed=21)
            trainer.fit()
            path = tmp_path / f"{name}.bin"
            trainer.save_checkpoint(str(path))
            payloads.append(path.read_bytes())
        assert payloads[0] == payloads[1]

    @pytest.mark.parametrize("drop", ["trainer/step", "param/encoder/W0", "episodic/main"])
    def test_checkpoint_missing_array_is_data_error(self, tmp_path, drop):
        trainer = tiny_trainer()
        trainer.fit()
        path = str(tmp_path / "checkpoint.bin")
        trainer.save_checkpoint(path)
        arrays, meta = checkpoint.load(path)
        del arrays[drop]
        checkpoint.save(path, arrays, meta)
        clone = tiny_trainer()
        before = clone.model.params.snapshot()
        with pytest.raises(DataError, match=drop):
            clone.load_checkpoint(path)
        if drop.startswith("param/"):   # no parameter is written before the check
            for key, values in clone.model.params.snapshot().items():
                np.testing.assert_array_equal(values, before[key])

    def test_evaluate_perfect_prediction_zero_error(self):
        from memdiff.trainer import mae, mse
        block = np.random.default_rng(5).standard_normal((4, 3))
        assert mae(block, block) == 0.0
        assert mse(block, block) == 0.0

    def test_evaluate_constant_offset(self):
        from memdiff.trainer import mae, mse
        block = np.random.default_rng(6).standard_normal((4, 3))
        assert mae(block, block + 0.5) == pytest.approx(0.5)
        assert mse(block, block + 0.5) == pytest.approx(0.25)

    @pytest.mark.parametrize("which", ["val", "test"])
    def test_evaluate_overflow_is_numeric_error(self, which):
        trainer = tiny_trainer()
        huge = [win._replace(lookback=np.full_like(win.lookback, 1e300))
                for win in getattr(trainer.data, which)]
        setattr(trainer.data, which, huge)
        with pytest.raises(NumericError, match=f"^evaluating the {which} split: overflow"):
            trainer.evaluate(which)

    def test_evaluate_untrained_band(self):
        # untrained forecasts stay within a broad multiple of the data scale
        trainer = tiny_trainer(synth_length=500)
        result = trainer.evaluate("test")
        assert 0.0 < result.mae < 10.0
        assert result.n_windows > 0


def reference_evaluate(trainer, which):
    """Trainer.evaluate as a window-by-window loop: one forecast, then a running sum of
    the four error totals, per window."""
    from memdiff.trainer import EvalResult
    wins, stats = getattr(trainer.data, which), trainer.data.stats
    rng = np.random.default_rng(trainer._eval_seed)
    sums = np.zeros(4)
    for win in wins:
        pred = trainer.model.forecast(win.lookback, rng)
        norm = np.abs(win.horizon - pred)
        raw = np.abs(stats.denormalize(win.horizon) - stats.denormalize(pred))
        sums += (norm.sum(), (norm * norm).sum(), raw.sum(), (raw * raw).sum())
    return EvalResult(*(sums / (len(wins) * pred.size)), n_windows=len(wins))


class TestBlockwiseEvaluate:
    """evaluate's block-wise sums against the window-by-window loop, bit for bit."""

    @pytest.mark.parametrize("sampler", [{}, {"substeps": 3}, {"ancestral": True}])
    @pytest.mark.parametrize("stride_eval", [0, 1])   # 0: stride H
    @pytest.mark.parametrize("per_block", [None, 1, 6])   # None: every window in one block
    def test_matches_window_by_window_reference(self, monkeypatch, sampler, stride_eval,
                                                per_block):
        import memdiff.trainer
        # 16 values per window: more than one pass of the pairwise sum's 8 lanes
        trainer = tiny_trainer(horizon=8, stride_eval=stride_eval, max_steps=6, **sampler)
        trainer.fit()
        size = trainer.cfg.horizon * trainer.cfg.n_channels
        windows = len(trainer.data.test)
        if per_block is None:
            assert windows < memdiff.trainer.EVAL_BLOCK // size
        else:   # blocks of per_block windows and 3 spare values; the last block short
            monkeypatch.setattr(memdiff.trainer, "EVAL_BLOCK", per_block * size + 3)
            assert windows > per_block and (windows % per_block or per_block == 1)
        for which in ("val", "test"):
            assert trainer.evaluate(which) == reference_evaluate(trainer, which)

    def test_one_forecast_call_per_window_in_order(self, monkeypatch):
        # the benchmark's forecast workload counts and times evaluate's windows by
        # wrapping the model instance's forecast attribute
        import memdiff.trainer
        trainer = tiny_trainer(stride_eval=1)
        monkeypatch.setattr(memdiff.trainer, "EVAL_BLOCK", 7 * trainer.data.test[0].horizon.size)
        calls = []
        inner = trainer.model.forecast

        def forecast(x0, rng):
            calls.append((x0, rng))
            return inner(x0, rng)

        trainer.model.forecast = forecast
        result = trainer.evaluate("test")
        wins = trainer.data.test
        assert result.n_windows == len(calls) == len(wins) > 7
        assert all(x0 is win.lookback for (x0, _), win in zip(calls, wins))
        assert len({id(rng) for _, rng in calls}) == 1


class TestShapeValidation:
    def test_wrong_lookback_shape_rejected(self, rng):
        cfg = tiny_config()
        model = seeded_model(cfg)
        with pytest.raises(DataError):
            model.loss(rng.standard_normal((2, cfg.lookback + 1, cfg.n_channels)),
                       rng.standard_normal((2, cfg.horizon, cfg.n_channels)),
                       draw_step_randomness(rng, cfg, 2))

    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "unshared"])
    @pytest.mark.parametrize("shape", ["L,N-1", "L,2N", "L+1,N", "L"])
    def test_mis_shaped_lookback_refused_before_recall(self, shared, shape, monkeypatch):
        cfg = tiny_config(n_channels=4, synth_channels=4, episodic_size=8, queue_size=4,
                          shared_memory=shared)
        model = seeded_model(cfg)
        populate_episodic(model, np.random.default_rng(0))

        def no_recall(*_):
            raise AssertionError("a mis-shaped lookback reached a memory")

        for memory in (model.semantic, model.episodic):
            for name in ("recall", "scores"):
                monkeypatch.setattr(memory, name, no_recall)
        lookback, n = cfg.lookback, cfg.n_channels
        x0 = np.ones({"L,N-1": (lookback, n - 1), "L,2N": (lookback, 2 * n),
                      "L+1,N": (lookback + 1, n), "L": (lookback,)}[shape])
        message = re.escape(f"lookback shaped {x0.shape}, expected ({lookback}, {n})")
        with pytest.raises(DataError, match=message):
            model.forecast(x0, np.random.default_rng(0))
        with pytest.raises(DataError, match=message):
            model.attention_scores(x0)


class TestForecastBytes:
    """sha256 of eight forecasts at tiny_config, pinned on numpy 2.4 with OpenBLAS 0.3
    (x86-64). Any change to forecasting's arithmetic or draws changes a digest."""

    DIGESTS = {
        "ddim-1": ({}, "9218ded93d683d1ddfb892567f37f862bba49cf933907cf12a3c8526fd7bda0f"),
        "ddim-K": ({"substeps": 4},
                   "d475f487ac00c5e01cf5c035f4d49cb2d773510ef21b7e1227b40e62d2ef536a"),
        "ancestral": ({"ancestral": True},
                      "ce7547b83fbbbcc4f6ab70ca161c18513835f5b5b2ca072ea958461e401675b6"),
        "unshared": ({"shared_memory": False},
                     "3491664f893eb2a2c6e5c0b3ab469a073c523583d088e1ff43e3056ea8b19aa6"),
        "no-memory": ({"use_semantic": False, "use_episodic": False},
                      "3115213ed084eab641ebecdfced338d15d7da7c871f388533e5a15ce4caf6243"),
    }

    @pytest.mark.parametrize("name", DIGESTS)
    def test_forecast_digest(self, name):
        overrides, want = self.DIGESTS[name]
        cfg = tiny_config(**overrides)
        model = seeded_model(cfg, seed=3)
        rng = np.random.default_rng(11)
        populate_episodic(model, rng)
        lookbacks = rng.standard_normal((8, cfg.lookback, cfg.n_channels))
        sample_rng = np.random.default_rng(12)
        digest = hashlib.sha256()
        for x0 in lookbacks:
            digest.update(model.forecast(x0, sample_rng).tobytes())
        assert digest.hexdigest() == want


class TestTrainBytes:
    """sha256 of the state a short fit leaves (parameters, Adam moments, episodic
    store) and of the checkpoint file it saves, pinned on numpy 2.4 with OpenBLAS 0.3
    (x86-64). Any change to training's arithmetic, draws or checkpoint format changes
    a digest."""

    DIGESTS = {
        "default": ({}, "f68ca3fc83f72d4b2941c3cd89248c62e7a3b8de750a85a6534c59be4128fbe0"),
        "alphas": ({"alpha1": 0.3, "alpha2": 0.2},
                   "903d3d133c3a1daee75226a8c78ff9f6bc17ccb692cfc7f0ffc4c6a2e9cd9e3e"),
        "unshared": ({"shared_memory": False},
                     "ed951350ae63eb415928e6ef7cad56f58c6e44ee3b27b585b7bad74a7f9433b5"),
        "memory-only-head": ({"condition_uses_query": False},
                             "ad73cd06646c8076a7a22c8bd6bff356e530e032b1aad6f40317ae67998cfb01"),
        "no-memory": ({"use_semantic": False, "use_episodic": False},
                      "63188bffa4e1107887852bce9f109e9e27bdd10954425f33d05631cdc98bee10"),
    }
    CHECKPOINT = "0c9d03736f9723ef426cd491a9c2e0ce624c93251eaff37f1477d25a08cc408b"

    @staticmethod
    def fitted(**overrides):
        trainer = tiny_trainer(max_steps=40, epochs=5, **overrides)
        trainer.fit()
        assert trainer.step_count == 40
        return trainer

    @pytest.mark.parametrize("name", DIGESTS)
    def test_state_digest(self, name):
        overrides, want = self.DIGESTS[name]
        trainer = self.fitted(**overrides)
        digest = hashlib.sha256()
        for arr in (trainer.model.params.arena()[0], trainer.opt.m, trainer.opt.v):
            digest.update(arr.tobytes())
        if trainer.model.episodic is not None:
            for key, arr in sorted(trainer.model.episodic.state_arrays().items()):
                digest.update(key.encode() + arr.tobytes())
        assert digest.hexdigest() == want

    def test_checkpoint_file_digest(self, tmp_path):
        path = str(tmp_path / "checkpoint.bin")
        self.fitted().save_checkpoint(path)
        with open(path, "rb") as f:
            assert hashlib.sha256(f.read()).hexdigest() == self.CHECKPOINT
