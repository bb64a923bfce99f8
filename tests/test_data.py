import numpy as np
import pytest

from memdiff import ChannelStats, SeriesWindow, SynthSpec, split, synth_generate, windows
from memdiff.data import Dataset, dataset_to_csv, load_csv, loads_csv, surprise_motifs
from memdiff.errors import DataError


class TestLoadCsv:
    def test_small_matrix(self):
        ds = loads_csv("a,b\n1,2\n3,4\n5,6\n")
        assert ds.values.shape == (3, 2)
        np.testing.assert_array_equal(ds.values, [[1, 2], [3, 4], [5, 6]])
        assert ds.channel_names == ("a", "b")

    def test_timestamp_column_dropped(self):
        ds = loads_csv("date,a,b\n2016-07-01 00:00,1,2\n2016-07-01 01:00,3,4\n")
        assert ds.values.shape == (2, 2)
        assert ds.channel_names == ("a", "b")

    def test_nan_cell_strict_names_line(self):
        with pytest.raises(DataError, match="line 3"):
            loads_csv("a,b\n1,2\nnan,4\n")

    def test_empty_cell_strict(self):
        with pytest.raises(DataError, match="line 2"):
            loads_csv("a,b\n,2\n")

    def test_non_numeric_cell(self):
        with pytest.raises(DataError, match="line 3"):
            loads_csv("a,b\n1,2\n1,zebra\n")

    def test_ragged_row(self):
        with pytest.raises(DataError, match="line 3"):
            loads_csv("a,b\n1,2\n1\n")

    def test_forward_fill(self):
        ds = loads_csv("a,b\n1,2\n,4\n", missing_policy="ffill")
        np.testing.assert_array_equal(ds.values, [[1, 2], [1, 4]])

    def test_leading_gap_cannot_fill(self):
        with pytest.raises(DataError, match="line 2"):
            loads_csv("a,b\n,2\n3,4\n", missing_policy="ffill")

    def test_file_roundtrip(self, tmp_path):
        ds = loads_csv("a,b\n1.5,2.25\n-3,4e2\n")
        path = tmp_path / "data.csv"
        path.write_text(dataset_to_csv(ds))
        back = load_csv(str(path))
        np.testing.assert_array_equal(back.values, ds.values)


class TestSplit:
    def make(self, n):
        return Dataset("x", np.arange(n * 2, dtype=float).reshape(n, 2))

    def test_7_1_2(self):
        tr, va, te = split(self.make(100), (7, 1, 2))
        assert (len(tr), len(va), len(te)) == (70, 10, 20)

    def test_3_1_2(self):
        tr, va, te = split(self.make(60), (3, 1, 2))
        assert (len(tr), len(va), len(te)) == (30, 10, 20)

    def test_chronological_contiguous(self):
        tr, va, te = split(self.make(50), (3, 1, 2))
        joined = np.vstack([tr, va, te])
        np.testing.assert_array_equal(joined, self.make(50).values)

    def test_short_segment_rejected(self):
        with pytest.raises(DataError, match="val"):
            split(self.make(60), (3, 1, 2), min_len=11)

    def test_boundary_exact_fit(self):
        # min_len equal to the shortest segment passes
        split(self.make(60), (3, 1, 2), min_len=10)


class TestNormalize:
    def test_constant_channel(self):
        seg = np.column_stack([np.full(10, 3.0), np.arange(10.0)])
        stats = ChannelStats.fit(seg)
        normed = stats.normalize(seg)
        np.testing.assert_array_equal(normed[:, 0], 0.0)
        np.testing.assert_allclose(stats.denormalize(normed), seg, atol=1e-12)

    def test_train_stats_applied_to_test(self):
        train = np.random.default_rng(0).standard_normal((50, 2)) + 5.0
        test = np.random.default_rng(1).standard_normal((20, 2)) - 5.0
        stats = ChannelStats.fit(train)
        normed_test = stats.normalize(test)
        # test block keeps its own offset relative to the train center
        assert normed_test.mean() < -1.0

    @pytest.mark.parametrize("scale", [1e154, 1e200, 1e306])
    def test_overflowing_channel_rejected_by_name(self, scale):
        seg = np.column_stack([np.arange(10.0), scale * (-1.0) ** np.arange(10),
                               np.full(10, 3.0)])
        with np.errstate(all="raise"), \
                pytest.raises(DataError, match=r"channels \[1\]: mean or std overflows"):
            ChannelStats.fit(seg)

    def test_roundtrip_random_block(self):
        rng = np.random.default_rng(2)
        stats = ChannelStats.fit(rng.standard_normal((30, 3)) * 4 + 2)
        block = rng.standard_normal((8, 3))
        back = stats.denormalize(stats.normalize(block))
        assert np.max(np.abs(back - block)) < 1e-12


class TestWindows:
    def seg(self, n):
        return np.arange(n, dtype=float).reshape(n, 1)

    def test_exact_fit_single_window(self):
        assert len(windows(self.seg(12), 8, 4, 1)) == 1

    def test_three_windows(self):
        assert len(windows(self.seg(14), 8, 4, 1)) == 3

    def test_stride_two(self):
        assert len(windows(self.seg(15), 8, 4, 2)) == 2

    def test_counting_formula(self):
        for n, stride in [(20, 1), (25, 3), (30, 5)]:
            wins = windows(self.seg(n), 8, 4, stride)
            assert len(wins) == (n - 12) // stride + 1

    def test_contiguity_and_origin(self):
        wins = windows(self.seg(14), 8, 4, 1)
        for w in wins:
            assert w.lookback[-1, 0] + 1 == w.horizon[0, 0]
            assert w.lookback[0, 0] == w.origin

    def test_too_short_rejected(self):
        with pytest.raises(DataError):
            windows(self.seg(11), 8, 4, 1)

    def test_bad_stride_rejected(self):
        with pytest.raises(DataError, match="stride must be positive"):
            windows(self.seg(20), 8, 4, 0)

    @pytest.mark.parametrize("channels", [1, 4])
    @pytest.mark.parametrize("n,stride", [(12, 1), (12, 4), (30, 1), (30, 3), (30, 4),
                                          (31, 4), (29, 5)])
    def test_matches_per_window_slices(self, channels, n, stride):
        """The sliding-window views equal the per-window slices in values, shapes,
        strides and origins (horizon 4, so stride 4 is stride = H)."""
        seg = np.random.default_rng(n * stride).standard_normal((n, channels))
        want = [(seg[s:s + 8], seg[s + 8:s + 12], s) for s in range(0, n - 12 + 1, stride)]
        got = windows(seg, 8, 4, stride)
        assert len(got) == len(want)
        for win, (lookback, horizon, origin) in zip(got, want):
            assert type(win.origin) is int and win.origin == origin
            for view, part in ((win.lookback, lookback), (win.horizon, horizon)):
                np.testing.assert_array_equal(view, part)
                assert view.shape == part.shape and view.strides == part.strides
                assert view.flags.c_contiguous

    def test_read_only_views_of_the_segment(self):
        seg = np.random.default_rng(0).standard_normal((20, 3))
        for win in windows(seg, 8, 4, 3):
            for part in (win.lookback, win.horizon):
                assert np.shares_memory(part, seg)
                with pytest.raises(ValueError):
                    part[0, 0] = 1.0
        seg[9, 1] = 7.5   # the windows see the segment, not a copy
        assert windows(seg, 8, 4, 1)[2].lookback[7, 1] == 7.5

    def test_series_window_fields_and_immutability(self):
        win = windows(self.seg(14), 8, 4, 1)[1]
        assert SeriesWindow._fields == ("lookback", "horizon", "origin")
        lookback, horizon, origin = win
        assert lookback is win.lookback and horizon is win.horizon and origin == 1
        with pytest.raises(AttributeError):
            win.origin = 0


def per_motif_synth(spec: SynthSpec, seed: int):
    """synth_generate as it drew each planted motif's type, one rng.choice per motif,
    and added each motif with its own slice-add. Returns the values, the injections
    and the generator after the last draw."""
    rng = np.random.default_rng(seed)
    t = np.arange(spec.length, dtype=np.float64)
    values = np.zeros((spec.length, spec.channels))
    for period, amp in spec.sinusoids:
        for j in range(spec.channels):
            phase = 2.0 * np.pi * spec.channel_phase * j
            values[:, j] += amp * np.sin(2.0 * np.pi * t / period + phase)
    library = spec.motif_library(rng)
    injections = []
    if library and spec.motif_rate > 0.0:
        n_inject = int(round(spec.motif_rate * spec.length))
        longest = max(len(m) for m in library)
        positions = np.arange(0, spec.length - longest)
        for j in range(spec.channels):
            starts = rng.choice(positions, size=min(n_inject, len(positions)), replace=False)
            for start in np.sort(starts):
                m = int(rng.choice(len(library)))
                motif = library[m]
                values[start:start + len(motif), j] += spec.motif_amp * motif
                injections.append((j, int(start), m))
    values += spec.noise * rng.standard_normal(values.shape)
    return values, injections, rng


PINNED_SPECS = {
    "default": SynthSpec(),
    "surprise": SynthSpec(length=1200, channels=4, sinusoids=[(24.0, 0.4)],
                          channel_phase=0.35, motifs=surprise_motifs(),
                          motif_rate=0.012, motif_amp=4.0, noise=0.25),
    "unequal-lengths": SynthSpec(length=500, channels=3, motif_rate=0.05,
                                 motifs=[np.ones(3), np.linspace(-1.0, 1.0, 17),
                                         -np.ones(6), np.arange(9.0)]),
    "overlapping": SynthSpec(length=80, channels=2, motif_rate=0.4, motif_amp=1.7,
                             motifs=[np.full(2, 0.1), np.linspace(-1.0, 1.0, 13),
                                     np.arange(5.0) / 3]),
    "one-motif": SynthSpec(length=300, channels=2, motifs=[np.ones(4)], motif_rate=0.03),
    "every-position": SynthSpec(length=60, channels=3, motif_len=12, motif_rate=1.0),
    "no-motifs": SynthSpec(length=200, channels=2, motif_rate=0.0),
}


@pytest.mark.parametrize("name", sorted(PINNED_SPECS))
@pytest.mark.parametrize("seed", [0, 1, 303, 404])
def test_synth_stream_pinned_to_per_motif_draws(monkeypatch, name, seed):
    """One motif-type draw and one scatter-add per channel give the per-motif loop's
    series, injections and generator state, bit for bit: motifs of unequal length
    that overlap sum in sorted-start order, as one slice-add per motif did."""
    spec = PINNED_SPECS[name]
    want_values, want_injections, want_rng = per_motif_synth(spec, seed)
    made = []
    default_rng = np.random.default_rng

    def recording_rng(*args):
        made.append(default_rng(*args))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", recording_rng)
    ds, injections = synth_generate(spec, seed)
    monkeypatch.undo()
    np.testing.assert_array_equal(ds.values, want_values)
    assert injections == want_injections
    assert all(type(v) is int for inj in injections for v in inj)
    if name == "every-position":
        assert len(injections) == spec.channels * (spec.length - spec.motif_len)
    if name == "no-motifs":
        assert injections == []
    if name == "overlapping":
        ends, overlaps = {}, 0
        for ch, start, m in injections:
            overlaps += start < ends.get(ch, 0)
            ends[ch] = max(ends.get(ch, 0), start + len(spec.motifs[m]))
        assert overlaps > 10 and {m for _, _, m in injections} == {0, 1, 2}
    (rng,) = made
    assert rng.bit_generator.state == want_rng.bit_generator.state
    assert rng.integers(2**62) == want_rng.integers(2**62)


def test_overflowing_noise_is_data_error():
    with np.errstate(all="raise"), pytest.raises(DataError, match=r"synth_noise=1e\+308 "):
        synth_generate(SynthSpec(length=200, channels=2, noise=1e308), 0)


class TestSynth:
    def test_pure_sine_phase_shifted_copies(self):
        spec = SynthSpec(length=240, channels=3, sinusoids=[(24.0, 1.0)],
                         channel_phase=0.25, motifs=0, motif_rate=0.0, noise=0.0)
        ds, injections = synth_generate(spec, seed=0)
        assert injections == []
        # channel 1 leads channel 0 by a quarter period = 6 samples
        np.testing.assert_allclose(ds.values[:-6, 1], ds.values[6:, 0], atol=1e-9)

    def test_same_seed_identical(self):
        spec = SynthSpec(length=300, channels=4)
        a, _ = synth_generate(spec, seed=5)
        b, _ = synth_generate(spec, seed=5)
        np.testing.assert_array_equal(a.values, b.values)

    def test_different_seed_differs(self):
        spec = SynthSpec(length=300, channels=4)
        a, _ = synth_generate(spec, seed=5)
        b, _ = synth_generate(spec, seed=6)
        assert not np.array_equal(a.values, b.values)

    def test_motifs_recur_across_channels(self):
        spec = SynthSpec(length=2000, channels=4, motifs=3, motif_rate=0.01)
        _, injections = synth_generate(spec, seed=1)
        by_motif = {}
        for ch, _, m in injections:
            by_motif.setdefault(m, set()).add(ch)
        assert any(len(chs) >= 2 for chs in by_motif.values())

    def test_cross_correlation_peaks_at_planted_lag(self):
        # single motif copy per channel, no sinusoids: the planted lag is
        # recoverable from plain cross-correlation
        spec = SynthSpec(length=400, channels=2, sinusoids=[], motifs=1,
                         motif_len=12, motif_rate=1.0 / 400.0, motif_amp=5.0,
                         noise=0.01)
        ds, injections = synth_generate(spec, seed=3)
        assert len(injections) == 2
        starts = {ch: start for ch, start, _ in injections}
        a = ds.values[:, 0] - ds.values[:, 0].mean()
        b = ds.values[:, 1] - ds.values[:, 1].mean()
        corr = np.correlate(a, b, mode="full")
        lag = np.argmax(corr) - (len(b) - 1)
        assert lag == starts[0] - starts[1]
