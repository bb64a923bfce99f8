"""CSV ingestion, chronological splits, normalization, windowing, synthesis.

Datasets are immutable (samples, channels) float64 matrices. Normalization
statistics always come from the training segment only, and windows never
cross split boundaries.
"""

from __future__ import annotations

import csv
import io
import json
import logging
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DataError

log = logging.getLogger("memdiff.data")


@dataclass(frozen=True)
class Dataset:
    name: str
    values: np.ndarray              # (samples, channels)
    channel_names: "tuple[str, ...]" = ()

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 2:
            raise DataError(f"dataset values must be 2-D, got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise DataError("dataset contains non-finite values after ingestion")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_channels(self) -> int:
        return self.values.shape[1]

    def stats_json(self, split_sizes: "tuple[int, int, int] | None" = None) -> str:
        info = {"name": self.name, "samples": self.n_samples, "channels": self.n_channels}
        if split_sizes is not None:
            info["split_sizes"] = [int(s) for s in split_sizes]
        return json.dumps(info, sort_keys=True)


class SeriesWindow(NamedTuple):
    """One training/inference instance: contiguous lookback then horizon."""

    lookback: np.ndarray    # (L, N)
    horizon: np.ndarray     # (H, N)
    origin: int             # index of the first lookback row in its segment


def _is_number(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


def load_csv(path: str, name: str = "", missing_policy: str = "strict") -> Dataset:
    """Parse a comma-separated file with a header row.

    An optional first column holding non-numeric values (timestamps) is
    dropped. Non-numeric data cells and, under the strict policy, empty
    cells are reported with their line number; the ffill policy forward
    fills gaps from the previous row. A file that cannot be read as UTF-8
    text raises DataError naming it.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as f:
            return _parse_csv(f, name or path, missing_policy)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read csv {path}: {exc}") from None


def loads_csv(text: str, name: str = "inline", missing_policy: str = "strict") -> Dataset:
    return _parse_csv(io.StringIO(text), name, missing_policy)


def _parse_csv(stream, name: str, missing_policy: str) -> Dataset:
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{name}: empty file") from None
    if not header:
        raise DataError(f"{name}: empty header row")
    rows = []
    raw = list(reader)
    if not raw:
        raise DataError(f"{name}: no data rows")
    # Timestamp column: non-empty, non-numeric first cell in the first data
    # row (an empty first cell is a data gap, not a timestamp).
    first = raw[0][0].strip() if raw[0] else ""
    has_ts = bool(first) and not _is_number(first)
    col0 = 1 if has_ts else 0
    channels = header[col0:]
    width = len(header)
    prev: "np.ndarray | None" = None
    for lineno, cells in enumerate(raw, start=2):
        if len(cells) != width:
            raise DataError(f"{name} line {lineno}: {len(cells)} cells, expected {width}")
        vals = np.empty(len(channels))
        for i, cell in enumerate(cells[col0:]):
            cell = cell.strip()
            if cell and not _is_number(cell):
                raise DataError(f"{name} line {lineno}: non-numeric cell {cell!r}")
            if cell and np.isfinite(float(cell)):
                vals[i] = float(cell)
                continue
            # empty cell or literal nan/inf: a gap
            if missing_policy == "ffill" and prev is not None:
                vals[i] = prev[i]
                log.info("%s line %d: forward-filled channel %s", name, lineno, channels[i])
            else:
                raise DataError(f"{name} line {lineno}: missing value in channel {channels[i]}")
        rows.append(vals)
        prev = vals
    return Dataset(name, np.vstack(rows), tuple(channels))


def split(ds: Dataset, ratios: "tuple[int, int, int]", min_len: int = 0):
    """Contiguous chronological (train, val, test) segments by integer ratios."""
    if len(ratios) != 3 or any(r <= 0 for r in ratios):
        raise DataError(f"need three positive ratios, got {ratios}")
    total = sum(ratios)
    n = ds.n_samples
    n_train = n * ratios[0] // total
    n_val = n * ratios[1] // total
    parts = (ds.values[:n_train], ds.values[n_train:n_train + n_val],
             ds.values[n_train + n_val:])
    if min_len:
        for label, seg in zip(("train", "val", "test"), parts):
            if len(seg) < min_len:
                raise DataError(f"{label} segment has {len(seg)} rows, "
                                f"needs at least {min_len}")
    return parts


@dataclass
class ChannelStats:
    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, train_segment: np.ndarray) -> "ChannelStats":
        with np.errstate(over="ignore", invalid="ignore"):
            mean = train_segment.mean(axis=0)
            std = train_segment.std(axis=0)
        huge = ~(np.isfinite(mean) & np.isfinite(std))
        if np.any(huge):
            raise DataError(f"train-segment channels {np.nonzero(huge)[0].tolist()}: "
                            f"mean or std overflows float64")
        flat = std <= 0.0
        if np.any(flat):
            log.info("constant channels %s: std forced to 1", np.nonzero(flat)[0].tolist())
            std = np.where(flat, 1.0, std)
        return cls(mean, std)

    def normalize(self, block: np.ndarray) -> np.ndarray:
        return (block - self.mean) / self.std

    def denormalize(self, block: np.ndarray) -> np.ndarray:
        return block * self.std + self.mean


def windows(segment: np.ndarray, lookback: int, horizon: int, stride: int = 1):
    """Sliding windows over one split segment, oldest first.

    Every window's lookback and horizon are read-only views into one
    sliding-window view of the segment's spans.
    """
    if stride < 1:
        raise DataError(f"stride must be positive, got {stride}")
    span = lookback + horizon
    n = len(segment)
    if n < span:
        raise DataError(f"segment of {n} rows cannot fit lookback {lookback} "
                        f"+ horizon {horizon}")
    spans = np.lib.stride_tricks.sliding_window_view(segment, (span, segment.shape[1]))
    spans = spans[::stride, 0]
    return list(map(SeriesWindow, spans[:, :lookback], spans[:, lookback:],
                    range(0, n - span + 1, stride)))


@dataclass
class SynthSpec:
    """Recipe for the cross-channel-recurrence synthetic benchmark.

    Channels share a small library of sinusoid components (each channel a
    phase-shifted copy) and a library of spike motifs. Every motif is
    injected into several channels at different times, so a pattern seen
    historically in one channel recurs later in another: the structure the
    channel-shared memories are meant to exploit.
    """

    length: int = 4000
    channels: int = 4
    sinusoids: "list[tuple[float, float]]" = field(
        default_factory=lambda: [(24.0, 1.0), (97.0, 0.6)])   # (period, amplitude)
    channel_phase: float = 0.35       # per-channel phase offset, fraction of a period
    motifs: "int | list[np.ndarray]" = 3
    motif_len: int = 12
    motif_rate: float = 0.02          # injections per channel per time step
    motif_amp: float = 3.0
    noise: float = 0.1

    def motif_library(self, rng: np.random.Generator) -> "list[np.ndarray]":
        if isinstance(self.motifs, list):
            return [np.asarray(m, dtype=np.float64) for m in self.motifs]
        lib = []
        t = np.linspace(0.0, 1.0, self.motif_len)
        for i in range(self.motifs):
            # distinct sharp shapes: decaying oscillations at different rates
            shape = np.exp(-3.0 * t) * np.cos(2.0 * np.pi * (i + 1.5) * t)
            shape = shape / np.max(np.abs(shape))
            lib.append(shape)
        return lib


def surprise_motifs(signature: float = 0.3, prefix_len: int = 8,
                    suffix_len: int = 8) -> "list[np.ndarray]":
    """Spike motifs with a shared onset and strongly divergent continuations.

    All three motifs open with the same bump, marked only by a small
    per-type signature wiggle; the continuation then diverges (hump, dip,
    ringing). Windows whose lookback ends inside the onset are the
    hard-to-predict sudden events the episodic memory is built for: the
    continuation is determined by a subtle cue that is cheap to recall
    from stored examples but expensive to learn parametrically.
    """
    t = np.linspace(0.0, 1.0, prefix_len)
    bump = np.sin(np.pi * t)
    signatures = [np.sin(2 * np.pi * t), np.cos(2 * np.pi * t), np.sin(4 * np.pi * t)]
    ts = np.linspace(0.0, 1.0, suffix_len)
    suffixes = [np.sin(np.pi * ts), -np.sin(np.pi * ts),
                np.sin(3 * np.pi * ts) * (1.0 - ts)]
    return [np.concatenate([bump + signature * sig, 1.5 * suf])
            for sig, suf in zip(signatures, suffixes)]


def synth_generate(spec: SynthSpec, seed: int) -> "tuple[Dataset, list[tuple[int, int, int]]]":
    """Deterministic synthetic dataset plus its (channel, start, motif) injections."""
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
        lengths = np.array([len(m) for m in library])
        firsts = np.cumsum(lengths) - lengths       # each motif's offset in `scaled`
        scaled = np.concatenate([spec.motif_amp * m for m in library])
        positions = np.arange(0, spec.length - lengths.max())
        for j in range(spec.channels):
            starts = np.sort(rng.choice(positions, size=min(n_inject, len(positions)),
                                        replace=False))
            # one draw for all of the channel's motif types: the same stream as one
            # rng.choice(len(library)) per motif, at a fraction of the per-call cost
            picks = rng.integers(len(library), size=len(starts))
            # every planted row in sorted-start order; add.at adds repeated rows in
            # that order, so overlapping motifs sum as one slice-add per motif did
            counts = lengths[picks]
            within = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
            np.add.at(values[:, j], np.repeat(starts, counts) + within,
                      scaled[np.repeat(firsts[picks], counts) + within])
            injections.extend(zip([j] * len(starts), starts.tolist(), picks.tolist()))
    with np.errstate(over="ignore", invalid="ignore"):
        values += spec.noise * rng.standard_normal(values.shape)
    if not np.isfinite(values).all():
        raise DataError(f"synth_noise={spec.noise!r} overflows the synthetic series")
    ds = Dataset("synthetic", values, tuple(f"ch{j}" for j in range(spec.channels)))
    return ds, injections


def matrix_csv(matrix: np.ndarray, header: "tuple[str, ...] | list[str]" = ()) -> str:
    """A float matrix as CSV text: the header row (ch0, ch1, ... when empty), then one
    row per matrix row, every value written by repr so it reads back bit for bit."""
    matrix = np.atleast_2d(matrix)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header or [f"ch{j}" for j in range(matrix.shape[1])])
    for row in matrix:
        writer.writerow([repr(float(v)) for v in row])
    return buf.getvalue()


def dataset_to_csv(ds: Dataset) -> str:
    return matrix_csv(ds.values, ds.channel_names)
