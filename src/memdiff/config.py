"""Run configuration: dataclass, file parsing, overrides, resolved snapshots.

Config files are line-oriented ``key = value`` with ``[section]`` headers.
Values are parsed as JSON scalars/lists when possible (so simple TOML
files load unchanged) and fall back to bare strings; each is then converted
by its field's type, and a value the type cannot take is a UsageError
naming the key. Every field of TrainConfig is addressable; command-line
``--set key=value`` overrides win over file values.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import string
from dataclasses import dataclass, field

from .errors import UsageError


@dataclass
class TrainConfig:
    # [data]
    dataset: str = "synthetic"
    csv_path: str = ""
    split_ratios: "tuple[int, int, int] | None" = None   # None: 3:1:2 for ETT*, else 7:1:2
    missing_policy: str = "strict"                       # strict | ffill
    stride_train: int = 1
    stride_eval: int = 0                                 # 0 means H (non-overlapping forecasts)

    # [model]
    lookback: int = 96
    horizon: int = 24
    n_channels: int = 7
    latent_dim: int = 64
    enc_hidden: "list[int]" = field(default_factory=lambda: [128])
    den_hidden: "list[int]" = field(default_factory=lambda: [256, 256, 256])
    embed_dim: int = 16
    log_var_init: float = -4.0

    # [diffusion]
    diffusion_steps: int = 10
    beta_min: float = 0.05
    beta_max: float = 0.55
    substeps: int = 1
    ancestral: bool = False                              # K-step DDPM sampling instead of DDIM

    # [memory]
    use_semantic: bool = True
    use_episodic: bool = True
    shared_memory: bool = True
    # True: the condition head projects [latent ; query] (query bypass).
    # False: memory-mediated conditioning only, the paper-literal routing;
    # ignored (treated as True) when both memories are disabled, since the
    # baseline would otherwise be unconditioned.
    condition_uses_query: bool = True
    semantic_size: int = 64
    episodic_size: int = 70
    queue_size: int = 35
    recall_top_k: int = 5
    margin: float = 1.0

    # [train]
    alpha1: float = 0.1
    alpha2: float = 0.1
    lr: float = 1e-3
    batch_size: int = 32
    epochs: int = 10
    max_steps: int = 0                                   # 0: run all epochs
    grad_clip: float = 1.0
    checkpoint_every: int = 1                            # epochs
    patience: int = 0                                    # 0: no early stopping

    # [run]
    seed: int = 0
    out_dir: str = "out"

    # synthetic generator knobs ([synth])
    synth_length: int = 4000
    synth_channels: int = 4
    synth_noise: float = 0.1
    synth_motif_rate: float = 0.02

    def validate(self):
        """self, or UsageError for the first fault in _CHECKS order."""
        for names, fault, refusal in _CHECKS:
            for name in names or (None,):
                value = getattr(self, name) if name else self
                if fault(value):
                    raise UsageError("config: " + _Refusal().format(refusal, name=name,
                                                                    value=value, c=self))
        return self

    @property
    def eval_stride(self) -> int:
        return self.stride_eval if self.stride_eval > 0 else self.horizon

    def ratios(self) -> "tuple[int, int, int]":
        if self.split_ratios is not None:
            return tuple(self.split_ratios)
        return (3, 1, 2) if self.dataset.upper().startswith("ETT") else (7, 1, 2)


class _Refusal(string.Formatter):   # str.format, plus {value!l}: a sequence shown as a list
    def convert_field(self, value, conversion):
        return list(value) if conversion == "l" else super().convert_field(value, conversion)


# validate() checks these (field names, fault, refusal) rows in order and names the first fault:
# fault(value) of each named field, formatting {name} and {value}; else fault(config), {c.field}
_CHECKS = (
    # synthetic data sets n_channels from synth_channels: name that first
    (("synth_length", "synth_channels", "lookback", "horizon", "n_channels", "latent_dim",
      "diffusion_steps", "semantic_size", "episodic_size", "queue_size", "recall_top_k",
      "batch_size", "embed_dim", "checkpoint_every", "stride_train"), lambda v: v < 1,
     "{name} must be positive, got {value}"),
    (("epochs", "max_steps", "patience", "stride_eval", "seed"), lambda v: v < 0,
     "{name} must be nonnegative, got {value}"),
    (("enc_hidden", "den_hidden"), lambda v: any(width < 1 for width in v),
     "{name} widths must be positive, got {value}"),
    (("split_ratios",), lambda v: v is not None and (len(v) != 3 or min(v) < 1),
     "{name} must be three positive integers, got {value!l}"),
    (("lr", "grad_clip"), lambda v: not v > 0.0,   # also refuses nan
     "{name} must be positive, got {value}"),
    ((), lambda c: c.queue_size > c.episodic_size, "queue_size must not exceed episodic_size"),
    (("lr", "alpha1", "alpha2", "log_var_init", "margin"), lambda v: not math.isfinite(v),
     "{name} must be finite, got {value}"),
    (("synth_noise",), lambda v: not 0.0 <= v < math.inf,   # also refuses nan
     "{name} must be finite and nonnegative, got {value}"),
    # a rate of 1 already plants a motif at every free position of a channel
    (("synth_motif_rate",), lambda v: not 0.0 <= v <= 1.0,
     "{name} must lie in [0, 1], got {value}"),
    (("alpha1", "alpha2"), lambda v: v < 0, "alpha1/alpha2 must be nonnegative"),
    ((), lambda c: not 0.0 < c.beta_min <= c.beta_max < 1.0,   # also refuses nan
     "need 0 < beta_min <= beta_max < 1, got ({c.beta_min}, {c.beta_max})"),
    (("embed_dim",), lambda v: v % 2, "{name} must be even"),
    ((), lambda c: not 1 <= c.substeps <= c.diffusion_steps,
     "substeps must lie in 1..diffusion_steps ({c.diffusion_steps}), got {c.substeps}"),
    (("missing_policy",), lambda v: v not in ("strict", "ffill"), "unknown {name} {value!r}"),
    ((), lambda c: c.use_episodic and c.shared_memory and c.n_channels > c.queue_size,
     "n_channels patterns per episodic update exceed queue_size"),
)

# section name keyed by its first field; TrainConfig declares fields in section order
_SECTIONS = {"dataset": "data", "lookback": "model", "diffusion_steps": "diffusion",
             "use_semantic": "memory", "alpha1": "train", "seed": "run", "synth_length": "synth"}

_FIELD_NAMES = {f.name for f in dataclasses.fields(TrainConfig)}


def _parse_value(raw: str):
    raw = raw.strip()
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def parse_config_text(text: str) -> "dict[str, object]":
    """key = value lines with [section] headers to a flat field dict."""
    values: "dict[str, object]" = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith(("#", ";")):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            continue  # sections are cosmetic; field names are globally unique
        if "=" not in stripped:
            raise UsageError(f"config line {lineno}: expected key = value, got {line!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key not in _FIELD_NAMES:
            raise UsageError(f"config line {lineno}: unknown key {key!r}")
        values[key] = _parse_value(raw)
    return values


def _as_int(val) -> int:
    """val as an int; a boolean or fractional value raises ValueError."""
    if isinstance(val, bool) or (isinstance(val, float) and not val.is_integer()):
        raise ValueError(val)
    return int(val)


_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}


def _as_bool(val) -> bool:
    """val as a bool: true/false, 0/1 or a word of _BOOL_WORDS in any case, else ValueError."""
    word = str(val).lower() if isinstance(val, (int, str)) else None   # a bool is an int
    if word not in _BOOL_WORDS:
        raise ValueError(val)
    return _BOOL_WORDS[word]


def load_config(path: "str | None", overrides: "list[str] | None" = None) -> TrainConfig:
    """Build a TrainConfig from an optional file plus key=value overrides.

    The config is not validated here: the caller may still set fields from
    the data (the CLI takes n_channels from it), then calls validate().
    """
    values: "dict[str, object]" = {}
    if path:
        try:
            with open(path, "r", encoding="utf-8") as f:
                values.update(parse_config_text(f.read()))
        except OSError as exc:
            raise UsageError(f"cannot read config {path}: {exc}") from exc
    for item in overrides or []:
        if "=" not in item:
            raise UsageError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        key = key.strip().split(".")[-1]  # accept section.key form
        if key not in _FIELD_NAMES:
            raise UsageError(f"--set: unknown key {key!r}")
        values[key] = _parse_value(raw)
    cfg = TrainConfig()
    for key, val in values.items():
        current = getattr(cfg, key)
        try:
            if key == "split_ratios":
                if isinstance(val, str) and val != "auto":   # not one ratio per character
                    raise ValueError(val)
                val = None if val in (None, "auto") else tuple(_as_int(v) for v in val)
            elif isinstance(current, bool):
                val = _as_bool(val)
            elif isinstance(current, int):
                val = _as_int(val)
            elif isinstance(current, float) and not isinstance(val, bool):
                val = float(val)
            elif not isinstance(val, type(current)):   # str or list: quote a number meant as text
                raise ValueError(val)
            elif isinstance(current, list):
                val = [_as_int(v) for v in val]
        except (TypeError, ValueError):
            raise UsageError(f"config: {key} cannot take the value {val!r}") from None
        setattr(cfg, key, val)
    return cfg


def resolved_text(cfg: TrainConfig) -> str:
    """All fields materialized, in the same parseable format."""
    lines = []
    for f in dataclasses.fields(TrainConfig):
        if f.name in _SECTIONS:
            if lines:
                lines.append("")
            lines.append(f"[{_SECTIONS[f.name]}]")
        val = getattr(cfg, f.name)
        if isinstance(val, tuple):
            val = list(val)
        lines.append(f"{f.name} = {json.dumps(val)}")
    lines.append("")
    return "\n".join(lines)


def config_hash(cfg: TrainConfig) -> str:
    """Identity of the run configuration; where it writes (out_dir) is excluded."""
    lines = [line for line in resolved_text(cfg).splitlines() if not line.startswith("out_dir")]
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:16]
