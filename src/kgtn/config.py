"""Experiment configuration: defaults, file parsing, validation.

Config files are line-oriented `key = value` INI text with sections; keys
are unique across sections, so command-line overrides address them by key
alone. Unknown keys are rejected by name. Defaults follow the documented
protocol: 64-dim embeddings, 32 intents, depth 1, 4 heads, batch 2048,
learning rate from the {1e-4, 3e-4, 1e-3, 3e-3} grid, and L2 weight from
the {1e-7 .. 1e-3} grid.
"""
from __future__ import annotations

import configparser
import io
import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass, fields

from .errors import ConfigError


@dataclass
class ExperimentConfig:
    data_dir: str = ""
    # model
    embed_dim: int = 64
    n_intents: int = 32
    depth: int = 1
    agg_depth: int = 2
    n_heads: int = 4
    k_top: int = 8                     # None keeps the whole KG
    tau: float = 0.5
    share_transformer_weights: bool = False
    infonce_standard: bool = False
    # training
    alpha: float = 0.1
    l2: float = 1e-5
    lr: float = 1e-3
    batch_size: int = 2048
    epochs: int = 200
    patience: int = 10
    seed: int = 42
    noise_ratio: float = 0.0
    # data / evaluation
    train_ratio: float = 0.6
    eval_ratio: float = 0.2
    test_ratio: float = 0.2
    recall_ks: tuple = (10, 20)

    @property
    def split_ratios(self):
        return (self.train_ratio, self.eval_ratio, self.test_ratio)

    def validate(self):
        if isinstance(self.recall_ks, str) or not isinstance(self.recall_ks, Sequence):
            raise ConfigError(f"recall_ks must be a sequence of integers, got {self.recall_ks!r}")
        typed = [(key, getattr(self, key), kind) for key, kind in _FIELD_TYPES.items()
                 if kind in _KINDS and not (key == "k_top" and self.k_top is None)]
        for key, value, kind in typed + [("recall_ks", k, "int") for k in self.recall_ks]:
            cls, what = _KINDS[kind]
            # numpy numbers count; bool is an int subclass, but neither a
            # count nor a real number
            if not isinstance(value, cls) or (kind != "bool" and isinstance(value, bool)):
                raise ConfigError(f"{key} must be {what}, got {value!r}")
            if kind == "float" and not _finite(value):
                raise ConfigError(f"{key} must be finite, got {value}")
        if self.data_dir != self.data_dir.strip():
            # configparser strips a value's edges, so config.ini could not
            # give this directory back
            raise ConfigError(f"data_dir must not start or end with whitespace, got {self.data_dir!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.embed_dim < 1 or self.n_heads < 1:
            raise ConfigError("embed_dim and n_heads must be positive")
        if self.embed_dim % self.n_heads != 0:
            raise ConfigError(
                f"n_heads: {self.n_heads} does not divide embed_dim {self.embed_dim}"
            )
        if self.n_intents < 1:
            raise ConfigError(f"n_intents must be at least 1, got {self.n_intents}")
        if self.depth < 0 or self.agg_depth < 0:
            raise ConfigError("depth and agg_depth must be non-negative")
        if self.k_top is not None and self.k_top < 1:
            raise ConfigError(f"k_top must be positive or none, got {self.k_top}")
        if self.tau <= 0:
            raise ConfigError(f"tau must be positive, got {self.tau}")
        if self.alpha < 0 or self.l2 < 0:
            raise ConfigError("alpha and l2 must be non-negative")
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if self.batch_size < 2:
            raise ConfigError(f"batch_size must be at least 2, got {self.batch_size}")
        if self.epochs < 0:
            raise ConfigError("epochs must be non-negative")
        if self.patience < 1:
            raise ConfigError("patience must be at least 1")
        if not (0.0 <= self.noise_ratio <= 0.5):
            raise ConfigError(f"noise_ratio must lie in [0, 0.5], got {self.noise_ratio}")
        ratios = self.split_ratios
        if any(r < 0 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
            raise ConfigError(f"split ratios must sum to 1, got {ratios}")
        if not self.recall_ks or any(k < 1 for k in self.recall_ks):
            # an empty list would write a config.ini that cannot be read back
            raise ConfigError(f"recall_ks must list positive ks, got {self.recall_ks}")
        return self


_SECTION_OF = {
    "data_dir": "data",
    "train_ratio": "data",
    "eval_ratio": "data",
    "test_ratio": "data",
    "noise_ratio": "data",
    "embed_dim": "model",
    "n_intents": "model",
    "depth": "model",
    "agg_depth": "model",
    "n_heads": "model",
    "k_top": "model",
    "tau": "model",
    "share_transformer_weights": "model",
    "infonce_standard": "model",
    "alpha": "train",
    "l2": "train",
    "lr": "train",
    "batch_size": "train",
    "epochs": "train",
    "patience": "train",
    "seed": "train",
    "recall_ks": "eval",
}

_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}
# the type each annotated field kind must hold, and how an error names it
_KINDS = {"int": (numbers.Integral, "an integer"), "float": (numbers.Real, "a real number"),
          "bool": (bool, "true or false"), "str": (str, "a string")}


def _finite(value):
    """Whether a real number is finite as a float; an int too large for a
    float is not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _parse_value(key, text):
    if key == "data_dir":
        # verbatim, so validate() sees edge whitespace the caller gave
        return text
    text = text.strip()
    if key == "k_top":
        if text.lower() in ("none", "inf", ""):
            return None
        return _as_int(key, text)
    if key == "recall_ks":
        try:
            ks = tuple(int(p) for p in text.replace(",", " ").split())
        except ValueError:
            raise ConfigError(f"{key}: expected integers, got {text!r}") from None
        if not ks:
            raise ConfigError(f"{key}: empty list")
        return ks
    kind = _FIELD_TYPES[key]
    if kind == "bool":
        if text.lower() in ("1", "true", "yes", "on"):
            return True
        if text.lower() in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {text!r}")
    if kind == "int":
        return _as_int(key, text)
    if kind == "float":
        try:
            return float(text)
        except ValueError:
            raise ConfigError(f"{key}: expected a number, got {text!r}") from None
    raise ConfigError(f"{key}: unsupported config field")


def _as_int(key, text):
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {text!r}") from None


def parse_config(path=None, overrides=None):
    """Build a validated config from an optional file plus flag overrides.

    Overrides win over file values; unknown keys in either source are
    rejected with the offending key named.
    """
    cfg = ExperimentConfig()
    if path is not None:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                parser.read_file(fh)
        except configparser.Error as err:
            raise ConfigError(f"{path}: {err}") from None
        except UnicodeDecodeError:
            raise ConfigError(f"{path}: not valid UTF-8") from None
        # `[DEFAULT]` keys count even when no other section exists to carry
        # them; a named section's value for the same key is applied after.
        for section in [parser.default_section, *parser.sections()]:
            for key, value in parser.items(section):
                if key not in _FIELD_TYPES:
                    raise ConfigError(f"{path}: unknown config key '{key}'")
                setattr(cfg, key, _parse_value(key, value))
    for key, value in (overrides or {}).items():
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key '{key}'")
        if value is None:
            continue
        if isinstance(value, str):
            value = _parse_value(key, value)
        setattr(cfg, key, value)
    return cfg.validate()


def to_ini(cfg):
    """Lossless textual form of a config (parse_config round-trips it)."""
    parser = configparser.ConfigParser(interpolation=None)
    for section in ("data", "model", "train", "eval"):
        parser.add_section(section)
    for key, section in _SECTION_OF.items():
        value = getattr(cfg, key)
        if key == "k_top" and value is None:
            text = "none"
        elif key == "recall_ks":
            text = " ".join(str(k) for k in value)
        elif isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, float):
            text = repr(value)
        else:
            text = str(value)
        parser.set(section, key, text)
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def write_config(cfg, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_ini(cfg))
