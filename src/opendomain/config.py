"""The whole experiment config: its sections and their keys, each declared
once by :func:`key` on its field and refused by :func:`check_keys` with a
:class:`ConfigError` when bad, and the flat ``section.key = value`` text
form, which :func:`config_keys` walks, with that form's hash."""
from __future__ import annotations

import hashlib
import math
import numbers
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace

import numpy as np

__all__ = ["ConfigError", "SynthConfig", "LossWeights", "PretrainSchedule", "GcnSchedule",
           "ExperimentConfig", "loss_w", "apply_flags", "parse_config", "config_to_text",
           "experiment_hash"]


class ConfigError(ValueError):
    """Bad experiment configuration (unknown key, missing key, bad value)."""


# a config key's kind is the type of its default: the values it takes, its name
_KINDS = {bool: ((bool, np.bool_), "a bool"), int: (numbers.Integral, "an int"),
          float: (numbers.Real, "a float")}
# each range a key may declare: its text in an error, and its test
_RULES = {">= 0": lambda v: v >= 0, ">= 1": lambda v: v >= 1, "> 0": lambda v: v > 0,
          "in [0, 1)": lambda v: 0 <= v < 1, "in (0, 1)": lambda v: 0 < v < 1,
          "finite": lambda v: True, ">= 2 (>= total_classes builds a star)": lambda v: v >= 2}


def key(default, rule: str, kind=None):
    """A config key's field: its default, its kind (``default``'s type, or ``kind``
    for a default None) and its ``_RULES`` range."""
    return field(default=default, metadata={"rule": rule, "kind": kind or type(default)})


def check_keys(obj, section) -> None:
    """Check each field of the dataclass ``obj``: a section of its own (a
    field with a default factory) must be of that class, and a bool, int or
    float key of its kind (a bool is no number, a float no int), stored as
    the kind itself, so an int given to a float key writes a float's text;
    a ``key`` must be finite and meet its rule. The first bad field in
    declaration order is refused, a ConfigError ``<section>.<name> must be
    <rule or kind>, got <value>``; ``section`` is the section name or a
    function from a field name to it."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.default_factory is not MISSING:
            if not isinstance(value, f.default_factory):
                raise ConfigError(f"{f.name} must be a {f.default_factory.__name__}, "
                                  f"got {value!r}")
            continue
        if value is None and f.default is None:  # loss.w, derived where it is read
            continue
        kind = f.metadata.get("kind", type(f.default))
        where = section(f.name) if callable(section) else section
        types, noun = _KINDS[kind]
        try:
            if not isinstance(value, types) or (kind is not bool and isinstance(value, bool)):
                raise TypeError
            value = kind(value)
        except (TypeError, OverflowError):  # overflow: an int past the float64 range
            raise ConfigError(f"{where}.{f.name} must be {noun}, got {value!r}") from None
        object.__setattr__(obj, f.name, value)
        rule = f.metadata.get("rule")
        # an int is finite however large; math.isfinite overflows on a huge one
        if rule and not ((kind is int or math.isfinite(value)) and _RULES[rule](value)):
            raise ConfigError(f"{where}.{f.name} must be {rule}, got {value}")


@dataclass(frozen=True)
class SynthConfig:
    known_classes: int = key(8, ">= 1")
    total_classes: int = key(12, ">= 1")
    input_dim: int = key(16, ">= 1")
    word_dim: int = key(32, ">= 1")
    source_per_class: int = key(50, ">= 1")
    target_per_class: int = key(50, ">= 1")
    branching: int = key(3, ">= 2 (>= total_classes builds a star)")
    step: float = key(0.65, ">= 0")
    noise: float = key(0.5, ">= 0")
    word_noise: float = key(0.3, ">= 0")
    rotation_angle: float = key(0.25, "finite")
    translation_scale: float = key(3.5, ">= 0")
    seed: int = key(0, ">= 0")

    def __post_init__(self):
        check_keys(self, "synth")
        if self.known_classes > self.total_classes:
            raise ConfigError(f"synth.known_classes must be <= synth.total_classes, got "
                              f"{self.known_classes} > {self.total_classes}")


@dataclass(frozen=True)
class LossWeights:
    """Scalar weights and thresholds of the total objective. ``w`` None
    stands for the default that :func:`loss_w` derives from a config's
    class counts where the step reads it."""

    lambda_d: float = key(0.5, ">= 0")
    lambda_b: float = key(0.04, ">= 0")
    lambda_g: float = key(0.5, ">= 0")
    tau: float = key(0.3, "finite")
    w: float | None = key(None, "in (0, 1)", kind=float)
    epsilon: float = key(0.05, "> 0")

    def __post_init__(self):
        check_keys(self, "loss")


@dataclass(frozen=True)
class PretrainSchedule:
    learning_rate: float = key(0.05, "> 0")
    momentum: float = key(0.9, "in [0, 1)")
    epochs: int = key(12, ">= 1")
    batch_size: int = key(32, ">= 1")

    def __post_init__(self):
        check_keys(self, "pretrain")


@dataclass(frozen=True)
class GcnSchedule:
    learning_rate: float = key(0.5, "> 0")
    momentum: float = key(0.97, "in [0, 1)")
    steps: int = key(8000, ">= 1")
    init_scale: float = key(1.0, "> 0")
    slope: float = key(0.2, ">= 0")  # leaky-ReLU slope, in GCN init and in the graph tie

    def __post_init__(self):
        check_keys(self, "gcn")


@dataclass(frozen=True)
class ExperimentConfig:
    """The experiment: each dataclass field is a config section of its own
    name, every other field a ``train.*`` key, or a ``flags.*`` key. A
    ConfigError refuses a bad key (:func:`check_keys`), then a rule
    across keys, naming each key it involves."""

    synth: SynthConfig = field(default_factory=SynthConfig)
    loss: LossWeights = field(default_factory=LossWeights)
    pretrain: PretrainSchedule = field(default_factory=PretrainSchedule)
    gcn: GcnSchedule = field(default_factory=GcnSchedule)
    feature_dim: int = key(16, ">= 1")
    learning_rate: float = key(0.05, "> 0")
    momentum: float = key(0.9, "in [0, 1)")
    epochs: int = key(40, ">= 1")
    batch_size: int = key(32, ">= 1")
    folds: int = key(5, ">= 1")
    rematch_interval: int = key(0, ">= 0")
    seed: int = key(0, ">= 0")
    enable_lb: bool = True
    enable_sgmd: bool = True
    enable_gcn: bool = True
    vanilla_balance: bool = False

    def __post_init__(self):
        check_keys(self, _section)
        known, total = self.synth.known_classes, self.synth.total_classes
        if self.enable_lb and self.vanilla_balance:
            raise ConfigError("flags.enable_lb and flags.vanilla_balance are "
                              "mutually exclusive")
        on = [f"flags.{name}" for name in ("enable_lb", "vanilla_balance", "enable_gcn")
              if getattr(self, name)]
        if known == total and on:
            raise ConfigError(f"{' and '.join(on)} need unknown classes; disable them "
                              "when synth.known_classes == synth.total_classes")
        # a w equal to the derived one is the default: the text form writes it
        if self.loss.w is not None and self.loss.w == loss_w(replace(self, loss=LossWeights())):
            object.__setattr__(self, "loss", replace(self.loss, w=None))


def loss_w(cfg: ExperimentConfig) -> float:
    """``cfg.loss.w`` or, when that is None, the proportion of unknown classes,
    in (0, 1) however large the counts (0.5 when there are none)."""
    if cfg.loss.w is not None:
        return cfg.loss.w
    known, total = cfg.synth.known_classes, cfg.synth.total_classes
    return min(max((total - known) / total, 5e-324), 1 - 2**-53) if known < total else 0.5


# apply_flags token -> the config field it switches on
_FLAG_FIELDS = {"lb": "enable_lb", "sgmd": "enable_sgmd", "gcn": "enable_gcn",
                "vanilla": "vanilla_balance"}


def _section(name: str) -> str:
    """The config section of a field of ExperimentConfig that is no section
    of its own."""
    return "flags" if name in _FLAG_FIELDS.values() else "train"


def apply_flags(cfg: ExperimentConfig, tokens) -> ExperimentConfig:
    """``cfg`` with exactly the terms named by ``tokens`` (lb, sgmd, gcn,
    vanilla) switched on and the others off."""
    unknown = set(tokens) - set(_FLAG_FIELDS)
    if unknown:
        raise ConfigError(f"unknown flag tokens: {sorted(unknown)}")
    return replace(cfg, **{name: token in tokens
                           for token, name in _FLAG_FIELDS.items()})


def config_keys(cfg: ExperimentConfig):
    """Each key of ``cfg`` as (``section.name``, value, kind) in the order of
    the text form: the sections in field order, then ``train`` and ``flags``,
    each sorted by name. The kind is its field's declaration; ``loss.w`` is
    resolved."""
    sections = {}  # section -> [(field, value)]
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if is_dataclass(value):
            sections[f.name] = [(g, getattr(value, g.name)) for g in fields(value)]
        else:
            sections.setdefault(_section(f.name), []).append((f, value))
    for section, keys in sections.items():
        for f, value in sorted(keys, key=lambda k: k[0].name):
            yield (f"{section}.{f.name}", loss_w(cfg) if value is None else value,
                   f.metadata.get("kind", type(f.default)))


def _parse_value(raw: str, kind, key: str):
    try:
        if kind is bool:
            low = raw.lower()
            if low in ("true", "1", "yes", "on"):
                return True
            if low in ("false", "0", "no", "off"):
                return False
            raise ValueError(raw)
        # a non-finite float is refused by its section's check_keys
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat `section.key = value` config format.

    Unknown keys are errors. Every key is optional except ``train.seed``
    and ``synth.seed``, which pin the experiment. ``loss.w`` defaults to
    the proportion of unknown classes.
    """
    base = ExperimentConfig()
    kinds = {key: kind for key, _, kind in config_keys(base)}
    values: dict = {}  # section -> {name: value}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'section.key = value'")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in kinds:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        section, _, name = key.partition(".")
        if name in values.setdefault(section, {}):
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[section][name] = _parse_value(val, kinds[key], key)

    for required in ("train.seed", "synth.seed"):
        section, _, name = required.partition(".")
        if name not in values.get(section, {}):
            raise ConfigError(f"missing required key: {required}")

    top = {**values.pop("train"), **values.pop("flags", {})}
    parts = {name: type(getattr(base, name))(**keys) for name, keys in values.items()}
    return ExperimentConfig(**parts, **top)


def config_to_text(cfg: ExperimentConfig) -> str:
    """Canonical flat text form; parse_config round-trips it."""
    return "".join(f"{key} = {value}\n" for key, value, _ in config_keys(cfg))


def experiment_hash(cfg: ExperimentConfig) -> str:
    """The first 16 hex digits of the SHA-256 of ``config_to_text(cfg)``."""
    return hashlib.sha256(config_to_text(cfg).encode("utf-8")).hexdigest()[:16]
