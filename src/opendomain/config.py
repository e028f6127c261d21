"""The experiment config, its flat ``section.key = value`` text form and
that form's hash. Each key's facts are declared once, on its field, and
:func:`config_keys` is the one walk over them that the text form and the
parser read."""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields, is_dataclass, replace

from .gcn import GcnSchedule
from .losses import LossWeights
from .numkit import check_keys, key
from .synth import SynthConfig

__all__ = ["ConfigError", "PretrainSchedule", "ExperimentConfig", "loss_w", "apply_flags",
           "config_keys", "parse_config", "config_to_text", "experiment_hash"]


class ConfigError(ValueError):
    """Bad experiment configuration (unknown key, missing key, bad value)."""


@dataclass(frozen=True)
class PretrainSchedule:
    learning_rate: float = key(0.05, "> 0")
    momentum: float = key(0.9, "in [0, 1)")
    epochs: int = key(12, ">= 1")
    batch_size: int = key(32, ">= 1")

    def __post_init__(self):
        check_keys(self, "pretrain")


@dataclass(frozen=True)
class ExperimentConfig:
    """The experiment: each dataclass field is a config section of its own
    name, every other field a ``train.*`` key, or a ``flags.*`` key. A
    ConfigError refuses a bad key (:func:`numkit.check_keys`), then a rule
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
        try:
            check_keys(self, _section)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
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


# --flags token -> the config field it switches on
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
    try:
        parts = {name: type(getattr(base, name))(**keys) for name, keys in values.items()}
        return ExperimentConfig(**parts, **top)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def config_to_text(cfg: ExperimentConfig) -> str:
    """Canonical flat text form; parse_config round-trips it."""
    return "".join(f"{key} = {value}\n" for key, value, _ in config_keys(cfg))


def experiment_hash(cfg: ExperimentConfig) -> str:
    """The first 16 hex digits of the SHA-256 of ``config_to_text(cfg)``."""
    return hashlib.sha256(config_to_text(cfg).encode("utf-8")).hexdigest()[:16]
