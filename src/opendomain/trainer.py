"""End-to-end training: source pretrain, graph-propagated classifier init,
cross-domain matching, then the joint loop that mixes the four loss terms,
plus the variant runner.

Source cross-entropy is computed over the known-class rows only, so the
unknown-class classifiers move exclusively under the balance constraint and
the graph regularizer (the known rows get both the supervised signal and the
regularizer). Training never reads the target eval labels; per-epoch
evaluation goes through the separate evaluate module and feeds nothing back.
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import synth
from .evaluate import accuracy_triple, predict
from .gcn import GcnParams, GcnSchedule, gcn_reg_loss, propagate, train_gcn_init
from .graph import normalized_adjacency
from .losses import (
    ClassifierHead,
    LossWeights,
    balance_loss_vanilla,
    classifier_responses,
    cls_loss,
    limited_balance_loss,
    sgmd_loss,
    total_loss,
)
from .matching import match_domains
from .model import (
    ModelState,
    PretrainSchedule,
    config_hash,
    encode,
    encode_backward,
    pretrain_source,
)
from .numkit import MomentumSgd, check_sgd_settings, make_rng

__all__ = [
    "ConfigError",
    "NonFiniteLossError",
    "ExperimentConfig",
    "parse_config",
    "config_to_text",
    "apply_flags",
    "Prepared",
    "prepare",
    "joint_terms",
    "train_joint",
    "run_pipeline",
    "run_ablation",
    "ABLATION_VARIANTS",
    "DA_VARIANTS",
    "format_ablation_table",
]


class ConfigError(ValueError):
    """Bad experiment configuration (unknown key, missing key, bad value)."""


class NonFiniteLossError(RuntimeError):
    """A loss term went NaN/Inf; carries the offending component name."""

    def __init__(self, component: str, value: float):
        super().__init__(f"non-finite loss in component '{component}' ({value})")
        self.component = component


@dataclass(frozen=True)
class ExperimentConfig:
    synth: synth.SynthConfig = field(default_factory=synth.SynthConfig)
    loss_weights: LossWeights = field(default_factory=LossWeights)
    pretrain: PretrainSchedule = field(default_factory=PretrainSchedule)
    gcn_schedule: GcnSchedule = field(default_factory=GcnSchedule)
    feature_dim: int = 16
    learning_rate: float = 0.05
    momentum: float = 0.9
    epochs: int = 40
    batch_size: int = 32
    folds: int = 5
    rematch_interval: int = 0
    seed: int = 0
    enable_lb: bool = True
    enable_sgmd: bool = True
    enable_gcn: bool = True
    vanilla_balance: bool = False

    def __post_init__(self):
        if self.enable_lb and self.vanilla_balance:
            raise ConfigError("enable_lb and vanilla_balance are mutually exclusive")
        for name in ("feature_dim", "epochs", "batch_size", "folds"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        try:
            check_sgd_settings(self.learning_rate, self.momentum)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.rematch_interval < 0:
            raise ConfigError("rematch_interval must be >= 0")
        if self.synth.known_classes == self.synth.total_classes:
            if self.enable_lb or self.vanilla_balance or self.enable_gcn:
                raise ConfigError(
                    "balance and graph terms require unknown classes; "
                    "disable them when known == total"
                )


# --flags token -> the config field it switches on
_FLAG_FIELDS = {"lb": "enable_lb", "sgmd": "enable_sgmd", "gcn": "enable_gcn",
                "vanilla": "vanilla_balance"}

ABLATION_VARIANTS = {
    "baseline": (),
    "lb": ("lb",),
    "lb+sgmd": ("lb", "sgmd"),
    "lb+sgmd+gcn": ("lb", "sgmd", "gcn"),
    "vanilla-balance": ("vanilla",),
}

# known == total: no class lacks source labels, so only cls and SGMD apply
DA_VARIANTS = {"source_only": (), "sgmd": ("sgmd",)}


def apply_flags(cfg: ExperimentConfig, tokens) -> ExperimentConfig:
    """``cfg`` with exactly the terms named by ``tokens`` (lb, sgmd, gcn,
    vanilla) switched on and the others off."""
    unknown = set(tokens) - set(_FLAG_FIELDS)
    if unknown:
        raise ConfigError(f"unknown flag tokens: {sorted(unknown)}")
    return replace(cfg, **{name: token in tokens
                           for token, name in _FLAG_FIELDS.items()})


# ------------------------------------------------------------------ config IO

# text section -> nested config field; every other field is a train.* key,
# except the flags (flags.*)
_NESTED = {"synth": "synth", "loss": "loss_weights", "pretrain": "pretrain",
           "gcn": "gcn_schedule"}


def _sections(cfg: ExperimentConfig) -> dict:
    """The config text layout, section -> {key: value}, read off the
    dataclass fields of ``cfg``."""
    out = {}
    for section, attr in _NESTED.items():
        part = getattr(cfg, attr)
        out[section] = {f.name: getattr(part, f.name) for f in fields(part)}
    out["train"] = {}
    out["flags"] = {}
    for f in fields(cfg):
        if f.name in _NESTED.values():
            continue
        section = "flags" if f.name in _FLAG_FIELDS.values() else "train"
        out[section][f.name] = getattr(cfg, f.name)
    return out


def _parse_value(raw: str, kind, key: str):
    try:
        if kind is bool:
            low = raw.lower()
            if low in ("true", "1", "yes", "on"):
                return True
            if low in ("false", "0", "no", "off"):
                return False
            raise ValueError(raw)
        value = kind(raw)
        if kind is float and not math.isfinite(value):
            raise ValueError(raw)
        return value
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat `section.key = value` config format.

    Unknown keys are errors. Every key is optional except ``train.seed``
    and ``synth.seed``, which pin the experiment. ``loss.w`` defaults to
    the proportion of unknown classes.
    """
    # a key's type is the type of its default value
    defaults = _sections(ExperimentConfig())
    values: dict = {name: {} for name in defaults}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'section.key = value'")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if "." not in key:
            raise ConfigError(f"line {lineno}: key {key!r} missing section")
        section, _, name = key.partition(".")
        if section not in defaults or name not in defaults[section]:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if name in values[section]:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        kind = type(defaults[section][name])
        values[section][name] = _parse_value(val, kind, key)

    for required in ("train.seed", "synth.seed"):
        section, _, name = required.partition(".")
        if name not in values[section]:
            raise ConfigError(f"missing required key: {required}")

    top = {**values["train"], **values["flags"]}
    synth_cfg = synth.SynthConfig(**values["synth"])
    loss_vals = values["loss"]
    if "w" not in loss_vals:
        unknown = synth_cfg.total_classes - synth_cfg.known_classes
        loss_vals["w"] = unknown / synth_cfg.total_classes if unknown else 0.5
    try:
        return ExperimentConfig(
            synth=synth_cfg,
            loss_weights=LossWeights(**loss_vals),
            pretrain=PretrainSchedule(**values["pretrain"]),
            gcn_schedule=GcnSchedule(**values["gcn"]),
            **top,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def config_to_text(cfg: ExperimentConfig) -> str:
    """Canonical flat text form; parse_config round-trips it."""
    lines = [f"{section}.{name} = {value}"
             for section, keys in _sections(cfg).items()
             for name, value in sorted(keys.items())]
    return "\n".join(lines) + "\n"


def experiment_hash(cfg: ExperimentConfig) -> str:
    return config_hash(config_to_text(cfg))


# --------------------------------------------------------------- train loop

def _check_finite(name: str, value: float, grads: dict) -> None:
    if not math.isfinite(value):
        raise NonFiniteLossError(name, value)
    for g in grads.values():
        if not np.all(np.isfinite(g)):
            raise NonFiniteLossError(name, float("nan"))


def _restricted_cls(f_src, head: ClassifierHead, labels):
    """Source cross-entropy over the known-class rows only; the returned
    head-weight gradient is zero on the unknown rows."""
    known = ClassifierHead(weights=head.weights[: head.known_count],
                           known_count=head.known_count)
    loss, d_f, d_w_known = cls_loss(f_src, known, labels)
    d_w = np.zeros_like(head.weights)
    d_w[: head.known_count] = d_w_known
    return loss, d_f, d_w


def _target_order(rng, n_target: int, needed: int) -> np.ndarray:
    reps = max(1, math.ceil(needed / n_target))
    chunks = [rng.permutation(n_target) for _ in range(reps)]
    return np.concatenate(chunks)[:needed]


@dataclass
class Prepared:
    """All the joint loop reads: the model after pretraining and GCN init,
    the datasets, the propagated class rows (None without a graph), the
    initial partners and the RNG streams. No enable_* flag is read before
    this point, so every variant of a seed can start from a deep copy."""

    state: ModelState
    source: synth.LabeledDataset
    target: synth.UnlabeledDataset
    z_class: np.ndarray | None
    partner: np.ndarray
    rng_match: np.random.Generator
    rng_joint: np.random.Generator


def _partner(enc, source, target, folds: int, rng) -> np.ndarray:
    """Fold-wise matching of the encoded domains as partner[s], the target
    matched to source s, or -1."""
    pairs = match_domains(encode(source.features, enc),
                          encode(target.features, enc), folds, rng)
    partner = np.full(source.n, -1)
    matched = np.array(pairs.pairs, dtype=int).reshape(-1, 2)
    partner[matched[:, 0]] = matched[:, 1]
    return partner


def _check_class_counts(cfg: ExperimentConfig, source, graph, word_vectors) -> None:
    """Reject a config whose class counts are not the data's: the graph's,
    or without a graph, the source label range and the word-vector rows."""
    if graph is not None:
        known, total = graph.known_class_count, graph.total_class_count
    else:
        known, total = int(source.labels.max(initial=-1)) + 1, word_vectors.shape[0]
    if (cfg.synth.known_classes, cfg.synth.total_classes) != (known, total):
        raise ConfigError(
            f"config has {cfg.synth.known_classes} known / "
            f"{cfg.synth.total_classes} total classes, the data {known} / {total}")


def prepare(cfg: ExperimentConfig, data) -> Prepared:
    """Source pretraining, GCN propagation of the classifiers to the
    unknown classes, and the initial fold-wise matching.

    ``data`` is a (source, target, graph, word_vectors) tuple.
    """
    source, target, graph, word_vectors = data
    l_s = cfg.synth.known_classes
    if graph is None and l_s != cfg.synth.total_classes:
        raise ConfigError("a taxonomy graph is required when unknown classes exist")
    _check_class_counts(cfg, source, graph, word_vectors)
    streams = np.random.SeedSequence(cfg.seed).spawn(4)
    rng_pre, rng_gcn, rng_match, rng_joint = (make_rng(s) for s in streams)

    enc, w_src, _ = pretrain_source(source.features, source.labels, l_s,
                                    cfg.feature_dim, cfg.pretrain, rng_pre)
    z_class = None
    if graph is not None:
        z_class = propagate(normalized_adjacency(graph), word_vectors,
                            graph.class_to_node)
        gcn_params, embeddings, _ = train_gcn_init(z_class, w_src, cfg.gcn_schedule,
                                                   rng_gcn)
        head = ClassifierHead(weights=embeddings, known_count=l_s)
    else:
        # symmetric label space: no propagation target, head starts at the
        # pretrained classifier
        gcn_params = GcnParams(theta=np.zeros((word_vectors.shape[1], cfg.feature_dim)),
                               activation_slope=cfg.gcn_schedule.slope)
        head = ClassifierHead(weights=w_src.copy(), known_count=l_s)
    partner = _partner(enc, source, target, cfg.folds, rng_match)
    return Prepared(state=ModelState(encoder=enc, head=head, gcn=gcn_params),
                    source=source, target=target, z_class=z_class, partner=partner,
                    rng_match=rng_match, rng_joint=rng_joint)


def joint_terms(state: ModelState, z_class, cfg: ExperimentConfig,
                raw_s, labels, raw_t, raw_ms, raw_mt):
    """One joint-loop step's terms, each switched on by ``cfg``: cls on the
    source batch, balance on the target batch, SGMD on the matched rows and
    the graph tie on the propagated class rows ``z_class``. Returns
    (components, gate): term -> (value, {parameter: gradient}) as
    ``total_loss`` takes it, and the SGMD gate (empty if SGMD did not run).
    """
    enc, head = state.encoder, state.head
    lw = cfg.loss_weights
    components = {}

    f_s = encode(raw_s, enc)
    val, d_f, d_w = _restricted_cls(f_s, head, labels)
    d_ew, d_eb = encode_backward(raw_s, d_f)
    components["cls"] = (val, {"encoder.weight": d_ew, "encoder.bias": d_eb,
                               "head.weights": d_w})

    if cfg.enable_lb or cfg.vanilla_balance:
        f_t = encode(raw_t, enc)
        if cfg.vanilla_balance:
            val, d_f, d_w = balance_loss_vanilla(f_t, head, lw.epsilon)
        else:
            val, d_f, d_w = limited_balance_loss(f_t, head, lw.w, lw.epsilon)
        d_ew, d_eb = encode_backward(raw_t, d_f)
        components["balance"] = (val, {"encoder.weight": d_ew, "encoder.bias": d_eb,
                                       "head.weights": d_w})

    gate = np.zeros(0, dtype=bool)
    if cfg.enable_sgmd and len(raw_ms):
        f_ms = encode(raw_ms, enc)
        f_mt = encode(raw_mt, enc)
        # responses only gate the pairs; no gradient flows here
        p_ms = classifier_responses(f_ms, head)
        p_mt = classifier_responses(f_mt, head)
        val, d_fs, d_ft, gate = sgmd_loss(f_ms, f_mt, p_ms, p_mt, lw.tau)
        if gate.any():
            dw_s, db_s = encode_backward(raw_ms, d_fs)
            dw_t, db_t = encode_backward(raw_mt, d_ft)
            components["sgmd"] = (val, {"encoder.weight": dw_s + dw_t,
                                        "encoder.bias": db_s + db_t})

    if cfg.enable_gcn:
        val, d_theta, d_w_hat = gcn_reg_loss(z_class, state.gcn, head.weights)
        components["gcn"] = (val, {"gcn.theta": d_theta, "head.weights": d_w_hat})
    return components, gate


def train_joint(prepared: Prepared, cfg: ExperimentConfig):
    """The joint loop over the cls, SGMD, balance and graph terms, with
    rematching every ``cfg.rematch_interval`` epochs.

    Trains ``prepared`` in place (its model and RNG streams); deep-copy it
    first to train several variants from one prefix. Returns (ModelState,
    history), the history one record per epoch: the loss term means, the
    fraction of matched pairs passing the similarity gate and the accuracy
    triple. A target without eval labels (label -1) records its accuracies
    as None.
    """
    state, source, target = prepared.state, prepared.source, prepared.target
    enc, head = state.encoder, state.head
    rng_joint, partner = prepared.rng_joint, prepared.partner
    labeled = not (target.eval_labels < 0).any()

    params = {"encoder.weight": enc.weight, "encoder.bias": enc.bias,
              "head.weights": head.weights}
    if cfg.enable_gcn:
        params["gcn.theta"] = state.gcn.theta
    opt = MomentumSgd(params, cfg.learning_rate, cfg.momentum)

    n_src = source.n
    history = []

    for epoch in range(cfg.epochs):
        if cfg.rematch_interval > 0 and epoch > 0 and epoch % cfg.rematch_interval == 0:
            partner = _partner(enc, source, target, cfg.folds, prepared.rng_match)
        order_src = rng_joint.permutation(n_src)
        order_tgt = _target_order(rng_joint, target.n, n_src)
        sums = {"cls": 0.0, "sgmd": 0.0, "balance": 0.0, "gcn": 0.0, "total": 0.0}
        gated = 0
        considered = 0
        steps = 0
        for start in range(0, n_src, cfg.batch_size):
            src_idx = order_src[start:start + cfg.batch_size]
            tgt_idx = order_tgt[start:start + cfg.batch_size]
            s_ids = src_idx[partner[src_idx] >= 0]
            components, gate = joint_terms(
                state, prepared.z_class, cfg, source.features[src_idx],
                source.labels[src_idx], target.features[tgt_idx],
                source.features[s_ids], target.features[partner[s_ids]])
            considered += gate.size
            gated += int(gate.sum())

            total, merged = total_loss(components, cfg.loss_weights)
            # a non-finite term leaves the weighted sums non-finite, so the
            # per-term scan, which names the term, runs only when they are
            if not (math.isfinite(total)
                    and all(np.isfinite(g).all() for g in merged.values())):
                for name, (val, grads) in components.items():
                    _check_finite(name, val, grads)
            for name, (val, _) in components.items():
                sums[name] += val
            sums["total"] += total
            opt.step(merged)
            steps += 1

        record = {
            "epoch": epoch,
            "loss_cls": sums["cls"] / steps,
            "loss_sgmd": sums["sgmd"] / steps,
            "loss_balance": sums["balance"] / steps,
            "loss_gcn": sums["gcn"] / steps,
            "loss_total": sums["total"] / steps,
            "gated_fraction": gated / considered if considered else 0.0,
        }
        if labeled:
            preds = predict(state, target.features)
            record.update(accuracy_triple(preds, target.eval_labels,
                                          head.known_count).as_dict())
        else:
            record.update(known=None, unknown=None, all=None, n_known=None, n_unknown=None)
        history.append(record)
    return state, history


def run_pipeline(cfg: ExperimentConfig, data=None):
    """Execute the staged pipeline and the joint loop.

    ``data`` is an optional (source, target, graph, word_vectors) tuple;
    when omitted the synthetic benchmark from cfg.synth is generated.
    Returns (ModelState, history) as :func:`train_joint` does.
    """
    if data is None:
        data = synth.generate(cfg.synth)
    return train_joint(prepare(cfg, data), cfg)


# ----------------------------------------------------------------- runners

def run_ablation(base: ExperimentConfig, seeds, data=None):
    """Train each variant per seed and aggregate the final accuracy triples
    into means and standard deviations. The variants follow the label
    space: the five ``ABLATION_VARIANTS`` with unknown classes, else
    ``DA_VARIANTS``, whose unknown column reads 0 (no unknown instances).

    Each seed's prefix is prepared once and every variant trains from a
    deep copy of it. With ``data`` the dataset is held fixed and only the
    training seed varies; otherwise each seed regenerates the benchmark.
    """
    if not len(seeds):
        raise ConfigError("run_ablation needs at least one seed")
    open_set = base.synth.known_classes < base.synth.total_classes
    variants = ABLATION_VARIANTS if open_set else DA_VARIANTS
    runs = {name: [] for name in variants}
    for seed in seeds:
        cfg = replace(base, seed=int(seed))
        if data is None:
            cfg = replace(cfg, synth=replace(base.synth, seed=int(seed)))
        prepared = prepare(cfg, synth.generate(cfg.synth) if data is None else data)
        for name, tokens in variants.items():
            _, history = train_joint(copy.deepcopy(prepared), apply_flags(cfg, tokens))
            runs[name].append({k: history[-1][k] for k in ("known", "unknown", "all")})
    results = {}
    for variant, variant_runs in runs.items():
        entry = {"seeds": len(variant_runs), "runs": variant_runs}
        for key in ("known", "unknown", "all"):
            vals = np.array([r[key] for r in variant_runs])
            entry[f"{key}_mean"] = float(vals.mean())
            entry[f"{key}_std"] = float(vals.std())
        results[variant] = entry
    return results


def format_ablation_table(results: dict) -> str:
    lines = [f"{'variant':<16} {'known':>14} {'unknown':>14} {'all':>14} {'seeds':>6}"]
    for variant, e in results.items():
        cells = [
            f"{e[k + '_mean']:.3f}±{e[k + '_std']:.3f}"
            for k in ("known", "unknown", "all")
        ]
        lines.append(f"{variant:<16} {cells[0]:>14} {cells[1]:>14} {cells[2]:>14} "
                     f"{e['seeds']:>6}")
    return "\n".join(lines) + "\n"

