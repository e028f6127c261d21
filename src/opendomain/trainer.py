"""End-to-end training: source pretrain, graph-propagated classifier init,
cross-domain matching, then the joint loop that mixes the four loss terms,
plus the variant runner. Both training loops take the one step
:func:`joint_terms`; pretraining runs it with cls alone on a head of the
known classes.

Source cross-entropy is computed over the known-class rows only, so the
unknown-class classifiers move exclusively under the balance constraint and
the graph regularizer (the known rows get both the supervised signal and the
regularizer). Training never reads the target eval labels; per-epoch
evaluation goes through the separate evaluate module and feeds nothing back.
"""
from __future__ import annotations

import copy
import hashlib
import math
from dataclasses import dataclass, field, fields, is_dataclass, replace

import numpy as np

from . import synth
from .evaluate import accuracy_triple, predict
from .gcn import GcnSchedule, gcn_reg_core, propagate, train_gcn_init
from .graph import normalized_adjacency
from .losses import (
    LossWeights, NonFiniteLossError, balance_core, check_finite, check_labels, cls_core,
    sgmd_core, total_loss)
from .matching import match_domains
from .model import ModelState, PretrainSchedule, encode
from .numkit import (
    MomentumSgd, as_matrix, check_keys, flat_views, key, make_rng, softmax_rows)

__all__ = [
    "ConfigError",
    "NonFiniteLossError",
    "ExperimentConfig",
    "parse_config",
    "config_to_text",
    "apply_flags",
    "pretrain_source",
    "check_data",
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


@dataclass(frozen=True)
class ExperimentConfig:
    """The experiment: each dataclass field is a config section of its own
    name, every other field a ``train.*`` key, or a ``flags.*`` key."""

    synth: synth.SynthConfig = field(default_factory=synth.SynthConfig)
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
        if self.loss.w is None:
            # loss.w defaults to the proportion of unknown classes, in (0, 1) however large
            w = min(max((total - known) / total, 5e-324), 1 - 2**-53) if known < total else 0.5
            object.__setattr__(self, "loss", replace(self.loss, w=w))
        if self.enable_lb and self.vanilla_balance:
            raise ConfigError("flags.enable_lb and flags.vanilla_balance are "
                              "mutually exclusive")
        on = [f"flags.{name}" for name in ("enable_lb", "vanilla_balance", "enable_gcn")
              if getattr(self, name)]
        if known == total and on:
            raise ConfigError(f"{' and '.join(on)} need unknown classes; disable them "
                              "when synth.known_classes == synth.total_classes")


# --flags token -> the config field it switches on
_FLAG_FIELDS = {"lb": "enable_lb", "sgmd": "enable_sgmd", "gcn": "enable_gcn",
                "vanilla": "vanilla_balance"}


def _section(name: str) -> str:
    """The config section of a field of ExperimentConfig that is no section
    of its own."""
    return "flags" if name in _FLAG_FIELDS.values() else "train"

ABLATION_VARIANTS = {
    "baseline": (),
    "lb": ("lb",),
    "lb+sgmd": ("lb", "sgmd"),
    "lb+sgmd+gcn": ("lb", "sgmd", "gcn"),
    "vanilla-balance": ("vanilla",),
}

# known == total: no class lacks source labels, so only cls and SGMD apply
DA_VARIANTS = {"source_only": (), "sgmd": ("sgmd",)}

# the config text lines of the keys that prepare reads, by their start
_PREFIX = ("synth.", "pretrain.", "gcn.", "train.feature_dim ", "train.folds ", "train.seed ")


def apply_flags(cfg: ExperimentConfig, tokens) -> ExperimentConfig:
    """``cfg`` with exactly the terms named by ``tokens`` (lb, sgmd, gcn,
    vanilla) switched on and the others off."""
    unknown = set(tokens) - set(_FLAG_FIELDS)
    if unknown:
        raise ConfigError(f"unknown flag tokens: {sorted(unknown)}")
    return replace(cfg, **{name: token in tokens
                           for token, name in _FLAG_FIELDS.items()})


# ------------------------------------------------------------------ config IO

def _sections(cfg: ExperimentConfig) -> dict:
    """The config text layout, section -> {key: value}, read off the
    dataclass fields of ``cfg`` in their order."""
    out = {}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if is_dataclass(value):
            out[f.name] = {g.name: getattr(value, g.name) for g in fields(value)}
        else:
            out.setdefault(_section(f.name), {})[f.name] = value
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
    # a key's type is the type of its default value
    base = ExperimentConfig()
    defaults = _sections(base)
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

    top = {**values.pop("train"), **values.pop("flags")}
    try:
        parts = {name: type(getattr(base, name))(**keys) for name, keys in values.items()}
        return ExperimentConfig(**parts, **top)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def config_to_text(cfg: ExperimentConfig) -> str:
    """Canonical flat text form; parse_config round-trips it."""
    lines = [f"{section}.{name} = {value}"
             for section, keys in _sections(cfg).items()
             for name, value in sorted(keys.items())]
    return "\n".join(lines) + "\n"


def experiment_hash(cfg: ExperimentConfig) -> str:
    """The first 16 hex digits of the SHA-256 of ``config_to_text(cfg)``."""
    return hashlib.sha256(config_to_text(cfg).encode("utf-8")).hexdigest()[:16]


# --------------------------------------------------------------- train loop

def _target_order(rng, n_target: int, needed: int) -> np.ndarray:
    reps = max(1, math.ceil(needed / n_target))
    chunks = [rng.permutation(n_target) for _ in range(reps)]
    return np.concatenate(chunks)[:needed]


@dataclass(frozen=True)
class Prepared:
    """All the joint loop reads: the model after pretraining and GCN init,
    the datasets, the propagated class rows (None without a graph), the
    initial partners, the RNG streams and the config, whose synth, pretrain,
    gcn, feature_dim, folds and seed keys pin it for every variant of a seed."""

    state: ModelState
    source: synth.LabeledDataset
    target: synth.UnlabeledDataset
    z_class: np.ndarray | None
    partner: np.ndarray
    rng_match: np.random.Generator
    rng_joint: np.random.Generator
    config: ExperimentConfig


def _partner(state, source, target, folds: int, rng) -> np.ndarray:
    """Fold-wise matching of the encoded domains as partner[s], the target
    matched to source s, or -1."""
    src, tgt, _, _ = match_domains(encode(source.features, state),
                                   encode(target.features, state), folds, rng)
    partner = np.full(source.n, -1)
    partner[src] = tgt
    return partner


def check_data(cfg: ExperimentConfig, data,
               names=("the source", "the target", "the graph", "the word vectors")) -> None:
    """Refuse data that does not fit the config or itself, naming the parts
    of ``data`` (source, target, graph, word vectors) by ``names``: class
    counts, non-finite entries, feature widths, word vectors against graph
    nodes, target eval labels (each a class, or all -1) and the fold count."""
    (source, target, graph, word_vectors), (s, t, g, w) = data, names
    total = cfg.synth.total_classes
    if graph is None and cfg.synth.known_classes != total:
        raise ConfigError(f"{g} is required when synth.known_classes < synth.total_classes")
    counts = ([(w, "rows", len(word_vectors), "total_classes", t)] if graph is None else
              [(g, "known classes", graph.known_class_count, "known_classes", s),
               (g, "classes", graph.total_class_count, "total_classes", t)])
    for part, what, count, key, owner in counts:
        if getattr(cfg.synth, key) != count:
            raise ConfigError(f"{part}: {count} {what}, not the synth.{key} = "
                              f"{getattr(cfg.synth, key)} of {owner}")
    for part, values in zip((s, t, w), (source.features, target.features, word_vectors)):
        as_matrix(values, part)
    width, other = source.features.shape[1], target.features.shape[1]
    if not width or other != width:
        raise ValueError(f"{t} has {other} feature columns and {s} {width}, "
                         "not the same number of at least one")
    rows, dims = word_vectors.shape
    nodes, per = (rows, "class") if graph is None else (graph.num_nodes, f"node of {g}")
    if not dims or rows != nodes:
        raise ValueError(f"{w}: {rows} x {dims}, not {nodes} rows (one per {per}) "
                         "of at least one column")
    labels = target.eval_labels
    if (labels != -1).any() and not ((labels >= 0) & (labels < total)).all():
        raise ValueError(f"{t} eval labels run from {labels.min()} to {labels.max()}, "
                         f"not over the {total} classes or all -1 (unlabeled)")
    if cfg.folds > min(source.n, target.n):
        raise ConfigError(f"train.folds = {cfg.folds} exceeds the rows of {s} ({source.n}) "
                          f"or {t} ({target.n})")


def pretrain_source(features, labels, cfg: ExperimentConfig, rng: np.random.Generator):
    """Fit the encoder and a known-class-only classifier on labeled source
    data: ``cfg.pretrain`` mini-batch momentum-SGD epochs of the joint step
    with cls alone, on a model of ``cfg.feature_dim`` features whose head
    holds the ``cfg.synth.known_classes`` known classes.

    Raises IndexError for a label outside the known classes and
    NonFiniteLossError ("pretrain") for a step whose loss or gradient is
    not finite. Returns (state, per-epoch mean loss): the state's head holds
    the known classes, and its theta is None until :func:`prepare`.
    """
    schedule, known, m = cfg.pretrain, cfg.synth.known_classes, cfg.feature_dim
    features = np.asarray(features, float)
    labels = check_labels(labels, known)
    n, m_in = features.shape
    weight = rng.uniform(-1.0, 1.0, (m_in, m)) / np.sqrt(m_in)
    head = rng.uniform(-1.0, 1.0, (known, m)) / np.sqrt(m)
    flat, (weight, bias, head) = flat_views([weight, np.zeros(m), head])
    state = ModelState(weight, bias, head, known, theta=None)
    opt = MomentumSgd(flat, schedule.learning_rate, schedule.momentum)
    grad = np.empty_like(flat)
    cls_only, empty = apply_flags(cfg, ()), features[:0]
    history = []
    for _ in range(schedule.epochs):
        order = rng.permutation(n)
        epoch_losses = []
        for start in range(0, n, schedule.batch_size):
            idx = order[start:start + schedule.batch_size]
            try:
                _, loss, _, _ = joint_terms(state, None, cls_only, features[idx], labels[idx],
                                            empty, empty, empty, out=grad)
            except NonFiniteLossError as exc:
                raise NonFiniteLossError("pretrain", exc.value) from None
            opt.step(grad)
            epoch_losses.append(loss)
        history.append(float(np.mean(epoch_losses)))
    return state, history


def prepare(cfg: ExperimentConfig, data) -> Prepared:
    """Source pretraining, GCN propagation of the classifiers to the
    unknown classes, and the initial fold-wise matching of ``data``, a
    (source, target, graph, word_vectors) tuple that :func:`check_data`
    refuses first, with the part names, if it does not fit ``cfg``."""
    check_data(cfg, data)
    source, target, graph, word_vectors = data
    streams = np.random.SeedSequence(cfg.seed).spawn(4)
    rng_pre, rng_gcn, rng_match, rng_joint = (make_rng(s) for s in streams)

    pre, _ = pretrain_source(source.features, source.labels, cfg, rng_pre)
    z_class = None
    if graph is not None:
        z_class = propagate(normalized_adjacency(graph), word_vectors,
                            graph.class_to_node)
        theta, head = train_gcn_init(z_class, pre.head, cfg.gcn, rng_gcn)
    else:
        # symmetric label space: no propagation target, head starts at the
        # pretrained classifier
        theta, head = np.zeros((word_vectors.shape[1], cfg.feature_dim)), pre.head
    state = replace(pre, head=head, theta=theta)
    partner = _partner(state, source, target, cfg.folds, rng_match)
    return Prepared(state=state, source=source, target=target, z_class=z_class, partner=partner,
                    rng_match=rng_match, rng_joint=rng_joint, config=cfg)


def joint_terms(state: ModelState, z_class, cfg: ExperimentConfig,
                raw_s, labels, raw_t, raw_ms, raw_mt, out=None):
    """One training step over the terms switched on by ``cfg``: cls on the
    source batch, balance on the target batch, SGMD on the matched rows and
    the graph tie on the propagated class rows ``z_class``. It is the only
    training step: :func:`train_joint` takes it, and :func:`pretrain_source`
    takes it with every term but cls switched off.

    The rows of every term are stacked (source batch, target batch, matched
    sources, matched targets), encoded once and scored by one logits
    product against the whole head. The source rows' unknown-class logits
    are -inf, so one softmax, in place, gives cls its responses over the
    known classes and balance and SGMD theirs over all classes. The cores
    turn the cls and balance rows into logit gradients and write SGMD's
    feature gradients below them; weighted by ``total_loss``, all are
    mapped back once, through the head and then the encoder. Matched rows
    join only when some pair passes the gate.

    Each parameter's gradient of the total is written straight into its
    view of ``out``, a flat float64 buffer (a new one when None) holding
    the state's weight, bias, head and, with the graph term, theta end to
    end; ``grads`` holds those views under their checkpoint file names
    (encoder.weight, encoder.bias, head.weights, gcn.theta). What holds for
    a whole run is not checked here: the labels' range (each loop checks
    it), ``w`` (:class:`LossWeights`) and the shapes (:func:`check_data`).

    Returns (values, total, grads, gate): term -> value, the weighted total,
    parameter -> gradient of the total, and the SGMD gate (empty if SGMD
    did not run). Raises NonFiniteLossError naming the first non-finite term
    (value or gradient), or "total" if only their sum or mapping back is not.
    """
    lw = cfg.loss
    known, w_head = state.known_count, state.head
    balance = cfg.enable_lb or cfg.vanilla_balance
    n_s = len(raw_s)
    n_l = n_s + (len(raw_t) if balance else 0)  # rows with a logit gradient
    n_m = len(raw_ms) if cfg.enable_sgmd else 0  # matched pairs, after them
    raw = np.concatenate([raw_s] + ([raw_t] if balance else [])
                         + ([raw_ms, raw_mt] if n_m else []))
    f = raw @ state.weight + state.bias
    # the responses; rows :n_l become their terms' logit gradients
    probs = f @ w_head.T
    probs[:n_s, known:] = -np.inf
    softmax_rows(probs, out=probs)
    params = [state.weight, state.bias, w_head] + ([state.theta] if cfg.enable_gcn else [])
    out, views = flat_views(params, out)  # with out None, a new buffer, overwritten below
    grads = dict(zip(("encoder.weight", "encoder.bias", "head.weights", "gcn.theta"), views))
    d_f = np.empty((n_l + 2 * n_m, f.shape[1]))  # the feature gradients
    d_ms = d_f[n_l:n_l + n_m]
    # the source rows' unknown-class responses are 0, and stay 0 under cls
    values = {"cls": cls_core(probs[:n_s], labels)}
    if balance:
        values["balance"] = balance_core(probs[n_s:n_l], known,
                                         None if cfg.vanilla_balance else lw.w, lw.epsilon)
    gate = np.zeros(0, dtype=bool)
    if n_m:
        # the responses only gate the pairs; no gradient flows through them
        values["sgmd"], gate = sgmd_core(f[n_l:n_l + n_m], f[n_l + n_m:],
                                         probs[n_l:n_l + n_m], probs[n_l + n_m:],
                                         lw.tau, d_ms)
    if cfg.enable_gcn:
        values["gcn"], d_o = gcn_reg_core(z_class, state.theta, cfg.gcn.slope, w_head,
                                          grads["gcn.theta"])
    total, weight = total_loss(values, lw)
    if balance:
        probs[n_s:n_l] *= weight["balance"]
    used = n_l  # the rows of d_f that the backward reads
    if gate.any():
        d_ms *= weight["sgmd"]
        np.negative(d_ms, out=d_f[n_l + n_m:])
        used += 2 * n_m
    np.matmul(probs[:n_l], w_head, out=d_f[:n_l])
    np.matmul(raw[:used].T, d_f[:used], out=grads["encoder.weight"])
    d_f[:used].sum(axis=0, out=grads["encoder.bias"])
    np.matmul(probs[:n_l].T, f[:n_l], out=grads["head.weights"])
    if cfg.enable_gcn:
        grads["head.weights"] -= weight["gcn"] * d_o
        grads["gcn.theta"] *= weight["gcn"]
    # a non-finite term leaves the total or the gradients non-finite, so the scan
    # that names it runs only then; else the sum or the mapping back overflowed
    if not (math.isfinite(total) and np.isfinite(out).all()):
        term_grads = {"cls": (probs[:n_s],), "balance": (probs[n_s:n_l],), "sgmd": (d_ms,)}
        if cfg.enable_gcn:
            term_grads["gcn"] = (grads["gcn.theta"], d_o)
        for name, value in values.items():
            check_finite(name, value, term_grads[name])
        check_finite("total", total, (out,))
    return values, total, grads, gate


def train_joint(prepared: Prepared, cfg: ExperimentConfig):
    """The joint loop over the cls, SGMD, balance and graph terms, with
    rematching every ``cfg.rematch_interval`` epochs; a ``cfg`` that differs
    from ``prepared.config`` in a prefix key raises ConfigError naming it.

    Trains a copy and leaves ``prepared`` as it found it: the trained
    arrays (the encoder, the head and, with the graph term, theta) are
    copied into one new flat buffer, which each step updates in one pass,
    and the RNG streams are copies too. Returns (ModelState, history),
    the state sharing no array with ``prepared`` and the history one
    record per epoch: the loss term means, the fraction of matched pairs
    passing the similarity gate and the accuracy triple. A target without
    eval labels (label -1) records its accuracies as None.
    """
    for now, was in zip(*(config_to_text(c).splitlines() for c in (cfg, prepared.config))):
        if now != was and now.startswith(_PREFIX):
            raise ConfigError(f"{now}, but the prefix was prepared under {was}")
    source, target, init = prepared.source, prepared.target, prepared.state
    known, partner = init.known_count, prepared.partner
    check_labels(source.labels, known)
    rng_joint, rng_match = copy.deepcopy((prepared.rng_joint, prepared.rng_match))
    labeled = not (target.eval_labels < 0).any()

    trained = [init.weight, init.bias, init.head, init.theta]
    flat, views = flat_views(trained[:4 if cfg.enable_gcn else 3])
    state = ModelState(*views[:3], known, views[3] if cfg.enable_gcn else init.theta.copy())
    opt = MomentumSgd(flat, cfg.learning_rate, cfg.momentum)
    grad = np.empty_like(flat)

    n_src, batch = source.n, cfg.batch_size
    starts = range(0, n_src, batch)
    steps = len(starts)
    history = []

    for epoch in range(cfg.epochs):
        if cfg.rematch_interval > 0 and epoch > 0 and epoch % cfg.rematch_interval == 0:
            partner = _partner(state, source, target, cfg.folds, rng_match)
        order_src = rng_joint.permutation(n_src)
        order_tgt = _target_order(rng_joint, target.n, n_src)
        # the epoch's rows in batch order, so that every batch is a slice;
        # the matched sources and their targets keep that order, and
        # cuts[b]:cuts[b + 1] are the ones of batch b
        xs, ys = source.features[order_src], source.labels[order_src]
        xt = target.features[order_tgt]
        at = np.flatnonzero(partner[order_src] >= 0)
        xms, xmt = xs[at], target.features[partner[order_src[at]]]
        cuts = np.searchsorted(at, range(0, n_src + batch, batch)).tolist()
        sums = {"cls": 0.0, "sgmd": 0.0, "balance": 0.0, "gcn": 0.0, "total": 0.0}
        gated = 0
        considered = 0
        for b, start in enumerate(starts):
            rows = slice(start, start + batch)
            matched = slice(cuts[b], cuts[b + 1])
            values, total, _, gate = joint_terms(
                state, prepared.z_class, cfg, xs[rows], ys[rows], xt[rows],
                xms[matched], xmt[matched], out=grad)
            considered += gate.size
            gated += int(gate.sum())
            for name, val in values.items():
                sums[name] += val
            sums["total"] += total
            opt.step(grad)
        # freed before the evaluation and the next gather, whose arrays
        # would otherwise stack on them at the run's memory peak
        del xs, ys, xt, xms, xmt

        record = {"epoch": epoch, **{f"loss_{name}": sums[name] / steps for name in sums},
                  "gated_fraction": gated / considered if considered else 0.0}
        if labeled:
            preds = predict(state, target.features)
            record.update(accuracy_triple(preds, target.eval_labels, known).as_dict())
        else:
            record.update(known=None, unknown=None, all=None, n_known=None, n_unknown=None)
        history.append(record)
    return state, history


def run_pipeline(cfg: ExperimentConfig, data=None):
    """:func:`train_joint` of :func:`prepare` on ``data``, a (source,
    target, graph, word_vectors) tuple or, when omitted, the synthetic
    benchmark of ``cfg.synth``; both are checked by :func:`check_data`.
    Returns (ModelState, history) as :func:`train_joint` does."""
    if data is None:
        data = synth.generate(cfg.synth)
    return train_joint(prepare(cfg, data), cfg)


# ----------------------------------------------------------------- runners

def run_ablation(base: ExperimentConfig, seeds, data=None):
    """Train each variant per seed and aggregate the final accuracy triples
    into means and standard deviations. The variants follow the label
    space: the five ``ABLATION_VARIANTS`` with unknown classes, else
    ``DA_VARIANTS``, whose unknown column reads 0 (no unknown instances).

    Each seed's prefix is prepared once and every variant trains from it.
    With ``data`` the dataset is held fixed and only the training seed
    varies; otherwise each seed regenerates the benchmark.
    """
    if not len(seeds):
        raise ConfigError("run_ablation needs at least one seed")
    if data is not None and (data[1].eval_labels < 0).any():
        raise ValueError("run_ablation needs a target with eval labels, not label -1")
    open_set = base.synth.known_classes < base.synth.total_classes
    variants = ABLATION_VARIANTS if open_set else DA_VARIANTS
    runs = {name: [] for name in variants}
    for seed in seeds:
        cfg = replace(base, seed=int(seed))
        if data is None:
            cfg = replace(cfg, synth=replace(base.synth, seed=int(seed)))
        prepared = prepare(cfg, synth.generate(cfg.synth) if data is None else data)
        for name, tokens in variants.items():
            _, history = train_joint(prepared, apply_flags(cfg, tokens))
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

