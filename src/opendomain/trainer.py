"""End-to-end training: source pretrain, graph-propagated classifier init,
cross-domain matching, then the joint loop that mixes the four loss terms,
plus the variant runner. One epoch loop serves both stages, taking the
one step :func:`joint_terms` per batch on the parameters of the stage's
:class:`MomentumSgd`; pretraining runs it with cls alone, on no target or
matched rows and a head of the known classes.

Source cross-entropy is computed over the known-class rows only, so the
unknown-class classifiers move exclusively under the balance constraint and
the graph regularizer (the known rows get both the supervised signal and the
regularizer). Training never reads the target eval labels; per-epoch
evaluation goes through the separate evaluate module and feeds nothing back.
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace

import numpy as np

from . import synth
from .config import ConfigError, ExperimentConfig, apply_flags, loss_w
from .evaluate import accuracy_triple, predict
from .gcn import gcn_reg_core, propagate, train_gcn_init
from .graph import normalized_adjacency
from .losses import NonFiniteLossError, balance_core, check_labels, cls_core, sgmd_core
from .matching import match_domains
from .model import ModelState, encode
from .numkit import MomentumSgd, as_matrix, make_rng, softmax_rows

__all__ = [
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


ABLATION_VARIANTS = {
    "baseline": (),
    "lb": ("lb",),
    "lb+sgmd": ("lb", "sgmd"),
    "lb+sgmd+gcn": ("lb", "sgmd", "gcn"),
    "vanilla-balance": ("vanilla",),
}

# known == total: no class lacks source labels, so only cls and SGMD apply
DA_VARIANTS = {"source_only": (), "sgmd": ("sgmd",)}


# --------------------------------------------------------------- train loop

def _target_order(rng, n_target: int, needed: int) -> np.ndarray:
    reps = max(1, math.ceil(needed / n_target))
    chunks = [rng.permutation(n_target) for _ in range(reps)]
    return np.concatenate(chunks)[:needed]


@dataclass(frozen=True)
class Prepared:
    """All the joint loop reads: the model after pretraining and GCN init,
    the datasets, the propagated class rows (None without a graph), the
    initial partners, the RNG streams and the config it was prepared under."""

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
    nodes, target eval labels (each a class, or None: no .eval sidecar) and the fold count."""
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
    if labels is not None and not ((labels >= 0) & (labels < total)).all():
        raise ValueError(f"{t} eval labels run from {labels.min()} to {labels.max()}, "
                         f"not over the {total} classes")
    if cfg.folds > min(source.n, target.n):
        raise ConfigError(f"train.folds = {cfg.folds} exceeds the rows of {s} ({source.n}) "
                          f"or {t} ({target.n})")


def pretrain_source(features, labels, cfg: ExperimentConfig, rng: np.random.Generator):
    """Fit the encoder and a known-class-only classifier on labeled source
    data: ``cfg.pretrain`` mini-batch momentum-SGD epochs of the joint step
    with cls alone, on an encoder of ``cfg.feature_dim`` features and a head
    of the ``cfg.synth.known_classes`` known classes.

    Raises IndexError for a label outside the known classes and
    NonFiniteLossError ("pretrain") for a step whose loss or gradient is
    not finite. Returns ([weight, bias, head], per-epoch mean loss): the
    pretrained encoder weight and bias and the known-class head.
    """
    schedule, known, m = cfg.pretrain, cfg.synth.known_classes, cfg.feature_dim
    features = np.asarray(features, float)
    labels = check_labels(labels, known)
    n, m_in = features.shape
    weight = rng.uniform(-1.0, 1.0, (m_in, m)) / np.sqrt(m_in)
    head = rng.uniform(-1.0, 1.0, (known, m)) / np.sqrt(m)
    opt = MomentumSgd([weight, np.zeros(m), head], schedule.learning_rate, schedule.momentum)
    cls_only, empty, batch = apply_flags(cfg, ()), features[:0], schedule.batch_size
    cuts = [0] * (len(range(0, n, batch)) + 1)  # no batch holds matched rows
    history = []
    for _ in range(schedule.epochs):
        order = rng.permutation(n)
        try:
            steps = _epoch(opt, known, None, cls_only, batch, features[order], labels[order],
                           empty, empty, empty, cuts)
        except NonFiniteLossError as exc:
            raise NonFiniteLossError("pretrain", exc.value) from None
        history.append(float(np.mean([total for _, total, _ in steps])))
    return opt.params, history


def prepare(cfg: ExperimentConfig, data) -> Prepared:
    """Source pretraining, GCN propagation of the classifiers to the
    unknown classes, and the initial fold-wise matching of ``data``, a
    (source, target, graph, word_vectors) tuple that :func:`check_data`
    refuses first, with the part names, if it does not fit ``cfg``."""
    check_data(cfg, data)
    source, target, graph, word_vectors = data
    streams = np.random.SeedSequence(cfg.seed).spawn(4)
    rng_pre, rng_gcn, rng_match, rng_joint = (make_rng(s) for s in streams)

    (weight, bias, head), _ = pretrain_source(source.features, source.labels, cfg, rng_pre)
    # without a graph (a symmetric label space) the head stays the pretrained one
    z_class, theta = None, np.zeros((word_vectors.shape[1], cfg.feature_dim))
    if graph is not None:
        z_class = propagate(normalized_adjacency(graph), word_vectors, graph.class_to_node)
        theta, head = train_gcn_init(z_class, head, cfg.gcn, rng_gcn)
    state = ModelState(weight, bias, head, cfg.synth.known_classes, theta)
    partner = _partner(state, source, target, cfg.folds, rng_match)
    return Prepared(state=state, source=source, target=target, z_class=z_class, partner=partner,
                    rng_match=rng_match, rng_joint=rng_joint, config=cfg)


def joint_terms(opt: MomentumSgd, known: int, z_class, cfg: ExperimentConfig,
                raw_s, labels, raw_t, raw_ms, raw_mt):
    """One training step over the terms switched on by ``cfg``: cls on the
    source batch, balance on the target batch, SGMD on the matched rows and
    the graph tie on the propagated class rows ``z_class``. It is the only
    training step, which one epoch loop takes for both stages: the joint loop,
    and pretraining with every term but cls switched off.

    The rows of every term are stacked (source batch, target batch, matched
    sources, matched targets), encoded once and scored by one logits
    product against the whole head. The source rows' unknown-class logits
    are -inf, so one softmax, in place, gives cls its responses over the
    known classes and balance and SGMD theirs over all classes. The cores
    turn the cls and balance rows into logit gradients and write SGMD's
    feature gradients below them; each weighted by its :class:`LossWeights`
    field, all are mapped back once, through the head and then the encoder.
    Matched rows join only when some pair passes the gate.

    It reads the parameters from ``opt.params`` and writes their gradients
    of the total into ``opt.grads``, which ``opt.step()`` then applies: the
    encoder weight and bias, the head, whose first ``known`` rows are the
    known classes, and, with the graph term, theta. Not checked here is what
    holds for a whole run: the labels' range (each loop checks it), ``w``
    (:class:`LossWeights`) and the shapes (:func:`check_data`).

    Finiteness is tested once per step, after the backward pass: the total,
    then the gradients, in ``opt.grads_finite()``'s one scan of the
    gradient buffer. Only when that test fails does the diagnosis scan each
    term's value and gradients.

    Returns (values, total, gate): term -> value, the weighted total and the
    SGMD gate (empty if SGMD did not run). When the total or a gradient is not
    finite, NonFiniteLossError(name, value) names the first term in ``values``
    order, then "total", whose value (or, as nan, a gradient) is not.
    """
    lw, grads = cfg.loss, opt.grads
    w_enc, b_enc, w_head = opt.params[:3]
    balance = cfg.enable_lb or cfg.vanilla_balance
    n_s = len(raw_s)
    n_l = n_s + (len(raw_t) if balance else 0)  # rows with a logit gradient
    n_m = len(raw_ms) if cfg.enable_sgmd else 0  # matched pairs, after them
    raw = np.concatenate([raw_s] + ([raw_t] if balance else [])
                         + ([raw_ms, raw_mt] if n_m else []))
    f = raw @ w_enc + b_enc
    # the responses; rows :n_l become their terms' logit gradients
    probs = f @ w_head.T
    probs[:n_s, known:] = -np.inf
    softmax_rows(probs, out=probs)
    d_f = np.empty((n_l + 2 * n_m, f.shape[1]))  # the feature gradients
    d_ms = d_f[n_l:n_l + n_m]
    # the source rows' unknown-class responses are 0, and stay 0 under cls
    values = {"cls": cls_core(probs[:n_s], labels)}
    if balance:
        values["balance"] = balance_core(probs[n_s:n_l], known, loss_w(cfg), lw.epsilon,
                                         cfg.vanilla_balance)
    gate = np.zeros(0, dtype=bool)
    if n_m:
        # the responses only gate the pairs; no gradient flows through them
        values["sgmd"], gate = sgmd_core(f[n_l:n_l + n_m], f[n_l + n_m:],
                                         probs[n_l:n_l + n_m], probs[n_l + n_m:],
                                         lw.tau, d_ms)
    if cfg.enable_gcn:
        theta, d_theta = opt.params[3], grads[3]
        values["gcn"], d_o = gcn_reg_core(z_class, theta, cfg.gcn.slope, w_head, d_theta)
    # summed as cls, sgmd, balance, gcn: that order fixes the total's bits
    total = 0.0
    for name, weight in (("cls", 1.0), ("sgmd", lw.lambda_d), ("balance", lw.lambda_b),
                         ("gcn", lw.lambda_g)):
        if name in values:
            total += weight * values[name]
    if balance:
        probs[n_s:n_l] *= lw.lambda_b
    used = n_l  # the rows of d_f that the backward reads
    if gate.any():
        d_ms *= lw.lambda_d
        np.negative(d_ms, out=d_f[n_l + n_m:])
        used += 2 * n_m
    np.matmul(probs[:n_l], w_head, out=d_f[:n_l])
    np.matmul(raw[:used].T, d_f[:used], out=grads[0])
    d_f[:used].sum(axis=0, out=grads[1])
    np.matmul(probs[:n_l].T, f[:n_l], out=grads[2])
    if cfg.enable_gcn:
        grads[2] -= lw.lambda_g * d_o
        d_theta *= lw.lambda_g
    # a non-finite term leaves the total or the gradients non-finite, so the scan
    # that names it runs only then; else the sum or the mapping back overflowed
    if not (math.isfinite(total) and opt.grads_finite()):
        term_grads = {"cls": [probs[:n_s]], "balance": [probs[n_s:n_l]], "sgmd": [d_ms],
                      "gcn": [d_theta, d_o] if cfg.enable_gcn else [], "total": grads}
        for name, value in [*values.items(), ("total", total)]:
            if not math.isfinite(value):
                raise NonFiniteLossError(name, value)
            if not all(np.isfinite(g).all() for g in term_grads[name]):
                raise NonFiniteLossError(name, float("nan"))
    return values, total, gate


def _epoch(opt, known, z_class, cfg, batch, xs, ys, xt, xms, xmt, cuts) -> list:
    """:func:`joint_terms` and ``opt.step()`` on each batch of an epoch's rows in
    batch order: batch b takes ``batch`` rows from ``b * batch`` of the sources
    ``xs`` (labels ``ys``) and targets ``xt``, and rows ``cuts[b]:cuts[b + 1]``
    of the matched ``xms`` and ``xmt``. Returns each step's (values, total, gate)."""
    steps = []
    for b, start in enumerate(range(0, len(xs), batch)):
        rows, matched = slice(start, start + batch), slice(cuts[b], cuts[b + 1])
        steps.append(joint_terms(opt, known, z_class, cfg, xs[rows], ys[rows], xt[rows],
                                 xms[matched], xmt[matched]))
        opt.step()
    return steps


def train_joint(prepared: Prepared, tokens=None, eval_every_epoch: bool = True):
    """The joint loop over the cls, SGMD, balance and graph terms, with rematching
    every ``train.rematch_interval`` epochs, under ``prepared.config`` or, given
    flag ``tokens``, under ``apply_flags(prepared.config, tokens)``: the flags
    are the one part of a config that :func:`prepare` does not read.

    Trains a copy and leaves ``prepared`` as it found it: the trained
    arrays (the encoder, the head and, with the graph term, theta) are
    copied into the one buffer of a :class:`MomentumSgd`, which each step
    updates in one pass, and the RNG streams are copies too. Returns (ModelState, history),
    the state sharing no array with ``prepared`` and the history one
    record per epoch: the loss term means, the fraction of matched pairs
    passing the similarity gate and the accuracy triple, None where the
    target's eval_labels are None or, unless ``eval_every_epoch``, before the last epoch.
    """
    cfg = prepared.config if tokens is None else apply_flags(prepared.config, tokens)
    source, target, init = prepared.source, prepared.target, prepared.state
    known, partner = init.known_count, prepared.partner
    check_labels(source.labels, known)
    rng_joint, rng_match = copy.deepcopy((prepared.rng_joint, prepared.rng_match))

    trained = [init.weight, init.bias, init.head] + ([init.theta] if cfg.enable_gcn else [])
    opt = MomentumSgd(trained, cfg.learning_rate, cfg.momentum)
    theta = opt.params[3] if cfg.enable_gcn else init.theta.copy()
    state = ModelState(*opt.params[:3], known, theta)

    n_src, batch = source.n, cfg.batch_size
    history = []

    for epoch in range(cfg.epochs):
        if cfg.rematch_interval > 0 and epoch > 0 and epoch % cfg.rematch_interval == 0:
            partner = _partner(state, source, target, cfg.folds, rng_match)
        order_src = rng_joint.permutation(n_src)
        order_tgt = _target_order(rng_joint, target.n, n_src)
        # the epoch's rows in batch order, as _epoch takes them, matched rows too
        xs, ys = source.features[order_src], source.labels[order_src]
        xt = target.features[order_tgt]
        at = np.flatnonzero(partner[order_src] >= 0)
        xms, xmt = xs[at], target.features[partner[order_src[at]]]
        cuts = np.searchsorted(at, range(0, n_src + batch, batch)).tolist()
        steps = _epoch(opt, known, prepared.z_class, cfg, batch, xs, ys, xt, xms, xmt, cuts)
        # freed before the evaluation and the next gather, whose arrays
        # would otherwise stack on them at the run's memory peak
        del xs, ys, xt, xms, xmt
        sums = {"cls": 0.0, "sgmd": 0.0, "balance": 0.0, "gcn": 0.0, "total": 0.0}
        for values, total, _ in steps:  # in step order, which fixes the sums' bits
            for name, val in [*values.items(), ("total", total)]:
                sums[name] += val
        gates = np.concatenate([gate for _, _, gate in steps])
        record = {"epoch": epoch, **{f"loss_{name}": sums[name] / len(steps) for name in sums},
                  "gated_fraction": int(gates.sum()) / gates.size if gates.size else 0.0}
        if target.eval_labels is not None and (eval_every_epoch or epoch == cfg.epochs - 1):
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
    return train_joint(prepare(cfg, data))


# ----------------------------------------------------------------- runners

def run_ablation(base: ExperimentConfig, seeds, data=None):
    """Train each variant per seed and aggregate the final accuracy triples
    into means and standard deviations. The variants follow the label
    space: the five ``ABLATION_VARIANTS`` with unknown classes, else
    ``DA_VARIANTS``, whose unknown column reads 0 (no unknown instances).

    Each seed is prepared once, and every variant trains from it under its
    flag tokens. With ``data`` the dataset is held fixed and only the
    training seed varies; otherwise each seed regenerates the benchmark.
    """
    if not len(seeds):
        raise ConfigError("run_ablation needs at least one seed")
    if data is not None and data[1].eval_labels is None:
        raise ValueError("run_ablation needs a target with eval labels")
    open_set = base.synth.known_classes < base.synth.total_classes
    variants = ABLATION_VARIANTS if open_set else DA_VARIANTS
    runs = {name: [] for name in variants}
    for seed in seeds:
        cfg = replace(base, seed=int(seed))
        if data is None:
            cfg = replace(cfg, synth=replace(base.synth, seed=int(seed)))
        prepared = prepare(cfg, synth.generate(cfg.synth) if data is None else data)
        for name, tokens in variants.items():
            _, history = train_joint(prepared, tokens, eval_every_epoch=False)
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

