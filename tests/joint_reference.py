"""Two earlier forms of the joint-loop step, kept as the tests' references.

``reference_terms`` is the step the package shipped before it stacked every
term's rows into one encode and one backward pass: each term encodes,
softmaxes and backpropagates its own rows, and ``reference_total`` merges
the per-term gradient dicts with the loss weights. The loss maths is copied
too, so a slip in the package's terms cannot cancel out of the comparison.
Only the encoder and the graph tie, which the stacking leaves as they were,
come from the package.

``checked_joint_terms`` and ``checked_pretrain_source`` are the stacked
step and the pretraining loop as they were before the steps called the term
cores on their own arrays: copies that call each core as the checked term of
that time did, a softmax core on a copy of its responses (``on_copy``) and
the others into fresh gradient arrays, with ``encode``, ``encode_backward``
and the softmax of that time. The package's steps must give their bits
exactly. ``encode_backward`` is the encoder's backward pass as the package
shipped it before its steps mapped the gradients back themselves.
"""
import math

import numpy as np

from opendomain.config import loss_w
from opendomain.gcn import gcn_reg_core
from opendomain.losses import (
    NonFiniteLossError, balance_core, cls_core, sgmd_core)
from opendomain.model import encode
from opendomain.numkit import MomentumSgd, softmax_rows


def on_copy(core, d, *args, **kwargs):
    """``core(d, *args, **kwargs)`` on a copy of ``d``, which a softmax term's
    core overwrites with its logit gradient: returns (its result, the copy)."""
    d = d.copy()
    return core(d, *args, **kwargs), d


def encode_backward(raw, d_out):
    """Gradients of the linear encoder ``raw @ weight + bias`` given the
    output gradient ``d_out``: returns (d_weight, d_bias). The encoder is the
    first layer, so no gradient flows back to ``raw``."""
    raw = np.asarray(raw, float)
    d_out = np.asarray(d_out, float)
    return raw.T @ d_out, d_out.sum(axis=0)


def classifier_responses(f, head):
    """Softmax responses of the features ``f`` to the head, one row per class."""
    return softmax_rows(np.asarray(f, float) @ head.T)


def softmax_backward(probs, d_probs):
    inner = np.sum(d_probs * probs, axis=1, keepdims=True)
    return probs * (d_probs - inner)


def _feature_and_weight_grads(f, head, d_logits):
    return d_logits @ head, d_logits.T @ f


def cross_entropy(f, head, labels, eps=1e-12):
    f = np.asarray(f, float)
    labels = np.asarray(labels, dtype=int)
    probs = classifier_responses(f, head)
    n = len(labels)
    picked = probs[np.arange(n), labels]
    loss = float(-np.mean(np.log(np.maximum(picked, eps))))
    d_logits = probs.copy()
    d_logits[np.arange(n), labels] -= 1.0
    d_logits /= n
    d_f, d_w = _feature_and_weight_grads(f, head, d_logits)
    return loss, d_f, d_w


def matched_discrepancy(fs, ft, ps, pt, tau):
    n = fs.shape[0]
    if n == 0:
        return 0.0, np.zeros_like(fs), np.zeros_like(ft), np.zeros(0, dtype=bool)
    gate = np.sum(ps * pt, axis=1) > tau
    diff = fs - ft
    loss = 0.5 / n * float(np.sum(diff[gate] * diff[gate]))
    d_fs = np.zeros_like(fs)
    d_fs[gate] = diff[gate] / n
    return loss, d_fs, -d_fs, gate


def _unknown_mass(probs, known_count):
    return probs[:, known_count:].sum(axis=1)


def _balance_grads(f, head, known, probs, d_mass):
    d_probs = np.zeros_like(probs)
    d_probs[:, known:] = d_mass[:, None]
    d_logits = softmax_backward(probs, d_probs)
    return _feature_and_weight_grads(f, head, d_logits)


def vanilla_balance(f, head, known, eps=1e-12):
    probs = classifier_responses(f, head)
    mass = _unknown_mass(probs, known)
    clamped = np.maximum(mass, eps)
    n = len(mass)
    loss = float(-np.mean(np.log(clamped)))
    d_mass = np.where(mass > eps, -1.0 / (n * clamped), 0.0)
    d_f, d_w = _balance_grads(f, head, known, probs, d_mass)
    return loss, d_f, d_w


def limited_balance(f, head, known, w, eps=1e-12):
    probs = classifier_responses(f, head)
    mass = _unknown_mass(probs, known)
    clamped = np.maximum(mass, eps)
    values, derivs = clamped + w * w / clamped, 1.0 - w * w / (clamped * clamped)
    n = len(mass)
    loss = float(np.mean(values))
    d_mass = np.where(mass > eps, derivs / n, 0.0)
    d_f, d_w = _balance_grads(f, head, known, probs, d_mass)
    return loss, d_f, d_w


def _restricted_cls(f_src, head, known, labels):
    loss, d_f, d_w_known = cross_entropy(f_src, head[:known], labels)
    d_w = np.zeros_like(head)
    d_w[:known] = d_w_known
    return loss, d_f, d_w


def reference_terms(state, z_class, cfg, raw_s, labels, raw_t, raw_ms, raw_mt):
    """(components, gate): term -> (value, {parameter: gradient})."""
    head, known = state.head, state.known_count
    lw = cfg.loss
    components = {}

    f_s = encode(raw_s, state)
    val, d_f, d_w = _restricted_cls(f_s, head, known, labels)
    d_ew, d_eb = encode_backward(raw_s, d_f)
    components["cls"] = (val, {"encoder.weight": d_ew, "encoder.bias": d_eb,
                               "head.weights": d_w})

    if cfg.enable_lb or cfg.vanilla_balance:
        f_t = encode(raw_t, state)
        if cfg.vanilla_balance:
            val, d_f, d_w = vanilla_balance(f_t, head, known, lw.epsilon)
        else:
            val, d_f, d_w = limited_balance(f_t, head, known, loss_w(cfg), lw.epsilon)
        d_ew, d_eb = encode_backward(raw_t, d_f)
        components["balance"] = (val, {"encoder.weight": d_ew, "encoder.bias": d_eb,
                                       "head.weights": d_w})

    gate = np.zeros(0, dtype=bool)
    if cfg.enable_sgmd and len(raw_ms):
        f_ms = encode(raw_ms, state)
        f_mt = encode(raw_mt, state)
        p_ms = classifier_responses(f_ms, head)
        p_mt = classifier_responses(f_mt, head)
        val, d_fs, d_ft, gate = matched_discrepancy(f_ms, f_mt, p_ms, p_mt, lw.tau)
        if gate.any():
            dw_s, db_s = encode_backward(raw_ms, d_fs)
            dw_t, db_t = encode_backward(raw_mt, d_ft)
            components["sgmd"] = (val, {"encoder.weight": dw_s + dw_t,
                                        "encoder.bias": db_s + db_t})

    if cfg.enable_gcn:
        d_theta = np.empty(state.theta.shape)
        val, d_o = gcn_reg_core(z_class, state.theta, cfg.gcn.slope, head, d_theta)
        components["gcn"] = (val, {"gcn.theta": d_theta, "head.weights": -d_o})
    return components, gate


def weighted_total(values, lw):
    """(total value, {term: weight}) of the term values given; the total
    sums them as cls (weight 1), sgmd, balance, gcn, and the weights come
    in that order."""
    weights = {"cls": 1.0, "sgmd": lw.lambda_d, "balance": lw.lambda_b, "gcn": lw.lambda_g}
    total = 0.0
    for name, weight in weights.items():
        if name in values:
            total += weight * values[name]
    return total, {name: weight for name, weight in weights.items() if name in values}


def reference_total(components, lw):
    """(total value, merged grads dict) of ``reference_terms``' output."""
    total, weights = weighted_total(
        {name: value for name, (value, _) in components.items()}, lw)
    merged = {}
    for name, weight in weights.items():
        for key, grad in components[name][1].items():
            if key in merged:
                merged[key] = merged[key] + weight * grad
            else:
                merged[key] = weight * grad
    return total, merged


# ------------------------------------------------------ the checked stacked step

def checked_softmax_rows(m):
    m = np.asarray(m, dtype=np.float64)
    e = np.exp(m - m.max(axis=-1, keepdims=True))
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _check_finite(name, value, grads):
    if not math.isfinite(value):
        raise NonFiniteLossError(name, value)
    for g in grads:
        if not np.all(np.isfinite(g)):
            raise NonFiniteLossError(name, float("nan"))


def gradient_arrays(state, cfg):
    """A :class:`MomentumSgd` on copies of the arrays a step trains under
    ``cfg``, the encoder weight, bias, head and, with the graph term, theta
    of ``state``, whose ``grads`` are NaN: a gradient the step leaves
    unwritten fails its finiteness test and every comparison."""
    trained = [state.weight, state.bias, state.head] + ([state.theta] if cfg.enable_gcn else [])
    opt = MomentumSgd(trained, cfg.learning_rate, cfg.momentum)
    for grad in opt.grads:
        grad.fill(np.nan)
    return opt


def checked_joint_terms(state, z_class, cfg, raw_s, labels, raw_t, raw_ms, raw_mt, grads):
    """(values, total, gate) as the checked stacked step gave them; the
    gradient of the total goes into ``grads``, the arrays of the encoder
    weight, bias, head and, with the graph term, theta."""
    softmax_rows = checked_softmax_rows
    head, known = state.head, state.known_count
    lw = cfg.loss
    balance = cfg.enable_lb or cfg.vanilla_balance
    sgmd = cfg.enable_sgmd and len(raw_ms) > 0
    blocks = [raw_s] + ([raw_t] if balance else []) + ([raw_ms, raw_mt] if sgmd else [])
    raw = np.concatenate(blocks)
    f = encode(raw, state)
    n_s = len(raw_s)
    n_t = len(raw_t) if balance else 0
    n_m = len(raw_ms) if sgmd else 0
    n_l = n_s + n_t  # rows with a logit gradient; the matched rows follow

    logits = f @ head.T
    logits[:n_s, known:] = -np.inf
    probs = softmax_rows(logits)
    # each term's outputs: value and its gradient(s)
    outputs = {"cls": on_copy(cls_core, probs[:n_s, :known], labels)}
    if balance:
        outputs["balance"] = on_copy(balance_core, probs[n_s:n_l], known, loss_w(cfg),
                                     lw.epsilon, cfg.vanilla_balance)
    gate = np.zeros(0, dtype=bool)
    if sgmd:
        # the responses only gate the pairs; no gradient flows through them
        d_fs = np.empty((n_m, f.shape[1]))
        value, gate = sgmd_core(f[n_l:n_l + n_m], f[n_l + n_m:],
                                probs[n_l:n_l + n_m], probs[n_l + n_m:], lw.tau, d_fs)
        outputs["sgmd"] = (value, d_fs, -d_fs)
    if cfg.enable_gcn:
        d_theta = np.empty(state.theta.shape)
        value, d_o = gcn_reg_core(z_class, state.theta, cfg.gcn.slope, head, d_theta)
        outputs["gcn"] = (value, d_theta, -d_o)

    values = {name: result[0] for name, result in outputs.items()}
    total, weight = weighted_total(values, lw)
    d_logits = np.zeros((n_l, len(head)))
    d_logits[:n_s, :known] = outputs["cls"][1]
    if balance:
        np.multiply(outputs["balance"][1], weight["balance"], out=d_logits[n_s:])
    d_f = d_logits @ head
    if gate.any():
        d_fs = weight["sgmd"] * outputs["sgmd"][1]
        d_f = np.concatenate([d_f, d_fs, -d_fs])
    d_ew, d_eb = encode_backward(raw[:len(d_f)], d_f)
    computed = [d_ew, d_eb, d_logits.T @ f[:n_l]]
    if cfg.enable_gcn:
        _, d_theta, d_w_hat = outputs["gcn"]
        computed[2] += weight["gcn"] * d_w_hat
        computed.append(weight["gcn"] * d_theta)
    for grad, value in zip(grads, computed, strict=True):
        grad[...] = value

    # a non-finite term leaves the total or the gradients non-finite, so the
    # per-term scan, which names the term, runs only when they are
    if not (math.isfinite(total) and all(np.isfinite(g).all() for g in grads)):
        for name, result in outputs.items():
            _check_finite(name, result[0], result[1:])
    return values, total, gate


def checked_pretrain_source(features, labels, num_classes, feature_dim, schedule, rng):
    """([weight, bias, head], per-epoch mean loss) as the pretraining loop on
    the checked cross-entropy gave them."""
    softmax_rows = checked_softmax_rows
    features = np.asarray(features, float)
    labels = np.asarray(labels, dtype=int)
    n, m_in = features.shape
    weight = rng.uniform(-1.0, 1.0, (m_in, feature_dim)) / np.sqrt(m_in)
    weights = rng.uniform(-1.0, 1.0, (num_classes, feature_dim)) / np.sqrt(feature_dim)
    opt = MomentumSgd([weight, np.zeros(feature_dim), weights], schedule.learning_rate,
                      schedule.momentum)
    (weight, bias, weights), grads = opt.params, opt.grads
    history = []
    for _ in range(schedule.epochs):
        order = rng.permutation(n)
        epoch_losses = []
        for start in range(0, n, schedule.batch_size):
            idx = order[start:start + schedule.batch_size]
            f = features[idx] @ weight + bias
            loss, d_logits = on_copy(cls_core, softmax_rows(f @ weights.T), labels[idx])
            d_weight, d_bias = encode_backward(features[idx], d_logits @ weights)
            for grad, value in zip(grads, (d_weight, d_bias, d_logits.T @ f)):
                grad[...] = value
            opt.step()
            epoch_losses.append(loss)
        history.append(float(np.mean(epoch_losses)))
    return opt.params, history
