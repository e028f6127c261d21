"""The joint-loop step the package shipped before it stacked every term's
rows into one encode and one backward pass, kept as the tests' reference:
each term encodes, softmaxes and backpropagates its own rows, and
``reference_total`` merges the per-term gradient dicts with the loss
weights. The loss maths is copied too, so a slip in the package's terms
cannot cancel out of the comparison. Only the encoder and the graph tie,
which the stacking leaves as they were, come from the package."""
import numpy as np

from opendomain.gcn import gcn_reg_loss
from opendomain.losses import ClassifierHead
from opendomain.model import encode, encode_backward
from opendomain.numkit import softmax_rows


def classifier_responses(f, head):
    return softmax_rows(np.asarray(f, float) @ head.weights.T)


def softmax_backward(probs, d_probs):
    inner = np.sum(d_probs * probs, axis=1, keepdims=True)
    return probs * (d_probs - inner)


def _feature_and_weight_grads(f, head, d_logits):
    return d_logits @ head.weights, d_logits.T @ f


def cls_loss(f, head, labels, eps=1e-12):
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


def sgmd_loss(fs, ft, ps, pt, tau):
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


def _balance_grads(f, head, probs, d_mass):
    d_probs = np.zeros_like(probs)
    d_probs[:, head.known_count:] = d_mass[:, None]
    d_logits = softmax_backward(probs, d_probs)
    return _feature_and_weight_grads(f, head, d_logits)


def balance_loss_vanilla(f, head, eps=1e-12):
    probs = classifier_responses(f, head)
    mass = _unknown_mass(probs, head.known_count)
    clamped = np.maximum(mass, eps)
    n = len(mass)
    loss = float(-np.mean(np.log(clamped)))
    d_mass = np.where(mass > eps, -1.0 / (n * clamped), 0.0)
    d_f, d_w = _balance_grads(f, head, probs, d_mass)
    return loss, d_f, d_w


def limited_balance_loss(f, head, w, eps=1e-12):
    probs = classifier_responses(f, head)
    mass = _unknown_mass(probs, head.known_count)
    clamped = np.maximum(mass, eps)
    values, derivs = clamped + w * w / clamped, 1.0 - w * w / (clamped * clamped)
    n = len(mass)
    loss = float(np.mean(values))
    d_mass = np.where(mass > eps, derivs / n, 0.0)
    d_f, d_w = _balance_grads(f, head, probs, d_mass)
    return loss, d_f, d_w


def _restricted_cls(f_src, head, labels):
    known = ClassifierHead(weights=head.weights[: head.known_count],
                           known_count=head.known_count)
    loss, d_f, d_w_known = cls_loss(f_src, known, labels)
    d_w = np.zeros_like(head.weights)
    d_w[: head.known_count] = d_w_known
    return loss, d_f, d_w


def reference_terms(state, z_class, cfg, raw_s, labels, raw_t, raw_ms, raw_mt):
    """(components, gate): term -> (value, {parameter: gradient})."""
    enc, head = state.encoder, state.head
    lw = cfg.loss
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
        p_ms = classifier_responses(f_ms, head)
        p_mt = classifier_responses(f_mt, head)
        val, d_fs, d_ft, gate = sgmd_loss(f_ms, f_mt, p_ms, p_mt, lw.tau)
        if gate.any():
            dw_s, db_s = encode_backward(raw_ms, d_fs)
            dw_t, db_t = encode_backward(raw_mt, d_ft)
            components["sgmd"] = (val, {"encoder.weight": dw_s + dw_t,
                                        "encoder.bias": db_s + db_t})

    if cfg.enable_gcn:
        val, d_theta, d_w_hat = gcn_reg_loss(z_class, state.theta,
                                             cfg.gcn.slope, head.weights)
        components["gcn"] = (val, {"gcn.theta": d_theta, "head.weights": d_w_hat})
    return components, gate


def reference_total(components, lw):
    """(total value, merged grads dict) of ``reference_terms``' output."""
    weights = {
        "cls": 1.0,
        "sgmd": lw.lambda_d,
        "balance": lw.lambda_b,
        "gcn": lw.lambda_g,
    }
    total = 0.0
    merged = {}
    for name, weight in weights.items():
        entry = components.get(name)
        if entry is None:
            continue
        value, grads = entry
        total += weight * value
        for key, grad in grads.items():
            if key in merged:
                merged[key] = merged[key] + weight * grad
            else:
                merged[key] = weight * grad
    return total, merged
