"""Training objectives with hand-derived gradients.

Four terms: source cross-entropy, matched-pair discrepancy gated by the
similarity of classifier responses, a balance constraint on the unknown-class
probability mass of target instances (vanilla -log R and the limited form
R + w^2/R), and the quadratic tie between graph-convolution outputs and the
live classifier weights (in :mod:`opendomain.gcn`). Classifier responses are
softmax probabilities throughout; the discrepancy gate is evaluated on the
current responses and treated as a constant.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numkit import DimensionError, softmax_rows

__all__ = [
    "ClassifierHead",
    "LossWeights",
    "classifier_responses",
    "softmax_backward",
    "cls_loss",
    "sgmd_loss",
    "balance_loss_vanilla",
    "limited_balance_loss",
    "limited_balance_terms",
    "total_loss",
]


@dataclass
class ClassifierHead:
    """Full classifier weights, one row per class; rows 0..known_count-1
    are the known-class classifiers. No bias term: rows live in the same
    space as graph-convolution outputs."""

    weights: np.ndarray
    known_count: int

    def __post_init__(self):
        if not 0 < self.known_count <= self.weights.shape[0]:
            raise ValueError("known_count out of range")

    @property
    def num_classes(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class LossWeights:
    """Scalar weights and thresholds of the total objective."""

    lambda_d: float = 0.5
    lambda_b: float = 0.04
    lambda_g: float = 0.5
    tau: float = 0.3
    w: float = 1.0 / 3.0
    epsilon: float = 0.05

    def __post_init__(self):
        for name in ("lambda_d", "lambda_b", "lambda_g"):
            val = getattr(self, name)
            if not np.isfinite(val) or val < 0:
                raise ValueError(f"{name} must be finite and >= 0")
        if not 0.0 < self.w < 1.0:
            raise ValueError("w must lie strictly inside (0, 1)")
        if not np.isfinite(self.tau):
            raise ValueError("tau must be finite")
        if not (np.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError("epsilon must be finite and > 0")


def classifier_responses(f, head: ClassifierHead) -> np.ndarray:
    """softmax(F W^T): one probability vector over classes per instance."""
    f = np.asarray(f, float)
    if f.shape[1] != head.weights.shape[1]:
        raise DimensionError(
            f"feature dim {f.shape[1]} != classifier dim {head.weights.shape[1]}"
        )
    return softmax_rows(f @ head.weights.T)


def softmax_backward(probs: np.ndarray, d_probs: np.ndarray) -> np.ndarray:
    """Pull a gradient wrt softmax outputs back to the logits."""
    inner = np.sum(d_probs * probs, axis=1, keepdims=True)
    return probs * (d_probs - inner)


def _feature_and_weight_grads(f, head, d_logits):
    return d_logits @ head.weights, d_logits.T @ f


def cls_loss(f, head: ClassifierHead, labels, eps: float = 1e-12):
    """Mean cross-entropy of the true class under the head's softmax.

    Returns (loss, grad wrt features, grad wrt head weights).
    """
    f = np.asarray(f, float)
    labels = np.asarray(labels, dtype=int)
    if np.any(labels < 0) or np.any(labels >= head.known_count):
        raise IndexError("labels must be valid known-class indices")
    probs = classifier_responses(f, head)
    n = len(labels)
    picked = probs[np.arange(n), labels]
    loss = float(-np.mean(np.log(np.maximum(picked, eps))))
    d_logits = probs.copy()
    d_logits[np.arange(n), labels] -= 1.0
    d_logits /= n
    d_f, d_w = _feature_and_weight_grads(f, head, d_logits)
    return loss, d_f, d_w


def sgmd_loss(fs_matched, ft_matched, ps, pt, tau: float):
    """Matched-pair discrepancy: mean over pairs of 1/2 ||f_s - f_t||^2,
    counted only for pairs whose response inner product exceeds tau.

    The gate is a constant (no gradient through the responses). Returns
    (loss, grad wrt source features, grad wrt target features, gate mask).
    """
    fs = np.asarray(fs_matched, float)
    ft = np.asarray(ft_matched, float)
    if fs.shape != ft.shape:
        raise DimensionError(f"matched feature shapes differ: {fs.shape} vs {ft.shape}")
    n = fs.shape[0]
    if n == 0:
        return 0.0, np.zeros_like(fs), np.zeros_like(ft), np.zeros(0, dtype=bool)
    gate = np.sum(np.asarray(ps, float) * np.asarray(pt, float), axis=1) > tau
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


def balance_loss_vanilla(f, head: ClassifierHead, eps: float = 1e-12):
    """Mean of -log(unknown-class probability mass), clamped below at eps.

    Unbounded as the mass shrinks (up to -log eps): pushing it down ever
    harder is exactly the runaway the limited form prevents. Returns
    (loss, grad wrt features, grad wrt head weights).
    """
    f = np.asarray(f, float)
    probs = classifier_responses(f, head)
    mass = _unknown_mass(probs, head.known_count)
    clamped = np.maximum(mass, eps)
    n = len(mass)
    loss = float(-np.mean(np.log(clamped)))
    d_mass = np.where(mass > eps, -1.0 / (n * clamped), 0.0)
    d_f, d_w = _balance_grads(f, head, probs, d_mass)
    return loss, d_f, d_w


def limited_balance_terms(mass, w: float):
    """Per-instance penalty R + w^2/R and its derivative 1 - w^2/R^2.

    Minimized at R = w with value 2w; grows toward both R -> 0 and R -> 1.
    """
    mass = np.asarray(mass, float)
    return mass + w * w / mass, 1.0 - w * w / (mass * mass)


def limited_balance_loss(f, head: ClassifierHead, w: float,
                         eps: float = 1e-12):
    """Mean of R + w^2/R over the batch, R the clamped unknown-class mass.

    Returns (loss, grad wrt features, grad wrt head weights).
    """
    if not 0.0 < w < 1.0:
        raise ValueError("w must lie strictly inside (0, 1)")
    f = np.asarray(f, float)
    probs = classifier_responses(f, head)
    mass = _unknown_mass(probs, head.known_count)
    clamped = np.maximum(mass, eps)
    values, derivs = limited_balance_terms(clamped, w)
    n = len(mass)
    loss = float(np.mean(values))
    d_mass = np.where(mass > eps, derivs / n, 0.0)
    d_f, d_w = _balance_grads(f, head, probs, d_mass)
    return loss, d_f, d_w


def total_loss(components: dict, lw: LossWeights):
    """Weighted sum of the four loss terms and their gradients.

    ``components`` maps a term name ("cls", "sgmd", "balance", "gcn") to a
    (value, grads) tuple, grads being a dict keyed by parameter name.
    Missing terms contribute nothing; "cls" has implicit weight 1.
    Returns (total value, merged grads dict).
    """
    weights = {
        "cls": 1.0,
        "sgmd": lw.lambda_d,
        "balance": lw.lambda_b,
        "gcn": lw.lambda_g,
    }
    total = 0.0
    merged: dict = {}
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
