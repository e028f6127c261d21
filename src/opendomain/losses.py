"""Training objectives with hand-derived gradients.

Four terms: source cross-entropy, matched-pair discrepancy gated by the
similarity of classifier responses, a balance constraint on the unknown-class
probability mass of target instances (vanilla -log R and the limited form
R + w^2/R), and the quadratic tie between graph-convolution outputs and the
live classifier weights (in :mod:`opendomain.gcn`). Classifier responses are
softmax probabilities throughout; the discrepancy gate is evaluated on the
current responses and treated as a constant.

The terms take what a joint step has already computed for its stacked rows,
not features and a head: cls and the balance forms take the responses of
their own rows and return the gradient wrt those rows' logits, and SGMD
takes the matched features and responses and returns the gradient wrt the
features. The caller maps the rows back once: with ``F`` the features, ``W``
the head and ``G`` the weighted logit gradients, the features get ``G W``
plus the weighted SGMD rows and the head gets ``G^T F``. ``total_loss``
weights the values and hands back each term's weight for that mapping.
Each term's maths is an unchecked core that writes its gradient into an
array its caller passes; the public term is its checks, then the core.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numkit import DimensionError, check_fields, check_types

__all__ = [
    "ClassifierHead",
    "LossWeights",
    "NonFiniteLossError",
    "check_finite",
    "check_labels",
    "cls_core",
    "cls_loss",
    "sgmd_core",
    "sgmd_loss",
    "balance_core",
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
    """Scalar weights and thresholds of the total objective. ``w`` None
    stands for the default that :class:`ExperimentConfig` derives from its
    class counts."""

    lambda_d: float = 0.5
    lambda_b: float = 0.04
    lambda_g: float = 0.5
    tau: float = 0.3
    w: float | None = None
    epsilon: float = 0.05

    def __post_init__(self):
        check_types(self, "loss", optional=("w",))
        check_fields(self, "loss", "lambda_d lambda_b lambda_g", lambda v: v >= 0, ">= 0")
        if self.w is not None:
            check_fields(self, "loss", "w", lambda v: 0 < v < 1, "in (0, 1)")
        check_fields(self, "loss", "tau", lambda v: True, "finite")
        check_fields(self, "loss", "epsilon", lambda v: v > 0, "> 0")


class NonFiniteLossError(RuntimeError):
    """A loss term went NaN/Inf; carries the offending component name."""

    def __init__(self, component: str, value: float):
        super().__init__(f"non-finite loss in component '{component}' ({value})")
        self.component = component


def check_finite(name: str, value: float, grads) -> None:
    """NonFiniteLossError naming ``name`` unless its value and each of its
    gradients are finite."""
    if not math.isfinite(value):
        raise NonFiniteLossError(name, value)
    for g in grads:
        if not np.all(np.isfinite(g)):
            raise NonFiniteLossError(name, float("nan"))


def check_labels(labels, classes: int) -> np.ndarray:
    """``labels`` as ints; IndexError unless each indexes one of ``classes``."""
    labels = np.asarray(labels, dtype=int)
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= classes:
        raise IndexError(f"labels must index the {classes} classes of the responses")
    return labels


def cls_core(d, labels, eps: float = 1e-12) -> float:
    """:func:`cls_loss` without its check: returns the loss and overwrites
    the responses ``d`` with its gradient wrt their logits."""
    n = len(labels)
    rows = np.arange(n)
    loss = float(-(np.log(np.maximum(d[rows, labels], eps)).sum() / n))
    d[rows, labels] -= 1.0
    d /= n
    return loss


def cls_loss(probs, labels, eps: float = 1e-12):
    """Mean cross-entropy of the true class under ``probs``, the softmax
    responses over exactly the classes that ``labels`` index.

    Returns (loss, grad wrt the logits of ``probs``).
    """
    labels = check_labels(labels, probs.shape[1])
    d_logits = probs.copy()
    return cls_core(d_logits, labels, eps), d_logits


def sgmd_core(fs, ft, ps, pt, tau: float, out):
    """:func:`sgmd_loss` of n >= 1 pairs, unchecked: returns (loss, gate) and
    writes the gradient wrt ``fs`` (minus the one wrt ``ft``) into ``out``."""
    gate = (ps * pt).sum(axis=1) > tau
    np.subtract(fs, ft, out=out)
    out *= gate[:, None]  # a closed pair's row is 0
    loss = 0.5 / len(fs) * float((out * out).sum())
    out /= len(fs)
    return loss, gate


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
    if fs.shape[0] == 0:
        return 0.0, np.zeros_like(fs), np.zeros_like(ft), np.zeros(0, dtype=bool)
    d_fs = np.empty_like(fs)
    loss, gate = sgmd_core(fs, ft, np.asarray(ps, float), np.asarray(pt, float), tau, d_fs)
    return loss, d_fs, -d_fs, gate


def balance_core(d, known_count: int, w: float | None, eps: float = 1e-12) -> float:
    """The limited balance loss of the responses ``d`` (``w`` None: the
    vanilla one), unchecked. Overwrites ``d`` with its logit gradient, in
    closed form p·(d − d_mass·R): d = d_mass, the gradient wrt each row's
    unknown-class mass R, on the unknown classes and 0 on the known ones."""
    mass = d[:, known_count:].sum(axis=1)
    clamped = np.maximum(mass, eps)
    n = len(mass)
    if w is None:
        loss = float(-(np.log(clamped).sum() / n))
        d_mass = np.where(mass > eps, -1.0 / (n * clamped), 0.0)
    else:
        values, derivs = limited_balance_terms(clamped, w)
        loss = float(values.sum() / n)
        d_mass = np.where(mass > eps, derivs / n, 0.0)
    inner = (d_mass * mass)[:, None]
    d[:, :known_count] *= -inner
    d[:, known_count:] *= d_mass[:, None] - inner
    return loss


def balance_loss_vanilla(probs, known_count: int, eps: float = 1e-12):
    """Mean of -log(unknown-class probability mass), clamped below at eps;
    ``probs`` are responses over all classes, the first ``known_count``
    of them known.

    Unbounded as the mass shrinks (up to -log eps): pushing it down ever
    harder is exactly the runaway the limited form prevents. Returns
    (loss, grad wrt the logits of ``probs``).
    """
    d_logits = probs.copy()
    return balance_core(d_logits, known_count, None, eps), d_logits


def limited_balance_terms(mass, w: float):
    """Per-instance penalty R + w^2/R and its derivative 1 - w^2/R^2.

    Minimized at R = w with value 2w; grows toward both R -> 0 and R -> 1.
    """
    mass = np.asarray(mass, float)
    return mass + w * w / mass, 1.0 - w * w / (mass * mass)


def limited_balance_loss(probs, known_count: int, w: float,
                         eps: float = 1e-12):
    """Mean of R + w^2/R over the batch, R the clamped unknown-class mass of
    ``probs`` as in :func:`balance_loss_vanilla`.

    Returns (loss, grad wrt the logits of ``probs``).
    """
    if not 0.0 < w < 1.0:
        raise ValueError("w must lie strictly inside (0, 1)")
    d_logits = probs.copy()
    return balance_core(d_logits, known_count, w, eps), d_logits


def total_loss(values: dict, lw: LossWeights):
    """Weighted sum of the term values, and the weight of each term given.

    ``values`` maps a term name ("cls", "sgmd", "balance", "gcn") to its
    value. Missing terms contribute nothing; "cls" has implicit weight 1.
    Returns (total value, {term: weight}); the weights scale each term's
    gradient before the step maps the gradients back.
    """
    weights = {
        "cls": 1.0,
        "sgmd": lw.lambda_d,
        "balance": lw.lambda_b,
        "gcn": lw.lambda_g,
    }
    total = 0.0
    for name, weight in weights.items():
        if name in values:
            total += weight * values[name]
    return total, {name: weights[name] for name in values}
