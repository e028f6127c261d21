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
Each term is one function, a core that checks nothing and writes its
gradient into an array its caller passes; what holds for a whole run (the
label range, ``w``, the shapes) is checked once at the run's entry.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numkit import check_keys, key

__all__ = [
    "LossWeights",
    "NonFiniteLossError",
    "check_finite",
    "check_labels",
    "cls_core",
    "sgmd_core",
    "balance_core",
    "limited_balance_terms",
    "total_loss",
]


@dataclass(frozen=True)
class LossWeights:
    """Scalar weights and thresholds of the total objective. ``w`` None
    stands for the default that :class:`ExperimentConfig` derives from its
    class counts."""

    lambda_d: float = key(0.5, ">= 0")
    lambda_b: float = key(0.04, ">= 0")
    lambda_g: float = key(0.5, ">= 0")
    tau: float = key(0.3, "finite")
    w: float | None = key(None, "in (0, 1)", kind=float)
    epsilon: float = key(0.05, "> 0")

    def __post_init__(self):
        check_keys(self, "loss")


class NonFiniteLossError(RuntimeError):
    """A loss term went NaN/Inf; carries the offending component and value."""

    def __init__(self, component: str, value: float):
        super().__init__(f"non-finite loss in component '{component}' ({value})")
        self.component = component
        self.value = value


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
    """Mean cross-entropy of the true class under the responses ``d``, the
    softmax over exactly the classes that ``labels`` index: returns the loss
    and overwrites ``d`` with its gradient wrt their logits."""
    n = len(labels)
    rows = np.arange(n)
    loss = float(-(np.log(np.maximum(d[rows, labels], eps)).sum() / n))
    d[rows, labels] -= 1.0
    d /= n
    return loss


def sgmd_core(fs, ft, ps, pt, tau: float, out):
    """Matched-pair discrepancy of n >= 1 pairs: the mean over pairs of
    1/2 ||f_s - f_t||^2, counted only for pairs whose response inner product
    exceeds tau. The gate is a constant (no gradient through the responses).
    Returns (loss, gate) and writes the gradient wrt ``fs`` (minus the one
    wrt ``ft``) into ``out``."""
    gate = (ps * pt).sum(axis=1) > tau
    np.subtract(fs, ft, out=out)
    out *= gate[:, None]  # a closed pair's row is 0
    loss = 0.5 / len(fs) * float((out * out).sum())
    out /= len(fs)
    return loss, gate


def balance_core(d, known_count: int, w: float | None, eps: float = 1e-12) -> float:
    """Mean of R + w^2/R over the rows of the responses ``d``, R a row's
    unknown-class mass clamped below at eps; with ``w`` None the vanilla
    mean of -log R, unbounded as the mass shrinks (up to -log eps): pushing
    it down ever harder is exactly the runaway the limited form prevents.
    Overwrites ``d`` with its logit gradient, in closed form p·(d − d_mass·R):
    d = d_mass, the gradient wrt R, on the unknown classes and 0 on the
    known ones."""
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


def limited_balance_terms(mass, w: float):
    """Per-instance penalty R + w^2/R and its derivative 1 - w^2/R^2.

    Minimized at R = w with value 2w; grows toward both R -> 0 and R -> 1.
    """
    mass = np.asarray(mass, float)
    return mass + w * w / mass, 1.0 - w * w / (mass * mass)


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
