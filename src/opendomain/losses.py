"""Training objectives with hand-derived gradients.

Four terms: source cross-entropy, matched-pair discrepancy gated by the
similarity of classifier responses, a balance constraint on the unknown-class
probability mass of target instances (the limited form R + w^2/R or, under
the vanilla flag, -log R; :func:`balance_core` writes both), and the
quadratic tie between graph-convolution outputs and the live classifier
weights (in :mod:`opendomain.gcn`). Classifier responses are
softmax probabilities throughout; the discrepancy gate is evaluated on the
current responses and treated as a constant.

The terms take what a joint step has already computed for its stacked rows,
not features and a head: cls and the balance forms take the responses of
their own rows and return the gradient wrt those rows' logits, and SGMD
takes the matched features and responses and returns the gradient wrt the
features. The caller maps the rows back once: with ``F`` the features, ``W``
the head and ``G`` the weighted logit gradients, the features get ``G W``
plus the weighted SGMD rows and the head gets ``G^T F``. The weights are
:class:`config.LossWeights`' ``lambda_d`` (SGMD), ``lambda_b`` (balance) and
``lambda_g`` (the graph tie); cls has weight 1.
Each term is one function, a core that checks nothing and writes its
gradient into an array its caller passes; what holds for a whole run (the
label range, ``w``, the shapes) is checked once at the run's entry.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "NonFiniteLossError",
    "check_labels",
    "cls_core",
    "sgmd_core",
    "balance_core",
]


class NonFiniteLossError(RuntimeError):
    """A loss went NaN/Inf or past its bound: its component (a term that
    ``trainer.joint_terms`` finds, ``'pretrain'`` or ``'gcn init'``) and value."""

    def __init__(self, component: str, value: float):
        what = "loss past its bound" if np.isfinite(value) else "non-finite loss"
        super().__init__(f"{what} in component '{component}' ({value})")
        self.component = component
        self.value = value


def check_labels(labels, classes: int) -> np.ndarray:
    """``labels`` as ints; IndexError unless each indexes one of ``classes``."""
    labels = np.asarray(labels, dtype=int)
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= classes:
        raise IndexError(f"labels must index the {classes} classes of the responses")
    return labels


_CLS_FLOOR = 1e-12  # the least true-class response the log reads, so the loss is finite


def cls_core(d, labels) -> float:
    """Mean cross-entropy of the true class under the responses ``d``, the
    softmax over exactly the classes that ``labels`` index: returns the loss
    and overwrites ``d`` with its gradient wrt their logits."""
    n = len(labels)
    rows = np.arange(n)
    loss = float(-(np.log(np.maximum(d[rows, labels], _CLS_FLOOR)).sum() / n))
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


def balance_core(d, known_count: int, w: float, eps: float, vanilla: bool) -> float:
    """Mean of R + w^2/R over the rows of the responses ``d``, R a row's
    unknown-class mass clamped below at eps: least at R = w, with value 2w,
    and growing toward both R -> 0 and R -> 1. With ``vanilla`` the mean of
    -log R instead (``w`` unread), unbounded as the mass shrinks (up to
    -log eps): pushing it down ever harder is exactly the runaway the
    limited form prevents. Overwrites ``d`` with its logit gradient, in
    closed form p·(d − d_mass·R): d = d_mass, the gradient wrt R (1 − w^2/R^2
    or −1/R, per row), on the unknown classes and 0 on the known ones."""
    mass = d[:, known_count:].sum(axis=1)
    clamped = np.maximum(mass, eps)
    n = len(mass)
    if vanilla:
        loss = float(-(np.log(clamped).sum() / n))
        d_mass = np.where(mass > eps, -1.0 / (n * clamped), 0.0)
    else:
        loss = float((clamped + w * w / clamped).sum() / n)
        d_mass = np.where(mass > eps, (1.0 - w * w / (clamped * clamped)) / n, 0.0)
    inner = (d_mass * mass)[:, None]
    d[:, :known_count] *= -inner
    d[:, known_count:] *= d_mass[:, None] - inner
    return loss
