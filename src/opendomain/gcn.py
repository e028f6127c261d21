"""Single-layer graph convolution over the taxonomy.

The convolution O = sigma(P X Theta) with P the row-normalized adjacency
regresses known-class classifier weights during initialization and keeps
all-class classifier weights tied to the taxonomy during joint training.
Only Theta is trained, so the propagated word vectors Z = (P X)[rows] of
the class rows are computed once per graph by :func:`propagate`, and every
function here takes Z instead of P, X and the row list. All gradients are
computed by hand and verified by finite differences in the test suite.

GCN init fits Theta so the known output rows reproduce the pretrained
weights W, and returns Theta with the output rows of every class. Each
gradient step adds Z_k^T(.) to Theta (Z_k: the known class rows), so the
fit's limit lies in Theta0 + rowspace(Z_k); where it is unique there and the
loop would reach it, :func:`train_gcn_init` solves it in closed form instead
of iterating.
"""
from __future__ import annotations

import math

import numpy as np

from .config import GcnSchedule
from .losses import NonFiniteLossError
from .numkit import DimensionError, MomentumSgd

__all__ = [
    "propagate",
    "gcn_reg_core",
    "train_gcn_init",
]


def propagate(p, x, rows) -> np.ndarray:
    """(P X)[rows]: the word vectors propagated over the graph, for the
    node rows a loss reads. Fixed while Theta trains."""
    p = np.asarray(p, float)
    x = np.asarray(x, float)
    if p.shape[1] != x.shape[0]:
        raise DimensionError(f"propagate: shapes {p.shape}, {x.shape}")
    rows = list(rows)
    for r in rows:
        if not 0 <= r < p.shape[0]:
            raise IndexError(f"node row {r} out of range for {p.shape[0]} nodes")
    return (p @ x)[rows]


def leaky_relu(h, slope: float):
    """The leaky ReLU as (activation ``h * gain``, gain): the gain is 1 where
    h > 0, else ``slope`` (also at 0), and the backward pass multiplies by it
    too. The products have the bits of selecting ``h`` or ``slope * h``."""
    gain = np.where(h > 0, 1.0, slope)
    return h * gain, gain


def gcn_reg_core(z, theta, slope: float, w_hat, d_theta):
    """Half mean-square of leaky_relu(Z Theta) against the classifier
    weights ``w_hat`` (sum of squares divided by 2M), ``z`` being the
    propagated rows of their classes: in the joint step ALL class rows
    against the live head, so gradients flow to both theta and the
    classifier (unlike propagate-then-freeze schemes); both passes take
    :func:`leaky_relu`'s gain. Takes float64 arrays of fitting shapes: returns
    (loss, d_o), minus the gradient wrt ``w_hat``, and writes the one wrt
    theta into ``d_theta``."""
    o, gain = leaky_relu(z @ theta, slope)
    m = w_hat.shape[1]
    diff = o - w_hat
    loss = 0.5 / m * float((diff * diff).sum())
    d_o = diff / m
    np.matmul(z.T, d_o * gain, out=d_theta)
    return loss, d_o


def init_theta(word_dim: int, out_dim: int, rng: np.random.Generator,
               scale: float = 1.0) -> np.ndarray:
    """Seeded uniform init scaled by 1/sqrt(word_dim) (fan-in)."""
    return scale / np.sqrt(word_dim) * rng.uniform(-1.0, 1.0, (word_dim, out_dim))


def train_gcn_init(z_class, w, schedule: GcnSchedule, rng: np.random.Generator):
    """Fit the known-row regression from a small random theta0. ``z_class``
    is ``propagate(p, x, class_to_node)``, whose first ``len(w)`` rows Z_k
    are the known classes.

    When the eigenvalues of Z_k Z_k^T lie in (0, limit * smallest], with
    ``limit = slope^2 * learning_rate * steps / (1 - momentum)`` about the
    condition number the loop resolves in its steps (a negative target
    converges slope^2 times slower), the fit is solved in closed form, as
    the limit of gradient descent from theta0:
    ``theta = theta0 + Z_k^T (Z_k Z_k^T)^-1 (leaky_relu^-1(W) - Z_k theta0)``
    with ``leaky_relu^-1(W) = where(W > 0, W, W / slope)``. Otherwise (an
    ill-conditioned Z_k, whose exact solve would blow up the unknown rows;
    slope 0; a rank-deficient Z_k: more known rows than word dims, zero
    word vectors) it runs ``schedule.steps`` momentum steps. It raises
    NonFiniteLossError for ``'gcn init'`` at the first step whose loss is not
    finite and, either way, when the RMS by which its known rows miss W is
    nan or past 100 times W's own RMS, a failed fit, and then, valued at the
    ratio, when the largest entry of its unknown rows is past 100 times W's
    largest: classifiers far beyond any the known classes have. Last, valued
    at the residual over sum(W^2), it refuses a fit whose every output row is
    0 while some row of ``z_class`` is not: every unit dead, at slope 0.

    Returns (theta, embeddings) where ``embeddings`` are the class rows of
    O = leaky_relu(Z_class theta), :func:`leaky_relu`'s activation (known
    rows approximate W, unknown rows are the propagated classifier weights).
    """
    z_class = np.asarray(z_class, float)
    w = np.asarray(w, float)
    slope = schedule.slope
    if len(z_class) < len(w):
        raise DimensionError(f"expected at least {len(w)} class rows, got {len(z_class)}")
    theta = init_theta(z_class.shape[1], w.shape[1], rng, schedule.init_scale)
    z_known = z_class[: len(w)]
    gram = z_known @ z_known.T
    eig = np.linalg.eigvalsh(gram)
    limit = slope ** 2 * schedule.learning_rate * schedule.steps / (1 - schedule.momentum)
    # an overflow shows as a step's loss, the result's residual or its reach
    # not being finite
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if eig[0] > 0 and eig[-1] <= limit * eig[0]:
            target = np.where(w > 0, w, w / slope)
            theta += z_known.T @ np.linalg.solve(gram, target - z_known @ theta)
        else:
            # learning_rate is relative to the curvature of the quadratic bound
            # Z_k^T Z_k / M (activation slope <= 1), so the schedule is stable
            # regardless of the scale of the word vectors
            curvature = float(np.linalg.eigvalsh(z_known.T @ z_known)[-1]) / w.shape[1]
            step = schedule.learning_rate / max(curvature, 1e-12)
            opt = MomentumSgd([theta], step, schedule.momentum)
            (theta,), (d_theta,) = opt.params, opt.grads
            for _ in range(schedule.steps):
                # the core writes d_theta: the shapes are built or checked
                # above, the slope by GcnSchedule
                loss = gcn_reg_core(z_known, theta, slope, w, d_theta)[0]
                if not math.isfinite(loss):
                    raise NonFiniteLossError("gcn init", loss)
                opt.step()
        embeddings = leaky_relu(z_class @ theta, slope)[0]
        residual = float(np.square(embeddings[: len(w)] - w).sum())
        reach = float(np.abs(embeddings[len(w):]).max(initial=0.0) / np.abs(w).max())
    if not residual <= 1e4 * float(np.square(w).sum()):
        raise NonFiniteLossError("gcn init", residual)
    if not reach <= 100:
        raise NonFiniteLossError("gcn init", reach)
    if not embeddings.any() and z_class.any():
        raise NonFiniteLossError("gcn init", residual / float(np.square(w).sum()))
    return theta, embeddings
