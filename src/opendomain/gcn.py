"""Single-layer graph convolution over the taxonomy.

The convolution O = sigma(P X Theta) with P the row-normalized adjacency
regresses known-class classifier weights during initialization and keeps
all-class classifier weights tied to the taxonomy during joint training.
Only Theta is trained, so the propagated word vectors Z = (P X)[rows] of
the class rows are computed once per graph by :func:`propagate`, and every
function here takes Z instead of P, X and the row list. All gradients are
computed by hand and verified by finite differences in the test suite.

GCN init fits Theta so the known output rows reproduce the pretrained
weights W. Each gradient step adds Z_k^T(.) to Theta (Z_k: the known class
rows), so the fit's limit lies in Theta0 + rowspace(Z_k); where it is unique
there, :func:`train_gcn_init` solves it in closed form instead of iterating.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numkit import DimensionError, MomentumSgd, check_sgd_settings, leaky_relu

__all__ = [
    "GcnParams",
    "GcnSchedule",
    "gcn_forward",
    "propagate",
    "init_loss",
    "gcn_reg_loss",
    "train_gcn_init",
]


@dataclass
class GcnParams:
    """Trainable convolution weights (word_dim x out_dim) plus the
    leaky-ReLU slope. The output dimension must equal the classifier
    weight dimension: output rows ARE classifier weight vectors."""

    theta: np.ndarray
    activation_slope: float


@dataclass
class GcnSchedule:
    learning_rate: float = 0.5
    momentum: float = 0.97
    steps: int = 8000
    init_scale: float = 1.0
    slope: float = 0.2  # leaky-ReLU slope, in GCN init and in the graph tie

    def __post_init__(self):
        check_sgd_settings(self.learning_rate, self.momentum)
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if not (math.isfinite(self.init_scale) and self.init_scale > 0):
            raise ValueError("init_scale must be finite and > 0")
        if not (math.isfinite(self.slope) and self.slope >= 0):
            raise ValueError("slope must be finite and >= 0")


def gcn_forward(z, params: GcnParams) -> np.ndarray:
    """O = leaky_relu(Z Theta), the output rows of the propagated rows Z."""
    z = np.asarray(z, float)
    if z.shape[1] != params.theta.shape[0]:
        raise DimensionError(f"gcn_forward: shapes {z.shape}, {params.theta.shape}")
    return leaky_relu(z @ params.theta, params.activation_slope)


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


def _fit(z, params: GcnParams, target):
    """Half mean-square of leaky_relu(Z Theta) against ``target``: sum of
    squares divided by 2M. Returns (loss, d theta, d loss / d output)."""
    theta = params.theta
    target = np.asarray(target, float)
    if z.shape[0] != target.shape[0]:
        raise DimensionError(f"expected {target.shape[0]} node rows, got {z.shape[0]}")
    if z.shape[1] != theta.shape[0]:
        raise DimensionError(f"propagated rows {z.shape} do not fit theta {theta.shape}")
    if theta.shape[1] != target.shape[1]:
        raise DimensionError("GCN output dim must equal classifier weight dim")
    slope = params.activation_slope
    if slope < 0:
        raise ValueError("leaky_relu slope must be >= 0")
    h = z @ theta
    positive = h > 0
    m = target.shape[1]
    diff = np.where(positive, h, slope * h) - target
    loss = 0.5 / m * float(np.sum(diff * diff))
    d_o = diff / m
    # leaky-ReLU derivative: 1 where h > 0, the slope elsewhere (also at 0)
    d_theta = z.T @ np.where(positive, d_o, slope * d_o)
    return loss, d_theta, d_o


def init_loss(z, params: GcnParams, w):
    """Half mean-square regression of the known-class output rows onto the
    pretrained classifier weights W; ``z`` holds the known class rows of
    ``propagate(p, x, class_to_node)``.

    Returns (loss, gradient wrt theta).
    """
    loss, d_theta, _ = _fit(z, params, w)
    return loss, d_theta


def gcn_reg_loss(z, params: GcnParams, w_hat):
    """Same quadratic over ALL class rows against the live classifier
    weights, ``z`` being ``propagate(p, x, class_nodes)``; gradients flow
    to both theta and the classifier (joint training, unlike
    propagate-then-freeze schemes).

    Returns (loss, grad wrt theta, grad wrt w_hat).
    """
    loss, d_theta, d_o = _fit(z, params, w_hat)
    return loss, d_theta, -d_o


def init_theta(word_dim: int, out_dim: int, rng: np.random.Generator,
               scale: float = 1.0) -> np.ndarray:
    """Seeded uniform init scaled by 1/sqrt(word_dim) (fan-in)."""
    return scale / np.sqrt(word_dim) * rng.uniform(-1.0, 1.0, (word_dim, out_dim))


def train_gcn_init(z_class, w, schedule: GcnSchedule, rng: np.random.Generator):
    """Fit the known-row regression from a small random theta0. ``z_class``
    is ``propagate(p, x, class_to_node)``, whose first ``len(w)`` rows Z_k
    are the known classes.

    With ``schedule.slope > 0`` and Z_k of full row rank the fit is solved
    in closed form, as the limit of gradient descent from theta0:
    ``theta = theta0 + Z_k^T (Z_k Z_k^T)^-1 (leaky_relu^-1(W) - Z_k theta0)``
    with ``leaky_relu^-1(W) = where(W > 0, W, W / slope)``, and ``history``
    is [initial loss, final loss]. Otherwise (slope 0, or a rank-deficient
    Z_k: more known rows than word dims, zero word vectors) it runs
    ``schedule.steps`` momentum steps and ``history`` is the per-step loss.

    Returns (params, embeddings, history) where ``embeddings`` are the
    class rows of O (known rows approximate W, unknown rows are the
    propagated classifier weights).
    """
    z_class = np.asarray(z_class, float)
    w = np.asarray(w, float)
    params = GcnParams(init_theta(z_class.shape[1], w.shape[1], rng, schedule.init_scale),
                       schedule.slope)
    z_known = z_class[: len(w)]
    if schedule.slope > 0 and np.linalg.matrix_rank(z_known) == len(w):
        history = [init_loss(z_known, params, w)[0]]
        target = np.where(w > 0, w, w / schedule.slope)
        params.theta += z_known.T @ np.linalg.solve(z_known @ z_known.T,
                                                    target - z_known @ params.theta)
        history.append(init_loss(z_known, params, w)[0])
        return params, gcn_forward(z_class, params), history
    # learning_rate is relative to the curvature of the quadratic bound
    # Z_k^T Z_k / M (activation slope <= 1), so the schedule is stable
    # regardless of the scale of the word vectors
    curvature = float(np.linalg.eigvalsh(z_known.T @ z_known)[-1]) / w.shape[1]
    step = schedule.learning_rate / max(curvature, 1e-12)
    opt = MomentumSgd(params.theta, step, schedule.momentum)
    history = []
    for _ in range(schedule.steps):
        loss, d_theta = init_loss(z_known, params, w)
        history.append(loss)
        opt.step(d_theta)
    return params, gcn_forward(z_class, params), history
