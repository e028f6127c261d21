"""Single-layer graph convolution over the taxonomy.

The convolution O = sigma(P X Theta) with P the row-normalized adjacency
regresses known-class classifier weights during initialization and keeps
all-class classifier weights tied to the taxonomy during joint training.
All gradients are computed by hand and verified by finite differences in
the test suite.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import KnowledgeGraph, normalized_adjacency
from .numkit import DimensionError, MomentumSgd, leaky_relu, leaky_relu_grad

__all__ = [
    "GcnParams",
    "GcnSchedule",
    "gcn_forward",
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
    activation_slope: float = 0.2


@dataclass
class GcnSchedule:
    learning_rate: float = 0.5
    momentum: float = 0.97
    steps: int = 8000
    init_scale: float = 1.0


def _forward_parts(p, x, params: GcnParams):
    if p.shape[1] != x.shape[0] or x.shape[1] != params.theta.shape[0]:
        raise DimensionError(
            f"gcn_forward: shapes {p.shape}, {x.shape}, {params.theta.shape}"
        )
    z = p @ x
    h = z @ params.theta
    return z, h, leaky_relu(h, params.activation_slope)


def gcn_forward(p, x, params: GcnParams) -> np.ndarray:
    """O = leaky_relu(P X Theta)."""
    return _forward_parts(np.asarray(p, float), np.asarray(x, float), params)[2]


def _check_rows(rows, n, m_expected, w):
    if len(rows) != w.shape[0]:
        raise DimensionError(f"expected {w.shape[0]} node rows, got {len(rows)}")
    for r in rows:
        if not 0 <= r < n:
            raise IndexError(f"node row {r} out of range for {n} nodes")
    if m_expected != w.shape[1]:
        raise DimensionError("GCN output dim must equal classifier weight dim")


def init_loss(p, x, params: GcnParams, w, known_nodes):
    """Half mean-square regression of the known-class output rows onto the
    pretrained classifier weights W: sum of squares over the selected rows
    divided by 2M.

    Returns (loss, gradient wrt theta).
    """
    p = np.asarray(p, float)
    x = np.asarray(x, float)
    w = np.asarray(w, float)
    z, h, o = _forward_parts(p, x, params)
    rows = list(known_nodes)
    _check_rows(rows, o.shape[0], o.shape[1], w)
    m = w.shape[1]
    diff = o[rows] - w
    loss = 0.5 / m * float(np.sum(diff * diff))
    d_o = np.zeros_like(o)
    d_o[rows] = diff / m
    d_h = d_o * leaky_relu_grad(h, params.activation_slope)
    d_theta = z.T @ d_h
    return loss, d_theta


def gcn_reg_loss(p, x, params: GcnParams, w_hat, class_nodes):
    """Same quadratic over ALL class rows against the live classifier
    weights; gradients flow to both theta and the classifier (joint
    training, unlike propagate-then-freeze schemes).

    Returns (loss, grad wrt theta, grad wrt w_hat).
    """
    p = np.asarray(p, float)
    x = np.asarray(x, float)
    w_hat = np.asarray(w_hat, float)
    z, h, o = _forward_parts(p, x, params)
    rows = list(class_nodes)
    _check_rows(rows, o.shape[0], o.shape[1], w_hat)
    m = w_hat.shape[1]
    diff = o[rows] - w_hat
    loss = 0.5 / m * float(np.sum(diff * diff))
    d_w_hat = -diff / m
    d_o = np.zeros_like(o)
    d_o[rows] = diff / m
    d_h = d_o * leaky_relu_grad(h, params.activation_slope)
    d_theta = z.T @ d_h
    return loss, d_theta, d_w_hat


def init_theta(word_dim: int, out_dim: int, rng: np.random.Generator,
               scale: float = 1.0) -> np.ndarray:
    """Seeded uniform init scaled by 1/sqrt(word_dim) (fan-in)."""
    return scale / np.sqrt(word_dim) * rng.uniform(-1.0, 1.0, (word_dim, out_dim))


def train_gcn_init(g: KnowledgeGraph, x, w, schedule: GcnSchedule,
                   rng: np.random.Generator):
    """Gradient descent (with momentum) on the known-row regression from a
    small random theta.

    Returns (params, embeddings, history) where ``embeddings`` are the
    class rows of O (known rows approximate W, unknown rows are the
    propagated classifier weights) and ``history`` is the per-step loss.
    """
    x = np.asarray(x, float)
    w = np.asarray(w, float)
    p = normalized_adjacency(g)
    params = GcnParams(theta=init_theta(x.shape[1], w.shape[1], rng,
                                        schedule.init_scale))
    known = g.known_nodes()
    # learning_rate is relative to the curvature of the quadratic bound
    # Z_k^T Z_k / M (activation slope <= 1), so the schedule is stable
    # regardless of the scale of the word vectors
    z_known = (p @ x)[list(known)]
    curvature = float(np.linalg.eigvalsh(z_known.T @ z_known)[-1]) / w.shape[1]
    step = schedule.learning_rate / max(curvature, 1e-12)
    opt = MomentumSgd({"theta": params.theta}, step, schedule.momentum)
    history = []
    for _ in range(schedule.steps):
        loss, d_theta = init_loss(p, x, params, w, known)
        history.append(loss)
        opt.step({"theta": d_theta})
    o = gcn_forward(p, x, params)
    embeddings = o[list(g.class_to_node)].copy()
    return params, embeddings, history
