"""Trainable model: a linear encoder over precomputed feature vectors plus
the full classifier head, initialized from graph-propagated embeddings.

One parameter set serves both domains (weight sharing): source and target
batches in the same step go through the identical encoder.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

# bench/tracing.py patches the uncalled cls_loss here (ROADMAP item 8)
from .losses import (  # noqa: F401
    ClassifierHead, check_finite, check_labels, cls_core, cls_loss)
from .numkit import (
    DimensionError,
    MomentumSgd,
    check_fields,
    check_types,
    flat_views,
    load_matrix,
    save_matrix,
    softmax_rows,
    write_json,
)

__all__ = [
    "Encoder",
    "ModelState",
    "PretrainSchedule",
    "encode",
    "encode_backward",
    "pretrain_source",
    "save_checkpoint",
    "load_checkpoint",
]


@dataclass
class Encoder:
    """Linear map raw -> features: raw @ weight + bias."""

    weight: np.ndarray
    bias: np.ndarray


@dataclass
class ModelState:
    encoder: Encoder
    head: ClassifierHead
    theta: np.ndarray  # GCN weights, word_dim x feature_dim


@dataclass(frozen=True)
class PretrainSchedule:
    learning_rate: float = 0.05
    momentum: float = 0.9
    epochs: int = 12
    batch_size: int = 32

    def __post_init__(self):
        check_types(self, "pretrain")
        check_fields(self, "pretrain", "learning_rate", lambda v: v > 0, "> 0")
        check_fields(self, "pretrain", "momentum", lambda v: 0 <= v < 1, "in [0, 1)")
        check_fields(self, "pretrain", "epochs batch_size", lambda v: v >= 1, ">= 1")


def encode(raw, enc: Encoder) -> np.ndarray:
    raw = np.asarray(raw, float)
    if raw.shape[1] != enc.weight.shape[0]:
        raise DimensionError(
            f"encode: input dim {raw.shape[1]} != weight rows {enc.weight.shape[0]}"
        )
    return raw @ enc.weight + enc.bias


def encode_backward(raw, d_out):
    """Gradients of the linear encoder ``raw @ weight + bias`` given the
    output gradient ``d_out``: returns (d_weight, d_bias). The encoder is the
    first layer, so no gradient flows back to ``raw``."""
    raw = np.asarray(raw, float)
    d_out = np.asarray(d_out, float)
    return raw.T @ d_out, d_out.sum(axis=0)


def pretrain_source(features, labels, num_classes: int, feature_dim: int,
                    schedule: PretrainSchedule, rng: np.random.Generator):
    """Fit the encoder and a known-class-only classifier on labeled source
    data by mini-batch cross-entropy with momentum SGD.

    Raises IndexError for a label outside ``num_classes`` and
    NonFiniteLossError ("pretrain") for a step whose loss or gradient is
    not finite. Returns (encoder, classifier weight matrix, per-epoch mean
    loss).
    """
    features = np.asarray(features, float)
    labels = check_labels(labels, num_classes)
    n, m_in = features.shape
    enc = Encoder(
        weight=rng.uniform(-1.0, 1.0, (m_in, feature_dim)) / np.sqrt(m_in),
        bias=np.zeros(feature_dim),
    )
    head = ClassifierHead(
        weights=rng.uniform(-1.0, 1.0, (num_classes, feature_dim))
        / np.sqrt(feature_dim),
        known_count=num_classes,
    )
    flat, (enc.weight, enc.bias, head.weights) = flat_views(
        [enc.weight, enc.bias, head.weights])
    opt = MomentumSgd(flat, schedule.learning_rate, schedule.momentum)
    grad = np.empty_like(flat)
    history = []
    for _ in range(schedule.epochs):
        order = rng.permutation(n)
        epoch_losses = []
        for start in range(0, n, schedule.batch_size):
            idx = order[start:start + schedule.batch_size]
            f = encode(features[idx], enc)
            d_logits = softmax_rows(f @ head.weights.T)
            loss = cls_core(d_logits, labels[idx])
            d_weight, d_bias = encode_backward(features[idx], d_logits @ head.weights)
            np.concatenate((d_weight, d_bias, d_logits.T @ f), axis=None, out=grad)
            check_finite("pretrain", loss, (grad,))
            opt.step(grad)
            epoch_losses.append(loss)
        history.append(float(np.mean(epoch_losses)))
    return enc, head.weights, history


# each file of a checkpoint with the manifest keys of its row and column
# counts; the bias is stored as one row
_CHECKPOINT_SHAPES = {
    "encoder.weight": ("input_dim", "feature_dim"),
    "encoder.bias": (1, "feature_dim"),
    "head.weights": ("total_classes", "feature_dim"),
    "gcn.theta": ("word_dim", "feature_dim"),
}


def save_checkpoint(directory, state: ModelState, config_hash: str = "") -> None:
    """Write the parameter matrices as text files plus a manifest with the
    dimensions and the originating config hash."""
    os.makedirs(directory, exist_ok=True)
    matrices = (state.encoder.weight, state.encoder.bias.reshape(1, -1),
                state.head.weights, state.theta)
    for name, m in zip(_CHECKPOINT_SHAPES, matrices):
        save_matrix(os.path.join(directory, name), m)
    write_json(os.path.join(directory, "manifest.json"), {
        "input_dim": state.encoder.weight.shape[0],
        "feature_dim": state.encoder.weight.shape[1],
        "total_classes": state.head.num_classes,
        "known_classes": state.head.known_count,
        "word_dim": state.theta.shape[0],
        "config_hash": config_hash,
    })


def load_checkpoint(directory):
    """Read a checkpoint directory back into a ModelState, ignoring keys it
    does not read (an older manifest's slope); raises ValueError when the
    manifest disagrees with the stored matrices or lacks a number it needs."""
    manifest_path = os.path.join(directory, "manifest.json")
    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict):
        raise ValueError(f"{manifest_path}: not a JSON object")
    matrices = []
    for name, keys in _CHECKPOINT_SHAPES.items():
        path = os.path.join(directory, name)
        matrices.append(load_matrix(path))
        for key, value in zip(keys, matrices[-1].shape):
            declared, key = (manifest.get(key), key) if type(key) is str else (key, "rows")
            if declared != value:
                raise ValueError(f"{path}: checkpoint manifest mismatch for {key}: "
                                 f"{declared} != {value}")
    enc_w, enc_b, head_w, theta = matrices
    known = manifest.get("known_classes")
    # bool is an int subclass; neither true nor 7.9 is a class count
    if type(known) is not int or not 0 < known <= head_w.shape[0]:
        raise ValueError("checkpoint manifest has no known_classes in "
                         f"1..{head_w.shape[0]}: {known!r}")
    state = ModelState(
        encoder=Encoder(weight=enc_w, bias=enc_b.ravel()),
        head=ClassifierHead(weights=head_w, known_count=known),
        theta=theta,
    )
    return state, manifest
