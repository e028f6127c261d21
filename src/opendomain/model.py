"""Trainable model: a linear encoder over precomputed feature vectors plus
the full classifier head, initialized from graph-propagated embeddings.

One parameter set serves both domains (weight sharing): source and target
batches in the same step go through the identical encoder.
"""
from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

from .gcn import GcnParams
from .losses import ClassifierHead, cls_loss
from .numkit import (
    DimensionError,
    MomentumSgd,
    check_sgd_settings,
    load_matrix,
    save_matrix,
)

__all__ = [
    "Encoder",
    "ModelState",
    "PretrainSchedule",
    "encode",
    "encode_backward",
    "init_head_from_gcn",
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
    gcn: GcnParams


@dataclass
class PretrainSchedule:
    learning_rate: float = 0.05
    momentum: float = 0.9
    epochs: int = 12
    batch_size: int = 32

    def __post_init__(self):
        check_sgd_settings(self.learning_rate, self.momentum)
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")


def encode(raw, enc: Encoder) -> np.ndarray:
    raw = np.asarray(raw, float)
    if raw.shape[1] != enc.weight.shape[0]:
        raise DimensionError(
            f"encode: input dim {raw.shape[1]} != weight rows {enc.weight.shape[0]}"
        )
    return raw @ enc.weight + enc.bias


def encode_backward(raw, enc: Encoder, d_out):
    """Gradients of the linear encoder: returns (d_weight, d_bias, d_raw)."""
    raw = np.asarray(raw, float)
    d_out = np.asarray(d_out, float)
    return raw.T @ d_out, d_out.sum(axis=0), d_out @ enc.weight.T


def init_head_from_gcn(embeddings, known_count: int) -> ClassifierHead:
    """Copy the propagated class embeddings into a fresh classifier head;
    later training mutates the head, never the embeddings."""
    return ClassifierHead(weights=np.array(embeddings, dtype=float, copy=True),
                          known_count=known_count)


def pretrain_source(features, labels, num_classes: int, feature_dim: int,
                    schedule: PretrainSchedule, rng: np.random.Generator):
    """Fit the encoder and a known-class-only classifier on labeled source
    data by mini-batch cross-entropy with momentum SGD.

    Returns (encoder, classifier weight matrix, per-epoch mean loss).
    """
    features = np.asarray(features, float)
    labels = np.asarray(labels, dtype=int)
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= num_classes:
        raise IndexError("source labels out of range")
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
    opt = MomentumSgd({"weight": enc.weight, "bias": enc.bias, "head": head.weights},
                      schedule.learning_rate, schedule.momentum)
    history = []
    for _ in range(schedule.epochs):
        order = rng.permutation(n)
        epoch_losses = []
        for start in range(0, n, schedule.batch_size):
            idx = order[start:start + schedule.batch_size]
            f = encode(features[idx], enc)
            loss, d_f, d_w = cls_loss(f, head, labels[idx])
            d_weight, d_bias, _ = encode_backward(features[idx], enc, d_f)
            opt.step({"weight": d_weight, "bias": d_bias, "head": d_w})
            epoch_losses.append(loss)
        history.append(float(np.mean(epoch_losses)))
    return enc, head.weights, history


_CHECKPOINT_FILES = {
    "encoder_weight": "encoder.weight",
    "encoder_bias": "encoder.bias",
    "head_weights": "head.weights",
    "gcn_theta": "gcn.theta",
}


def save_checkpoint(directory, state: ModelState, config_hash: str = "") -> None:
    """Write the parameter matrices as text files plus a manifest with the
    dimensions and the originating config hash."""
    os.makedirs(directory, exist_ok=True)
    save_matrix(os.path.join(directory, _CHECKPOINT_FILES["encoder_weight"]),
                state.encoder.weight)
    save_matrix(os.path.join(directory, _CHECKPOINT_FILES["encoder_bias"]),
                state.encoder.bias.reshape(1, -1))
    save_matrix(os.path.join(directory, _CHECKPOINT_FILES["head_weights"]),
                state.head.weights)
    save_matrix(os.path.join(directory, _CHECKPOINT_FILES["gcn_theta"]),
                state.gcn.theta)
    manifest = {
        "input_dim": state.encoder.weight.shape[0],
        "feature_dim": state.encoder.weight.shape[1],
        "total_classes": state.head.num_classes,
        "known_classes": state.head.known_count,
        "word_dim": state.gcn.theta.shape[0],
        "activation_slope": state.gcn.activation_slope,
        "config_hash": config_hash,
    }
    with open(os.path.join(directory, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_checkpoint(directory):
    """Read a checkpoint directory back into a ModelState; raises
    ValueError when the manifest disagrees with the stored matrices or
    lacks a number it needs."""
    with open(os.path.join(directory, "manifest.json"), "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    enc_w = load_matrix(os.path.join(directory, _CHECKPOINT_FILES["encoder_weight"]))
    enc_b = load_matrix(os.path.join(directory, _CHECKPOINT_FILES["encoder_bias"]))
    head_w = load_matrix(os.path.join(directory, _CHECKPOINT_FILES["head_weights"]))
    theta = load_matrix(os.path.join(directory, _CHECKPOINT_FILES["gcn_theta"]))
    expected = {
        "input_dim": enc_w.shape[0],
        "feature_dim": enc_w.shape[1],
        "total_classes": head_w.shape[0],
        "word_dim": theta.shape[0],
    }
    for key, value in expected.items():
        if manifest.get(key) != value:
            raise ValueError(
                f"checkpoint manifest mismatch for {key}: "
                f"{manifest.get(key)} != {value}"
            )
    for key in ("known_classes", "activation_slope"):
        if not isinstance(manifest.get(key), (int, float)):
            raise ValueError(f"checkpoint manifest has no number for {key}")
    state = ModelState(
        encoder=Encoder(weight=enc_w, bias=enc_b.ravel()),
        head=ClassifierHead(weights=head_w,
                            known_count=int(manifest["known_classes"])),
        gcn=GcnParams(theta=theta,
                      activation_slope=float(manifest["activation_slope"])),
    )
    return state, manifest


def config_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
