"""Trainable model: a linear encoder over precomputed feature vectors plus
the full classifier head, initialized from graph-propagated embeddings, and
its checkpoint files. The model is trained in :mod:`opendomain.trainer`,
pretraining included.

One parameter set serves both domains (weight sharing): source and target
batches in the same step go through the identical encoder.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .losses import ClassifierHead
from .numkit import (
    DimensionError, check_keys, key, load_matrix, save_matrix, text_file, write_json)

__all__ = [
    "Encoder",
    "ModelState",
    "PretrainSchedule",
    "encode",
    "save_checkpoint",
    "load_checkpoint",
]


@dataclass(frozen=True)
class Encoder:
    """Linear map raw -> features: raw @ weight + bias."""

    weight: np.ndarray
    bias: np.ndarray


@dataclass(frozen=True)
class ModelState:
    encoder: Encoder
    head: ClassifierHead
    theta: np.ndarray  # GCN weights, word_dim x feature_dim


@dataclass(frozen=True)
class PretrainSchedule:
    learning_rate: float = key(0.05, "> 0")
    momentum: float = key(0.9, "in [0, 1)")
    epochs: int = key(12, ">= 1")
    batch_size: int = key(32, ">= 1")

    def __post_init__(self):
        check_keys(self, "pretrain")


def encode(raw, enc: Encoder) -> np.ndarray:
    raw = np.asarray(raw, float)
    if raw.shape[1] != enc.weight.shape[0]:
        raise DimensionError(
            f"encode: input dim {raw.shape[1]} != weight rows {enc.weight.shape[0]}"
        )
    return raw @ enc.weight + enc.bias


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
    with text_file(manifest_path) as fh:
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
