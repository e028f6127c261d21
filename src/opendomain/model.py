"""Trainable model: a linear encoder over precomputed feature vectors plus
the full classifier head, initialized from graph-propagated embeddings, and
its checkpoint files. The model is trained in :mod:`opendomain.trainer`,
pretraining included.

One parameter set serves both domains (weight sharing): source and target
batches in the same step go through the identical encoder.
"""
from __future__ import annotations

import json
import numbers
import os
from dataclasses import dataclass

import numpy as np

from .numkit import DimensionError, load_matrix, save_matrix, text_file, write_json

__all__ = [
    "ModelState",
    "encode",
    "save_checkpoint",
    "load_checkpoint",
]


@dataclass(frozen=True)
class ModelState:
    """The parameters trained jointly, in the order of the flat training
    buffer and of the checkpoint files: the linear encoder raw -> raw @
    weight + bias, the classifier head (one row per class, no bias: the rows
    live in the space of the graph-convolution outputs) whose first
    ``known_count`` rows are the known classes, and the GCN weights theta
    (word_dim x feature_dim)."""

    weight: np.ndarray
    bias: np.ndarray
    head: np.ndarray
    known_count: int
    theta: np.ndarray

    def __post_init__(self):
        known, rows = self.known_count, len(self.head)
        # bool is an int subclass; neither True nor 1.5 is a class count
        if (not isinstance(known, numbers.Integral) or isinstance(known, bool)
                or not 0 < known <= rows):
            raise ValueError(f"known_count must be an integer in 1..{rows}, got {known!r}")
        if self.theta is None:
            raise ValueError("theta must be an array, got None")
        object.__setattr__(self, "known_count", int(known))


def encode(raw, state: ModelState) -> np.ndarray:
    """The features of ``raw`` under the state's encoder."""
    raw = np.asarray(raw, float)
    if raw.shape[1] != state.weight.shape[0]:
        raise DimensionError(
            f"encode: input dim {raw.shape[1]} != weight rows {state.weight.shape[0]}"
        )
    return raw @ state.weight + state.bias


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
    matrices = (state.weight, state.bias.reshape(1, -1), state.head, state.theta)
    for name, m in zip(_CHECKPOINT_SHAPES, matrices):
        save_matrix(os.path.join(directory, name), m)
    write_json(os.path.join(directory, "manifest.json"), {
        "input_dim": state.weight.shape[0],
        "feature_dim": state.weight.shape[1],
        "total_classes": state.head.shape[0],
        "known_classes": state.known_count,
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
    weight, bias, head, theta = matrices
    known = manifest.get("known_classes")
    try:
        return ModelState(weight, bias.ravel(), head, known, theta), manifest
    except ValueError:
        raise ValueError("checkpoint manifest has no known_classes in "
                         f"1..{len(head)}: {known!r}") from None
