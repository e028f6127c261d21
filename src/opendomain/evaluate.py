"""Prediction and the three-way accuracy metric (known / unknown / all)."""
from __future__ import annotations

import dataclasses

import numpy as np

from .model import ModelState, encode

__all__ = ["AccuracyTriple", "predict", "accuracy_triple"]


@dataclasses.dataclass(frozen=True)
class AccuracyTriple:
    """Per-instance top-1 accuracies over known-class instances, unknown-class
    instances and everything, with the group sample counts.

    An unknown-class prediction counts as correct only when it names the true
    unknown class; predicting any known class for an unknown instance is
    wrong, so collapse onto the known classes shows up directly here.
    """

    known: float
    unknown: float
    all: float
    n_known: int
    n_unknown: int

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def predict(state: ModelState, features) -> np.ndarray:
    """Argmax of the logits per instance; ties break to the lowest index."""
    return np.argmax(encode(features, state) @ state.head.T, axis=1)


def accuracy_triple(preds, labels, known_count: int) -> AccuracyTriple:
    preds = np.asarray(preds, dtype=int)
    labels = np.asarray(labels, dtype=int)
    if preds.shape != labels.shape:
        raise ValueError("prediction/label lengths differ")
    known_mask = labels < known_count
    correct = preds == labels
    n_known = int(known_mask.sum())
    n_unknown = int((~known_mask).sum())
    known_acc = float(correct[known_mask].mean()) if n_known else 0.0
    unknown_acc = float(correct[~known_mask].mean()) if n_unknown else 0.0
    total = n_known + n_unknown
    all_acc = (known_acc * n_known + unknown_acc * n_unknown) / total if total else 0.0
    return AccuracyTriple(known=known_acc, unknown=unknown_acc, all=all_acc,
                          n_known=n_known, n_unknown=n_unknown)
