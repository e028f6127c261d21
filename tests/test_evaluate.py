from dataclasses import replace

import numpy as np
import pytest

from opendomain.evaluate import AccuracyTriple, accuracy_triple, predict
from opendomain.model import ModelState
from opendomain.numkit import make_rng


def _state(head_weights, known_count):
    head_weights = np.asarray(head_weights, float)
    dim = head_weights.shape[1]
    return ModelState(weight=np.eye(dim), bias=np.zeros(dim), head=head_weights,
                      known_count=known_count, theta=np.eye(dim))


def test_predict_zero_head_ties_to_class_zero():
    state = _state(np.zeros((3, 2)), 2)
    preds = predict(state, make_rng(0).standard_normal((5, 2)))
    assert np.array_equal(preds, np.zeros(5, dtype=int))


def test_predict_is_the_argmax_of_the_logits():
    # the softmax rounds logits [0, 1e-17] to probabilities [0.5, 0.5]; the
    # logits, which the benchmark's check of a checkpoint reads, name class 1
    state = _state([[0.0], [1.0]], 1)
    assert predict(state, [[1e-17]])[0] == 1


def test_predict_separable_prototypes():
    protos = np.array([[4.0, 0.0], [0.0, 4.0], [-4.0, -4.0]])
    state = _state(protos, 2)
    rng = make_rng(1)
    feats = np.concatenate([
        protos[c] + 0.2 * rng.standard_normal((10, 2)) for c in range(3)
    ])
    preds = predict(state, feats)
    assert np.array_equal(preds, np.repeat(np.arange(3), 10))


def test_predict_uses_encoder():
    state = _state(np.array([[1.0, 0.0], [0.0, 1.0]]), 1)
    swapped = replace(state, weight=np.array([[0.0, 1.0], [1.0, 0.0]]))
    feats = np.array([[3.0, 0.0]])
    assert predict(state, feats)[0] == 0
    assert predict(swapped, feats)[0] == 1


def test_triple_all_correct():
    t = accuracy_triple([0, 1, 2, 3], [0, 1, 2, 3], known_count=2)
    assert t == AccuracyTriple(1.0, 1.0, 1.0, 2, 2)


def test_triple_known_only_correct():
    t = accuracy_triple([0, 1, 0, 1], [0, 1, 2, 3], known_count=2)
    assert t.known == 1.0
    assert t.unknown == 0.0
    assert t.all == 0.5
    assert (t.n_known, t.n_unknown) == (2, 2)


def test_triple_unknown_needs_exact_class():
    # predicting a different unknown class is still wrong
    t = accuracy_triple([3], [2], known_count=2)
    assert t.unknown == 0.0
    t = accuracy_triple([2], [2], known_count=2)
    assert t.unknown == 1.0


def test_triple_empty_groups():
    t = accuracy_triple([0, 0], [0, 1], known_count=3)
    assert t.n_unknown == 0
    assert t.unknown == 0.0
    assert t.all == t.known == 0.5


def test_triple_weighted_identity():
    rng = make_rng(2)
    for _ in range(50):
        n = int(rng.integers(1, 40))
        known_count = int(rng.integers(1, 5))
        labels = rng.integers(0, known_count + 3, n)
        preds = rng.integers(0, known_count + 3, n)
        t = accuracy_triple(preds, labels, known_count)
        weighted = (t.known * t.n_known + t.unknown * t.n_unknown) / n
        assert t.all == pytest.approx(weighted, abs=1e-12)
        assert t.all == pytest.approx(float(np.mean(preds == labels)), abs=1e-12)


def test_triple_permutation_invariance():
    rng = make_rng(3)
    labels = rng.integers(0, 6, 30)
    preds = rng.integers(0, 6, 30)
    perm = rng.permutation(30)
    assert accuracy_triple(preds, labels, 3) == accuracy_triple(
        preds[perm], labels[perm], 3)


def test_triple_length_mismatch():
    with pytest.raises(ValueError):
        accuracy_triple([0, 1], [0], known_count=1)


def test_as_dict_keys():
    t = accuracy_triple([0], [0], known_count=1)
    assert t.as_dict() == {"known": 1.0, "unknown": 0.0, "all": 1.0,
                           "n_known": 1, "n_unknown": 0}
