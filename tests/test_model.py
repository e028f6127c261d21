import re
from dataclasses import replace

import numpy as np
import pytest

from opendomain.config import ExperimentConfig, PretrainSchedule, SynthConfig, experiment_hash
from opendomain.model import (
    ModelState,
    encode,
    load_checkpoint,
    save_checkpoint,
)
from opendomain.numkit import DimensionError, make_rng
from opendomain.trainer import pretrain_source

from gradcheck import grad_check
from joint_reference import encode_backward


def _encoder(weight, bias):
    """A state whose encoder is ``raw @ weight + bias``, with one class row
    and one word dim."""
    row = np.zeros((1, weight.shape[1]))
    return ModelState(weight, bias, row, 1, row)


def test_encode_identity_zero_bias():
    enc = _encoder(np.eye(3), np.zeros(3))
    raw = make_rng(0).standard_normal((4, 3))
    assert np.array_equal(encode(raw, enc), raw)


def test_encode_hand_example():
    enc = _encoder(np.array([[2.0], [0.0]]), np.array([1.0]))
    out = encode(np.array([[3.0, 5.0]]), enc)
    assert np.array_equal(out, [[7.0]])


def test_encode_dimension_mismatch():
    enc = _encoder(np.zeros((3, 2)), np.zeros(2))
    with pytest.raises(DimensionError):
        encode(np.zeros((1, 4)), enc)


def test_encode_affine():
    rng = make_rng(1)
    enc = _encoder(rng.standard_normal((4, 3)), rng.standard_normal(3))
    a = rng.standard_normal((5, 4))
    b = rng.standard_normal((5, 4))
    # affine: f(a) - f(b) is linear in a - b
    lhs = encode(a, enc) - encode(b, enc)
    rhs = (a - b) @ enc.weight
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_encode_backward_gradients():
    rng = make_rng(2)
    for _ in range(20):
        raw = rng.standard_normal((4, 3))
        enc = _encoder(rng.standard_normal((3, 2)), rng.standard_normal(2))
        target = rng.standard_normal((4, 2))

        def loss_of(weight=None, bias=None):
            e = _encoder(weight if weight is not None else enc.weight,
                         bias.ravel() if bias is not None else enc.bias)
            return 0.5 * float(np.sum((encode(raw, e) - target) ** 2))

        d_out = encode(raw, enc) - target
        d_w, d_b = encode_backward(raw, d_out)
        assert grad_check(lambda w: loss_of(weight=w), enc.weight, d_w,
                          eps=1e-6) <= 1e-6
        assert grad_check(lambda b: loss_of(bias=b),
                          enc.bias.reshape(1, -1), d_b.reshape(1, -1),
                          eps=1e-6) <= 1e-6


def _separable_problem(rng, n_per=40, num_classes=3, m_in=6):
    centers = rng.standard_normal((num_classes, m_in)) * 4.0
    feats = np.concatenate([
        centers[c] + 0.3 * rng.standard_normal((n_per, m_in))
        for c in range(num_classes)
    ])
    labels = np.repeat(np.arange(num_classes), n_per)
    return feats, labels


def _pretrain_cfg(classes, feature_dim, schedule=PretrainSchedule()):
    synth = SynthConfig(known_classes=classes, total_classes=classes + 1)
    return ExperimentConfig(synth=synth, feature_dim=feature_dim, pretrain=schedule)


def test_pretrain_separable_accuracy():
    rng = make_rng(3)
    feats, labels = _separable_problem(rng)
    (weight, bias, head), history = pretrain_source(feats, labels, _pretrain_cfg(3, 5),
                                                    make_rng(0))
    logits = (feats @ weight + bias) @ head.T
    acc = float(np.mean(np.argmax(logits, axis=1) == labels))
    assert acc >= 0.99
    assert history[-1] < history[0]


def test_pretrain_deterministic():
    rng = make_rng(4)
    feats, labels = _separable_problem(rng)
    cfg = _pretrain_cfg(3, 5)
    p1, h1 = pretrain_source(feats, labels, cfg, make_rng(7))
    p2, h2 = pretrain_source(feats, labels, cfg, make_rng(7))
    for a, b in zip(p1, p2, strict=True):  # the encoder weight, bias and head
        assert np.array_equal(a, b)
    assert h1 == h2


def test_pretrain_returns_a_known_class_state():
    # the encoder weight and bias, and a head of the known classes alone
    rng = make_rng(4)
    feats, labels = _separable_problem(rng)
    cfg = _pretrain_cfg(3, 5, PretrainSchedule(epochs=1))
    params, _ = pretrain_source(feats, labels, cfg, make_rng(7))
    assert [type(p) for p in params] == [np.ndarray] * 3
    assert [p.shape for p in params] == [(6, 5), (5,), (cfg.synth.known_classes, 5)]
    assert all(np.isfinite(p).all() for p in params)


def test_pretrain_label_out_of_range():
    with pytest.raises(IndexError):
        pretrain_source(np.zeros((2, 3)), [0, 5],
                        _pretrain_cfg(3, 4, PretrainSchedule(epochs=1)), make_rng(0))


def _random_state(rng, known_count=4):
    return ModelState(weight=rng.standard_normal((5, 4)), bias=rng.standard_normal(4),
                      head=rng.standard_normal((6, 4)), known_count=known_count,
                      theta=rng.standard_normal((8, 4)))


@pytest.mark.parametrize("kwargs", [
    {"learning_rate": float("nan")},
    {"learning_rate": float("inf")},
    {"learning_rate": 0.0},
    {"momentum": -0.1},
    {"momentum": 1.0},
    {"momentum": float("nan")},
    {"epochs": 0},
    {"batch_size": 0},
])
def test_pretrain_schedule_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        PretrainSchedule(**kwargs)


def test_checkpoint_roundtrip(tmp_path):
    state = _random_state(make_rng(5))
    save_checkpoint(tmp_path / "ckpt", state, config_hash="abc123")
    loaded, manifest = load_checkpoint(tmp_path / "ckpt")
    assert np.array_equal(loaded.weight, state.weight)
    assert np.array_equal(loaded.bias, state.bias)
    assert np.array_equal(loaded.head, state.head)
    assert np.array_equal(loaded.theta, state.theta)
    assert loaded.known_count == 4
    assert manifest == {"input_dim": 5, "feature_dim": 4, "total_classes": 6,
                        "known_classes": 4, "word_dim": 8, "config_hash": "abc123"}


@pytest.mark.parametrize("known", [1.5, True, 0, 7])
def test_a_class_count_out_of_range_or_no_integer_is_refused(known):
    # every state that builds must save a checkpoint that loads, and the
    # manifest's known_classes is a count: no float, no bool
    with pytest.raises(ValueError, match=re.escape(
            f"known_count must be an integer in 1..6, got {known!r}")):
        _random_state(make_rng(7), known)


def test_a_numpy_class_count_is_stored_as_an_int(tmp_path):
    # the manifest is JSON, which takes no np.int64
    state = _random_state(make_rng(7), np.int64(2))
    assert type(state.known_count) is int
    save_checkpoint(tmp_path / "ckpt", state)
    assert load_checkpoint(tmp_path / "ckpt")[0].known_count == 2


def test_a_state_without_theta_is_refused():
    # theta is always an array, so every state that builds has one to save
    state = _random_state(make_rng(8))
    with pytest.raises(ValueError, match="theta must be an array, got None"):
        replace(state, theta=None)
    with pytest.raises(ValueError, match="theta must be an array, got None"):
        ModelState(state.weight, state.bias, state.head, 4, None)


def test_checkpoint_manifest_mismatch(tmp_path):
    import json
    state = _random_state(make_rng(6))
    save_checkpoint(tmp_path / "ckpt", state)
    manifest_path = tmp_path / "ckpt" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["feature_dim"] = 99
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError):
        load_checkpoint(tmp_path / "ckpt")


def test_config_hash_stable_and_distinct():
    # the config_hash that manifests and metrics.json carry
    cfg = ExperimentConfig()
    assert experiment_hash(cfg) == experiment_hash(ExperimentConfig())
    assert experiment_hash(cfg) != experiment_hash(ExperimentConfig(seed=1))
    assert experiment_hash(cfg) == "15b6fc75f67a5d4f"
