import numpy as np
import pytest

from opendomain.gcn import GcnParams
from opendomain.losses import ClassifierHead
from opendomain.model import (
    Encoder,
    ModelState,
    PretrainSchedule,
    config_hash,
    encode,
    encode_backward,
    init_head_from_gcn,
    load_checkpoint,
    pretrain_source,
    save_checkpoint,
)
from opendomain.numkit import DimensionError, make_rng

from gradcheck import grad_check


def test_encode_identity_zero_bias():
    enc = Encoder(weight=np.eye(3), bias=np.zeros(3))
    raw = make_rng(0).standard_normal((4, 3))
    assert np.array_equal(encode(raw, enc), raw)


def test_encode_hand_example():
    enc = Encoder(weight=np.array([[2.0], [0.0]]), bias=np.array([1.0]))
    out = encode(np.array([[3.0, 5.0]]), enc)
    assert np.array_equal(out, [[7.0]])


def test_encode_dimension_mismatch():
    enc = Encoder(weight=np.zeros((3, 2)), bias=np.zeros(2))
    with pytest.raises(DimensionError):
        encode(np.zeros((1, 4)), enc)


def test_encode_affine():
    rng = make_rng(1)
    enc = Encoder(weight=rng.standard_normal((4, 3)),
                  bias=rng.standard_normal(3))
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
        enc = Encoder(weight=rng.standard_normal((3, 2)),
                      bias=rng.standard_normal(2))
        target = rng.standard_normal((4, 2))

        def loss_of(weight=None, bias=None, r=None):
            e = Encoder(weight if weight is not None else enc.weight,
                        bias.ravel() if bias is not None else enc.bias)
            return 0.5 * float(np.sum(
                (encode(r if r is not None else raw, e) - target) ** 2))

        d_out = encode(raw, enc) - target
        d_w, d_b, d_raw = encode_backward(raw, enc, d_out)
        assert grad_check(lambda w: loss_of(weight=w), enc.weight, d_w,
                          eps=1e-6) <= 1e-6
        assert grad_check(lambda b: loss_of(bias=b),
                          enc.bias.reshape(1, -1), d_b.reshape(1, -1),
                          eps=1e-6) <= 1e-6
        assert grad_check(lambda r: loss_of(r=r), raw, d_raw,
                          eps=1e-6) <= 1e-6


def test_init_head_copies():
    emb = np.ones((4, 3))
    head = init_head_from_gcn(emb, known_count=2)
    head.weights[0, 0] = 99.0
    assert emb[0, 0] == 1.0
    assert head.known_count == 2


def _separable_problem(rng, n_per=40, num_classes=3, m_in=6):
    centers = rng.standard_normal((num_classes, m_in)) * 4.0
    feats = np.concatenate([
        centers[c] + 0.3 * rng.standard_normal((n_per, m_in))
        for c in range(num_classes)
    ])
    labels = np.repeat(np.arange(num_classes), n_per)
    return feats, labels


def test_pretrain_separable_accuracy():
    rng = make_rng(3)
    feats, labels = _separable_problem(rng)
    enc, w, history = pretrain_source(feats, labels, 3, 5,
                                      PretrainSchedule(), make_rng(0))
    logits = encode(feats, enc) @ w.T
    acc = float(np.mean(np.argmax(logits, axis=1) == labels))
    assert acc >= 0.99
    assert history[-1] < history[0]


def test_pretrain_deterministic():
    rng = make_rng(4)
    feats, labels = _separable_problem(rng)
    enc1, w1, h1 = pretrain_source(feats, labels, 3, 5,
                                   PretrainSchedule(), make_rng(7))
    enc2, w2, h2 = pretrain_source(feats, labels, 3, 5,
                                   PretrainSchedule(), make_rng(7))
    assert np.array_equal(enc1.weight, enc2.weight)
    assert np.array_equal(enc1.bias, enc2.bias)
    assert np.array_equal(w1, w2)
    assert h1 == h2


def test_pretrain_label_out_of_range():
    with pytest.raises(IndexError):
        pretrain_source(np.zeros((2, 3)), [0, 5], 3, 4,
                        PretrainSchedule(epochs=1), make_rng(0))


def _random_state(rng):
    return ModelState(
        encoder=Encoder(weight=rng.standard_normal((5, 4)),
                        bias=rng.standard_normal(4)),
        head=ClassifierHead(weights=rng.standard_normal((6, 4)),
                            known_count=4),
        gcn=GcnParams(theta=rng.standard_normal((8, 4)),
                      activation_slope=0.2),
    )


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
    assert np.array_equal(loaded.encoder.weight, state.encoder.weight)
    assert np.array_equal(loaded.encoder.bias, state.encoder.bias)
    assert np.array_equal(loaded.head.weights, state.head.weights)
    assert np.array_equal(loaded.gcn.theta, state.gcn.theta)
    assert loaded.head.known_count == 4
    assert loaded.gcn.activation_slope == 0.2
    assert manifest["config_hash"] == "abc123"


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
    assert config_hash("a=1\n") == config_hash("a=1\n")
    assert config_hash("a=1\n") != config_hash("a=2\n")
    assert len(config_hash("x")) == 16
