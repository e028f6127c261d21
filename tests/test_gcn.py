import numpy as np
import pytest

from opendomain.gcn import (
    GcnParams,
    GcnSchedule,
    gcn_forward,
    gcn_reg_loss,
    init_loss,
    train_gcn_init,
)
from opendomain.graph import KnowledgeGraph, normalized_adjacency
from opendomain.numkit import DimensionError, leaky_relu, make_rng

from gradcheck import grad_check


def test_forward_single_node_identity():
    x = np.array([[0.5, 2.0]])
    params = GcnParams(theta=np.eye(2), activation_slope=0.2)
    assert np.array_equal(gcn_forward(np.array([[1.0]]), x, params), x)


def test_forward_constant_rows():
    rng = make_rng(0)
    x_row = rng.standard_normal(3)
    x = np.tile(x_row, (4, 1))
    p = rng.random((4, 4))
    p /= p.sum(axis=1, keepdims=True)
    params = GcnParams(theta=rng.standard_normal((3, 2)), activation_slope=0.2)
    out = gcn_forward(p, x, params)
    expected = leaky_relu(x_row @ params.theta, 0.2)
    assert np.allclose(out, expected, atol=1e-12)


def test_forward_path_fixture():
    g = KnowledgeGraph(node_names=("a", "b", "c"), edges=((0, 1), (1, 2)),
                       class_to_node=(0, 1, 2), known_class_count=1)
    p = normalized_adjacency(g)
    x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    params = GcnParams(theta=np.array([[1.0], [-1.0]]), activation_slope=0.2)
    pre_activation = p @ x @ params.theta
    expected = np.where(pre_activation > 0, pre_activation, 0.2 * pre_activation)
    assert np.allclose(gcn_forward(p, x, params), expected, atol=1e-15)


def test_forward_dimension_mismatch():
    params = GcnParams(theta=np.eye(2))
    with pytest.raises(DimensionError):
        gcn_forward(np.eye(3), np.zeros((4, 2)), params)


def test_forward_linear_in_x_with_unit_slope():
    rng = make_rng(1)
    p = rng.random((5, 5))
    p /= p.sum(axis=1, keepdims=True)
    params = GcnParams(theta=rng.standard_normal((3, 2)), activation_slope=1.0)
    x1 = rng.standard_normal((5, 3))
    x2 = rng.standard_normal((5, 3))
    combined = gcn_forward(p, 2.0 * x1 - 0.5 * x2, params)
    parts = 2.0 * gcn_forward(p, x1, params) - 0.5 * gcn_forward(p, x2, params)
    assert np.max(np.abs(combined - parts)) < 1e-9


def test_init_loss_zero_at_fit():
    rng = make_rng(2)
    p = np.eye(3)
    x = np.abs(rng.standard_normal((3, 2))) + 0.1
    params = GcnParams(theta=np.eye(2), activation_slope=0.2)
    w = x[:2]  # positive, so sigma is identity on these rows
    loss, d_theta = init_loss(p, x, params, w, [0, 1])
    assert loss == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(d_theta, 0.0, atol=1e-15)


def test_init_loss_scalar_case():
    # one known node, one output dim: O=2, W=1 -> (2-1)^2 / 2 = 0.5
    p = np.array([[1.0]])
    x = np.array([[2.0]])
    params = GcnParams(theta=np.array([[1.0]]), activation_slope=0.2)
    loss, _ = init_loss(p, x, params, np.array([[1.0]]), [0])
    assert loss == pytest.approx(0.5)


def _away_from_kink(p, x, theta, margin=1e-4):
    # central differences are invalid where the pre-activation straddles
    # the leaky-ReLU kink; resample rather than loosen the tolerance
    return float(np.min(np.abs(p @ x @ theta))) > margin


def test_init_loss_gradient_many_instances():
    rng = make_rng(3)
    checked = 0
    while checked < 100:
        n = int(rng.integers(2, 10))
        c = int(rng.integers(1, 6))
        f = int(rng.integers(1, 6))
        ls = int(rng.integers(1, n + 1))
        p = rng.random((n, n)) + 0.01
        p /= p.sum(axis=1, keepdims=True)
        x = rng.standard_normal((n, c))
        theta = rng.standard_normal((c, f))
        if not _away_from_kink(p, x, theta):
            continue
        w = rng.standard_normal((ls, f))
        rows = list(rng.permutation(n)[:ls])
        _, d_theta = init_loss(p, x, GcnParams(theta, 0.2), w, rows)
        if float(np.min(np.abs(d_theta))) < 1e-5:
            # near-zero coordinates drown in finite-difference roundoff
            continue
        err = grad_check(
            lambda t: init_loss(p, x, GcnParams(t, 0.2), w, rows)[0],
            theta, d_theta, eps=1e-6)
        assert err <= 1e-5
        checked += 1


def test_reg_loss_zero_at_fit():
    rng = make_rng(4)
    p = np.eye(4)
    x = np.abs(rng.standard_normal((4, 3))) + 0.1
    params = GcnParams(theta=np.eye(3), activation_slope=0.2)
    w_hat = x.copy()
    loss, d_theta, d_w = gcn_reg_loss(p, x, params, w_hat, [0, 1, 2, 3])
    assert loss == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(d_theta, 0.0, atol=1e-15)
    assert np.allclose(d_w, 0.0, atol=1e-15)


def test_reg_loss_whatgrad_closed_form():
    rng = make_rng(5)
    p = rng.random((4, 4))
    p /= p.sum(axis=1, keepdims=True)
    x = rng.standard_normal((4, 3))
    params = GcnParams(theta=rng.standard_normal((3, 2)), activation_slope=0.2)
    w_hat = rng.standard_normal((3, 2))
    rows = [0, 2, 3]
    o = gcn_forward(p, x, params)
    _, _, d_w = gcn_reg_loss(p, x, params, w_hat, rows)
    m = w_hat.shape[1]
    assert np.allclose(d_w, (w_hat - o[rows]) / m, atol=1e-12)


def test_reg_loss_gradients_many_instances():
    rng = make_rng(6)
    checked = 0
    while checked < 100:
        n = int(rng.integers(2, 10))
        c = int(rng.integers(1, 6))
        f = int(rng.integers(1, 6))
        lt = int(rng.integers(1, n + 1))
        p = rng.random((n, n)) + 0.01
        p /= p.sum(axis=1, keepdims=True)
        x = rng.standard_normal((n, c))
        theta = rng.standard_normal((c, f))
        if not _away_from_kink(p, x, theta):
            continue
        w_hat = rng.standard_normal((lt, f))
        rows = list(rng.permutation(n)[:lt])
        _, d_theta, d_w = gcn_reg_loss(p, x, GcnParams(theta, 0.2), w_hat, rows)
        if min(float(np.min(np.abs(d_theta))), float(np.min(np.abs(d_w)))) < 1e-5:
            continue
        err_t = grad_check(
            lambda t: gcn_reg_loss(p, x, GcnParams(t, 0.2), w_hat, rows)[0],
            theta, d_theta, eps=1e-6)
        err_w = grad_check(
            lambda w: gcn_reg_loss(p, x, GcnParams(theta, 0.2), w, rows)[0],
            w_hat, d_w, eps=1e-6)
        assert err_t <= 1e-5
        assert err_w <= 1e-5
        checked += 1


def _toy_graph():
    return KnowledgeGraph(
        node_names=tuple(f"n{i}" for i in range(6)),
        edges=((0, 4), (1, 4), (2, 5), (3, 5), (4, 5)),
        class_to_node=(0, 1, 2, 3), known_class_count=3)


def test_train_init_fits_known_rows():
    rng = make_rng(7)
    g = _toy_graph()
    x = rng.standard_normal((6, 8))
    w = rng.standard_normal((3, 4))
    _, emb, history = train_gcn_init(g, x, w, GcnSchedule(), make_rng(0))
    assert emb.shape == (4, 4)
    mse = float(np.mean((emb[:3] - w) ** 2))
    assert mse <= 1e-3
    assert history[-1] < history[0]


def test_train_init_zero_word_vectors():
    g = _toy_graph()
    x = np.zeros((6, 8))
    w = make_rng(8).standard_normal((3, 4))
    _, emb, history = train_gcn_init(g, x, w, GcnSchedule(steps=50), make_rng(0))
    assert np.allclose(emb, 0.0)
    stuck = 0.5 * float(np.sum(w * w)) / w.shape[1]
    assert history[-1] == pytest.approx(stuck)


def test_train_init_deterministic():
    rng = make_rng(9)
    g = _toy_graph()
    x = rng.standard_normal((6, 8))
    w = rng.standard_normal((3, 4))
    p1, _, _ = train_gcn_init(g, x, w, GcnSchedule(steps=200), make_rng(11))
    p2, _, _ = train_gcn_init(g, x, w, GcnSchedule(steps=200), make_rng(11))
    assert np.array_equal(p1.theta, p2.theta)


def test_disconnected_zero_row_embedding_is_zero():
    # an unknown node with no edges and a zero word vector gets a zero row
    g = KnowledgeGraph(node_names=("a", "b", "c"), edges=((0, 1),),
                       class_to_node=(0, 1, 2), known_class_count=2)
    rng = make_rng(10)
    x = rng.standard_normal((3, 4))
    x[2] = 0.0
    w = rng.standard_normal((2, 3))
    _, emb, _ = train_gcn_init(g, x, w, GcnSchedule(steps=500), make_rng(0))
    assert np.allclose(emb[2], 0.0, atol=1e-15)
