import numpy as np
import pytest

from opendomain.gcn import (
    GcnParams,
    GcnSchedule,
    gcn_forward,
    gcn_reg_loss,
    init_loss,
    init_theta,
    propagate,
    train_gcn_init,
)
from opendomain.graph import KnowledgeGraph, normalized_adjacency
from opendomain import synth
from opendomain.numkit import DimensionError, leaky_relu, make_rng

from gradcheck import grad_check


def test_forward_single_node_identity():
    x = np.array([[0.5, 2.0]])
    params = GcnParams(theta=np.eye(2), activation_slope=0.2)
    assert np.array_equal(gcn_forward(np.array([[1.0]]) @ x, params), x)


def test_forward_constant_rows():
    rng = make_rng(0)
    x_row = rng.standard_normal(3)
    x = np.tile(x_row, (4, 1))
    p = rng.random((4, 4))
    p /= p.sum(axis=1, keepdims=True)
    params = GcnParams(theta=rng.standard_normal((3, 2)), activation_slope=0.2)
    out = gcn_forward(p @ x, params)
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
    assert np.allclose(gcn_forward(p @ x, params), expected, atol=1e-15)


def test_forward_dimension_mismatch():
    params = GcnParams(theta=np.eye(2), activation_slope=0.2)
    with pytest.raises(DimensionError):
        gcn_forward(np.zeros((4, 3)), params)


def test_forward_linear_in_x_with_unit_slope():
    rng = make_rng(1)
    p = rng.random((5, 5))
    p /= p.sum(axis=1, keepdims=True)
    params = GcnParams(theta=rng.standard_normal((3, 2)), activation_slope=1.0)
    x1 = rng.standard_normal((5, 3))
    x2 = rng.standard_normal((5, 3))
    combined = gcn_forward(p @ (2.0 * x1 - 0.5 * x2), params)
    parts = 2.0 * gcn_forward(p @ x1, params) - 0.5 * gcn_forward(p @ x2, params)
    assert np.max(np.abs(combined - parts)) < 1e-9


def test_init_loss_zero_at_fit():
    rng = make_rng(2)
    p = np.eye(3)
    x = np.abs(rng.standard_normal((3, 2))) + 0.1
    params = GcnParams(theta=np.eye(2), activation_slope=0.2)
    w = x[:2]  # positive, so sigma is identity on these rows
    loss, d_theta = init_loss(propagate(p, x, [0, 1]), params, w)
    assert loss == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(d_theta, 0.0, atol=1e-15)


def test_init_loss_scalar_case():
    # one known node, one output dim: O=2, W=1 -> (2-1)^2 / 2 = 0.5
    p = np.array([[1.0]])
    x = np.array([[2.0]])
    params = GcnParams(theta=np.array([[1.0]]), activation_slope=0.2)
    loss, _ = init_loss(propagate(p, x, [0]), params, np.array([[1.0]]))
    assert loss == pytest.approx(0.5)


def test_gradient_at_kink_uses_slope():
    # pre-activations 2, -2 and exactly 0: the derivative at 0 is pinned to
    # the slope for reproducibility
    z = np.array([[2.0, 0.0], [-2.0, 0.0], [1.0, 1.0]])
    params = GcnParams(theta=np.array([[1.0], [-1.0]]), activation_slope=0.2)
    _, d_theta, d_w = gcn_reg_loss(z, params, np.full((3, 1), -1.0))
    d_o = -d_w
    assert np.array_equal(d_theta, z.T @ (d_o * np.array([[1.0], [0.2], [0.2]])))


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
        z = propagate(p, x, rows)
        _, d_theta = init_loss(z, GcnParams(theta, 0.2), w)
        if float(np.min(np.abs(d_theta))) < 1e-5:
            # near-zero coordinates drown in finite-difference roundoff
            continue
        err = grad_check(
            lambda t: init_loss(z, GcnParams(t, 0.2), w)[0],
            theta, d_theta, eps=1e-6)
        assert err <= 1e-5
        checked += 1


def test_reg_loss_zero_at_fit():
    rng = make_rng(4)
    p = np.eye(4)
    x = np.abs(rng.standard_normal((4, 3))) + 0.1
    params = GcnParams(theta=np.eye(3), activation_slope=0.2)
    w_hat = x.copy()
    loss, d_theta, d_w = gcn_reg_loss(propagate(p, x, [0, 1, 2, 3]), params, w_hat)
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
    o = gcn_forward(p @ x, params)
    _, _, d_w = gcn_reg_loss(propagate(p, x, rows), params, w_hat)
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
        z = propagate(p, x, rows)
        _, d_theta, d_w = gcn_reg_loss(z, GcnParams(theta, 0.2), w_hat)
        if min(float(np.min(np.abs(d_theta))), float(np.min(np.abs(d_w)))) < 1e-5:
            continue
        err_t = grad_check(
            lambda t: gcn_reg_loss(z, GcnParams(t, 0.2), w_hat)[0],
            theta, d_theta, eps=1e-6)
        err_w = grad_check(
            lambda w: gcn_reg_loss(z, GcnParams(theta, 0.2), w)[0],
            w_hat, d_w, eps=1e-6)
        assert err_t <= 1e-5
        assert err_w <= 1e-5
        checked += 1


def _toy_graph():
    return KnowledgeGraph(
        node_names=tuple(f"n{i}" for i in range(6)),
        edges=((0, 4), (1, 4), (2, 5), (3, 5), (4, 5)),
        class_to_node=(0, 1, 2, 3), known_class_count=3)


def _reference_gcn_init(g, x, w, schedule, rng):
    """GCN init in its first formulation: a full leaky_relu(P X theta)
    forward over every node each step, the gradient taken through a
    zero-padded d_o over all nodes, and the out-of-place momentum update
    v = m*v + g."""
    x = np.asarray(x, float)
    w = np.asarray(w, float)
    p = normalized_adjacency(g)
    slope = schedule.slope
    theta = init_theta(x.shape[1], w.shape[1], rng, schedule.init_scale)
    known = list(g.class_to_node[: g.known_class_count])
    z_known = (p @ x)[known]
    curvature = float(np.linalg.eigvalsh(z_known.T @ z_known)[-1]) / w.shape[1]
    step = schedule.learning_rate / max(curvature, 1e-12)
    m = w.shape[1]
    v = np.zeros_like(theta)
    history = []
    for _ in range(schedule.steps):
        z = p @ x
        h = z @ theta
        o = leaky_relu(h, slope)
        diff = o[known] - w
        history.append(0.5 / m * float(np.sum(diff * diff)))
        d_o = np.zeros_like(o)
        d_o[known] = diff / m
        d_theta = z.T @ (d_o * np.where(h > 0, 1.0, slope))
        v = schedule.momentum * v + d_theta
        theta -= step * v
    embeddings = leaky_relu(p @ x @ theta, slope)[list(g.class_to_node)]
    return theta, embeddings, history


def _z_class(g, x):
    return propagate(normalized_adjacency(g), x, g.class_to_node)


def _synth_graph():
    _, _, g, words = synth.generate(synth.SynthConfig())
    return g, words


def _graph_and_words(graph):
    if graph == "toy":
        return _toy_graph(), make_rng(12).standard_normal((6, 8))
    return _synth_graph()


@pytest.mark.parametrize("graph", ["toy", "synth"])
def test_train_init_bit_identical_to_full_forward(graph):
    # the loop runs where the closed form does not apply: slope 0, and
    # fewer word dims than known rows (Z_k rank-deficient)
    g, x = _graph_and_words(graph)
    w = make_rng(13).standard_normal((g.known_class_count, 16))
    narrow = x[:, : g.known_class_count - 1]
    for words, schedule in ((x, GcnSchedule(slope=0.0)), (narrow, GcnSchedule())):
        theta, emb, history = _reference_gcn_init(g, words, w, schedule, make_rng(14))
        params, emb_new, history_new = train_gcn_init(_z_class(g, words), w, schedule,
                                                      make_rng(14))
        assert len(history_new) == schedule.steps
        assert np.array_equal(params.theta, theta)
        assert np.array_equal(emb_new, emb)
        assert np.array_equal(np.array(history_new), np.array(history))


def test_train_init_trains_under_the_schedule_slope():
    g = _toy_graph()
    x = make_rng(12).standard_normal((6, 2))  # 3 known rows, rank 2: the loop
    w = make_rng(13).standard_normal((g.known_class_count, 4))
    schedule = GcnSchedule(steps=300, slope=0.05)
    theta, emb, _ = _reference_gcn_init(g, x, w, schedule, make_rng(14))
    params, emb_new, _ = train_gcn_init(_z_class(g, x), w, schedule, make_rng(14))
    assert params.activation_slope == 0.05
    assert np.array_equal(params.theta, theta)
    assert np.array_equal(emb_new, emb)
    default, _, _ = train_gcn_init(_z_class(g, x), w, GcnSchedule(steps=300), make_rng(14))
    assert not np.array_equal(default.theta, theta)


@pytest.mark.parametrize("graph", ["toy", "synth"])
def test_closed_form_is_the_converged_loop(graph):
    g, x = _graph_and_words(graph)
    w = make_rng(13).standard_normal((g.known_class_count, 16))
    schedule = GcnSchedule()
    theta, emb, history = _reference_gcn_init(g, x, w, schedule, make_rng(14))
    assert history[-1] < 1e-25  # the 8000 reference steps have converged
    params, emb_new, history_new = train_gcn_init(_z_class(g, x), w, schedule, make_rng(14))
    # two routes to one fixed point: entries are O(10) and cond(Z_k Z_k^T)
    # is below 100 on both graphs, so rounding alone allows about 2e-13
    assert np.allclose(params.theta, theta, rtol=0, atol=1e-12)
    assert np.allclose(emb_new, emb, rtol=0, atol=1e-12)
    assert history_new[0] == history[0]


@pytest.mark.parametrize("graph", ["toy", "synth"])
@pytest.mark.parametrize("slope", [0.05, 0.2, 1.0])
def test_closed_form_fits_known_rows_to_rounding(graph, slope):
    g, x = _graph_and_words(graph)
    k = g.known_class_count
    w = make_rng(13).standard_normal((k, 16))
    z = _z_class(g, x)
    params, emb, history = train_gcn_init(z, w, GcnSchedule(slope=slope), make_rng(14))
    assert np.max(np.abs(emb[:k] - w)) <= 1e-12
    assert len(history) == 2 and history[1] < history[0]
    assert history[1] <= 1e-25
    # theta moved from theta0 only within the row space of Z_k, so the
    # unknown rows keep theta0's component outside it
    theta0 = init_theta(x.shape[1], 16, make_rng(14))
    step = params.theta - theta0
    assert np.allclose(step, np.linalg.pinv(z[:k]) @ (z[:k] @ step), rtol=0, atol=1e-12)


def test_reg_loss_bit_identical_to_full_forward():
    g, x = _synth_graph()
    p = normalized_adjacency(g)
    rows = list(g.class_to_node)
    rng = make_rng(15)
    params = GcnParams(rng.standard_normal((x.shape[1], 16)), 0.2)
    w_hat = rng.standard_normal((len(rows), 16))
    z = p @ x
    h = z @ params.theta
    diff = leaky_relu(h, 0.2)[rows] - w_hat
    d_o = np.zeros_like(h)
    d_o[rows] = diff / 16
    loss, d_theta, d_w = gcn_reg_loss(propagate(p, x, rows), params, w_hat)
    assert loss == 0.5 / 16 * float(np.sum(diff * diff))
    assert np.array_equal(d_theta, z.T @ (d_o * np.where(h > 0, 1.0, 0.2)))
    assert np.array_equal(d_w, -diff / 16)


def test_propagate_selects_rows():
    rng = make_rng(16)
    p = rng.random((5, 5))
    x = rng.standard_normal((5, 3))
    assert np.array_equal(propagate(p, x, [4, 0, 2]), (p @ x)[[4, 0, 2]])
    with pytest.raises(IndexError):
        propagate(p, x, [0, 5])
    with pytest.raises(IndexError):
        propagate(p, x, [-1])
    with pytest.raises(DimensionError):
        propagate(p, x[:4], [0])


def test_losses_reject_mismatched_shapes():
    z = np.ones((3, 2))
    params = GcnParams(theta=np.ones((2, 4)), activation_slope=0.2)
    with pytest.raises(DimensionError):
        init_loss(z, params, np.ones((2, 4)))  # 3 rows vs 2 targets
    with pytest.raises(DimensionError):
        gcn_reg_loss(z, params, np.ones((3, 5)))  # output dim 4 vs 5
    with pytest.raises(DimensionError):
        init_loss(np.ones((3, 7)), params, np.ones((3, 4)))


def test_train_init_fits_known_rows():
    rng = make_rng(7)
    g = _toy_graph()
    x = rng.standard_normal((6, 8))
    w = rng.standard_normal((3, 4))
    _, emb, history = train_gcn_init(_z_class(g, x), w, GcnSchedule(), make_rng(0))
    assert emb.shape == (4, 4)
    mse = float(np.mean((emb[:3] - w) ** 2))
    assert mse <= 1e-3
    assert history[-1] < history[0]


def test_train_init_zero_word_vectors():
    g = _toy_graph()
    x = np.zeros((6, 8))
    w = make_rng(8).standard_normal((3, 4))
    _, emb, history = train_gcn_init(_z_class(g, x), w, GcnSchedule(steps=50), make_rng(0))
    assert len(history) == 50  # Z_k has rank 0: the loop runs
    assert np.allclose(emb, 0.0)
    stuck = 0.5 * float(np.sum(w * w)) / w.shape[1]
    assert history[-1] == pytest.approx(stuck)


def test_train_init_deterministic():
    rng = make_rng(9)
    g = _toy_graph()
    x = rng.standard_normal((6, 8))
    w = rng.standard_normal((3, 4))
    p1, _, _ = train_gcn_init(_z_class(g, x), w, GcnSchedule(steps=200), make_rng(11))
    p2, _, _ = train_gcn_init(_z_class(g, x), w, GcnSchedule(steps=200), make_rng(11))
    assert np.array_equal(p1.theta, p2.theta)


def test_disconnected_zero_row_embedding_is_zero():
    # an unknown node with no edges and a zero word vector gets a zero row
    g = KnowledgeGraph(node_names=("a", "b", "c"), edges=((0, 1),),
                       class_to_node=(0, 1, 2), known_class_count=2)
    rng = make_rng(10)
    x = rng.standard_normal((3, 4))
    x[2] = 0.0
    w = rng.standard_normal((2, 3))
    _, emb, _ = train_gcn_init(_z_class(g, x), w, GcnSchedule(steps=500), make_rng(0))
    assert np.allclose(emb[2], 0.0, atol=1e-15)


@pytest.mark.parametrize("kwargs", [
    {"learning_rate": float("nan")},
    {"learning_rate": -0.5},
    {"momentum": -3.0, "steps": 0},
    {"momentum": 1.0},
    {"steps": 0},
    {"init_scale": 0.0},
    {"init_scale": float("inf")},
    {"slope": -0.1},
    {"slope": float("nan")},
    {"slope": float("inf")},
])
def test_schedule_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        GcnSchedule(**kwargs)
