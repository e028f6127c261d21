import numpy as np
import pytest

from opendomain import gcn
from opendomain.config import GcnSchedule
from opendomain.gcn import (
    gcn_reg_core,
    init_theta,
    leaky_relu,
    propagate,
    train_gcn_init,
)
from opendomain.graph import KnowledgeGraph, normalized_adjacency
from opendomain.losses import NonFiniteLossError
from opendomain import synth
from opendomain.numkit import DimensionError, make_rng

from gradcheck import grad_check


# GCN init's loss is the graph tie of the known rows against the
# pretrained classifier weights: gcn_reg_core with w_hat = W

def test_init_loss_zero_at_fit():
    rng = make_rng(2)
    p = np.eye(3)
    x = np.abs(rng.standard_normal((3, 2))) + 0.1
    w = x[:2]  # positive, so sigma is identity on these rows
    d_theta = np.empty((2, 2))
    loss, _ = gcn_reg_core(propagate(p, x, [0, 1]), np.eye(2), 0.2, w, d_theta)
    assert loss == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(d_theta, 0.0, atol=1e-15)


def test_init_loss_scalar_case():
    # one known node, one output dim: O=2, W=1 -> (2-1)^2 / 2 = 0.5
    p = np.array([[1.0]])
    x = np.array([[2.0]])
    loss, _ = gcn_reg_core(propagate(p, x, [0]), np.array([[1.0]]), 0.2, np.array([[1.0]]),
                           np.empty((1, 1)))
    assert loss == pytest.approx(0.5)


# the leaky rule's bits: 0, -0, the tiniest and the hugest magnitudes, +-inf
_EDGES = [[0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, np.inf, -np.inf],
          [2.5, -2.5, 0.2, -0.2, 1.0, -1.0, 1e-320, -1e-320]]


@pytest.mark.parametrize("h, slope, expected", [
    pytest.param([[-1.0, -5.0]], 0.0, [[0.0, 0.0]], id="zero-slope"),
    pytest.param([[-2.0]], 0.2, [[-0.4]], id="definition"),
    pytest.param(_EDGES, 0.0, None, id="edges-slope-0"),
    pytest.param(_EDGES, 0.2, None, id="edges-slope-0.2"),
])
def test_leaky_relu_has_the_bits_of_the_two_branch_form(h, slope, expected):
    # the activation h * gain selects h or slope * h, and the backward pass
    # d * gain selects d or slope * d, bit for bit: the sign of a zero and
    # the nan of 0 * inf included
    h = np.array(h)
    d = np.flip(h)  # an upstream gradient that pairs every value with others
    with np.errstate(invalid="ignore"):
        activation, gain = leaky_relu(h, slope)
        assert activation.tobytes() == np.where(h > 0, h, slope * h).tobytes()
        assert (d * gain).tobytes() == np.where(h > 0, d, slope * d).tobytes()
    if expected is not None:
        assert np.array_equal(activation, expected)


def test_gradient_at_kink_uses_slope():
    # pre-activations 2, -2 and exactly 0: the derivative at 0 is pinned to
    # the slope for reproducibility
    z = np.array([[2.0, 0.0], [-2.0, 0.0], [1.0, 1.0]])
    theta = np.array([[1.0], [-1.0]])
    d_theta = np.empty(theta.shape)
    _, d_o = gcn_reg_core(z, theta, 0.2, np.full((3, 1), -1.0), d_theta)
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
        d_theta = np.empty(theta.shape)
        gcn_reg_core(z, theta, 0.2, w, d_theta)
        if float(np.min(np.abs(d_theta))) < 1e-5:
            # near-zero coordinates drown in finite-difference roundoff
            continue
        err = grad_check(
            lambda t: gcn_reg_core(z, t, 0.2, w, np.empty(t.shape))[0],
            theta, d_theta, eps=1e-6)
        assert err <= 1e-5
        checked += 1


def test_reg_loss_zero_at_fit():
    rng = make_rng(4)
    p = np.eye(4)
    x = np.abs(rng.standard_normal((4, 3))) + 0.1
    w_hat = x.copy()
    d_theta = np.empty((3, 3))
    loss, d_o = gcn_reg_core(propagate(p, x, [0, 1, 2, 3]), np.eye(3), 0.2, w_hat, d_theta)
    assert loss == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(d_theta, 0.0, atol=1e-15)
    assert np.allclose(d_o, 0.0, atol=1e-15)


def test_reg_loss_whatgrad_closed_form():
    rng = make_rng(5)
    p = rng.random((4, 4))
    p /= p.sum(axis=1, keepdims=True)
    x = rng.standard_normal((4, 3))
    theta = rng.standard_normal((3, 2))
    w_hat = rng.standard_normal((3, 2))
    rows = [0, 2, 3]
    h = p @ x @ theta
    o = np.where(h > 0, h, 0.2 * h)
    _, d_o = gcn_reg_core(propagate(p, x, rows), theta, 0.2, w_hat, np.empty(theta.shape))
    m = w_hat.shape[1]
    assert np.allclose(-d_o, (w_hat - o[rows]) / m, atol=1e-12)


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
        d_theta = np.empty(theta.shape)
        _, d_o = gcn_reg_core(z, theta, 0.2, w_hat, d_theta)
        d_w = -d_o
        if min(float(np.min(np.abs(d_theta))), float(np.min(np.abs(d_w)))) < 1e-5:
            continue
        err_t = grad_check(
            lambda t: gcn_reg_core(z, t, 0.2, w_hat, np.empty(t.shape))[0],
            theta, d_theta, eps=1e-6)
        err_w = grad_check(
            lambda w: gcn_reg_core(z, theta, 0.2, w, np.empty(theta.shape))[0],
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
        o = np.where(h > 0, h, slope * h)
        diff = o[known] - w
        history.append(0.5 / m * float(np.sum(diff * diff)))
        d_o = np.zeros_like(o)
        d_o[known] = diff / m
        d_theta = z.T @ (d_o * np.where(h > 0, 1.0, slope))
        v = schedule.momentum * v + d_theta
        theta -= step * v
    h = p @ x @ theta
    embeddings = np.where(h > 0, h, slope * h)[list(g.class_to_node)]
    return theta, embeddings, history


def _loop_steps(monkeypatch):
    """The calls GCN init makes to its core: one per loop step, none in
    the closed form."""
    calls = []

    def counted(*args):
        calls.append(1)
        return gcn_reg_core(*args)

    monkeypatch.setattr(gcn, "gcn_reg_core", counted)
    return calls


def _fit_loss(z_known, theta, slope, w):
    return gcn_reg_core(z_known, theta, slope, w, np.empty(theta.shape))[0]


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
        theta, emb, _ = _reference_gcn_init(g, words, w, schedule, make_rng(14))
        theta_new, emb_new = train_gcn_init(_z_class(g, words), w, schedule, make_rng(14))
        assert np.array_equal(theta_new, theta)
        assert np.array_equal(emb_new, emb)


def test_train_init_trains_under_the_schedule_slope():
    g = _toy_graph()
    x = make_rng(12).standard_normal((6, 2))  # 3 known rows, rank 2: the loop
    w = make_rng(13).standard_normal((g.known_class_count, 4))
    schedule = GcnSchedule(steps=300, slope=0.05)
    theta, emb, _ = _reference_gcn_init(g, x, w, schedule, make_rng(14))
    theta_new, emb_new = train_gcn_init(_z_class(g, x), w, schedule, make_rng(14))
    assert np.array_equal(theta_new, theta)
    assert np.array_equal(emb_new, emb)
    default, _ = train_gcn_init(_z_class(g, x), w, GcnSchedule(steps=300), make_rng(14))
    assert not np.array_equal(default, theta)


@pytest.mark.parametrize("graph", ["toy", "synth"])
def test_closed_form_is_the_converged_loop(graph):
    g, x = _graph_and_words(graph)
    k = g.known_class_count
    w = make_rng(13).standard_normal((k, 16))
    schedule = GcnSchedule()
    theta, emb, history = _reference_gcn_init(g, x, w, schedule, make_rng(14))
    assert history[-1] < 1e-25  # the 8000 reference steps have converged
    z = _z_class(g, x)
    theta_new, emb_new = train_gcn_init(z, w, schedule, make_rng(14))
    # two routes to one fixed point: entries are O(10) and cond(Z_k Z_k^T)
    # is below 100 on both graphs, so rounding alone allows about 2e-13
    assert np.allclose(theta_new, theta, rtol=0, atol=1e-12)
    assert np.allclose(emb_new, emb, rtol=0, atol=1e-12)
    # from one theta0: the core's loss there is the reference's first
    theta0 = init_theta(x.shape[1], 16, make_rng(14))
    assert _fit_loss(z[:k], theta0, schedule.slope, w) == history[0]


@pytest.mark.parametrize("graph", ["toy", "synth"])
@pytest.mark.parametrize("slope", [0.05, 0.2, 1.0])
def test_closed_form_fits_known_rows_to_rounding(monkeypatch, graph, slope):
    g, x = _graph_and_words(graph)
    k = g.known_class_count
    w = make_rng(13).standard_normal((k, 16))
    z = _z_class(g, x)
    steps = _loop_steps(monkeypatch)
    theta, emb = train_gcn_init(z, w, GcnSchedule(slope=slope), make_rng(14))
    assert not steps  # the closed form
    assert np.max(np.abs(emb[:k] - w)) <= 1e-12
    theta0 = init_theta(x.shape[1], 16, make_rng(14))
    fit = _fit_loss(z[:k], theta, slope, w)
    assert fit <= 1e-25 and fit < _fit_loss(z[:k], theta0, slope, w)
    # theta moved from theta0 only within the row space of Z_k, so the
    # unknown rows keep theta0's component outside it
    step = theta - theta0
    assert np.allclose(step, np.linalg.pinv(z[:k]) @ (z[:k] @ step), rtol=0, atol=1e-12)


def test_ill_conditioned_known_rows_run_the_loop(monkeypatch):
    # Z_k has full row rank, but cond(Z_k Z_k^T) is 4e6, past the
    # 0.2^2 * 0.5 * 500 / 0.03 = 333 that 500 loop steps resolve; the exact
    # solve would put rows of about 1e4 on the unknown classes
    rng = make_rng(15)
    z_known = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0], [0, 1.0, 1e-3, 0]])
    z_class = np.vstack([z_known, rng.standard_normal((2, 4))])
    w = rng.standard_normal((3, 5))
    schedule = GcnSchedule(steps=500)
    steps = _loop_steps(monkeypatch)
    _, emb = train_gcn_init(z_class, w, schedule, make_rng(16))
    assert len(steps) == schedule.steps
    assert np.abs(emb[3:]).max() < 10 * np.abs(w).max()


def test_reg_loss_bit_identical_to_full_forward():
    g, x = _synth_graph()
    p = normalized_adjacency(g)
    rows = list(g.class_to_node)
    rng = make_rng(15)
    theta = rng.standard_normal((x.shape[1], 16))
    w_hat = rng.standard_normal((len(rows), 16))
    z = p @ x
    h = z @ theta
    diff = np.where(h > 0, h, 0.2 * h)[rows] - w_hat
    d_o = np.zeros_like(h)
    d_o[rows] = diff / 16
    d_theta = np.empty(theta.shape)
    loss, d_rows = gcn_reg_core(propagate(p, x, rows), theta, 0.2, w_hat, d_theta)
    assert loss == 0.5 / 16 * float(np.sum(diff * diff))
    assert np.array_equal(d_theta, z.T @ (d_o * np.where(h > 0, 1.0, 0.2)))
    assert np.array_equal(d_rows, diff / 16)  # minus the gradient wrt w_hat


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


@pytest.mark.parametrize("slope", [0.2, 0.0])  # the closed form, then the loop
def test_train_init_rejects_fewer_class_rows_than_classifiers(slope):
    z_class = make_rng(5).standard_normal((2, 3))
    with pytest.raises(DimensionError, match="expected at least 3 class rows, got 2"):
        train_gcn_init(z_class, np.ones((3, 4)), GcnSchedule(slope=slope), make_rng(0))


def test_train_init_fits_known_rows():
    rng = make_rng(7)
    g = _toy_graph()
    x = rng.standard_normal((6, 8))
    w = rng.standard_normal((3, 4))
    z = _z_class(g, x)
    theta, emb = train_gcn_init(z, w, GcnSchedule(), make_rng(0))
    assert emb.shape == (4, 4)
    mse = float(np.mean((emb[:3] - w) ** 2))
    assert mse <= 1e-3
    theta0 = init_theta(8, 4, make_rng(0))
    assert _fit_loss(z[:3], theta, 0.2, w) < _fit_loss(z[:3], theta0, 0.2, w)


def test_train_init_zero_word_vectors(monkeypatch):
    g = _toy_graph()
    x = np.zeros((6, 8))
    w = make_rng(8).standard_normal((3, 4))
    z = _z_class(g, x)
    steps = _loop_steps(monkeypatch)
    theta, emb = train_gcn_init(z, w, GcnSchedule(steps=50), make_rng(0))
    assert len(steps) == 50  # Z_k has rank 0: the loop runs
    assert np.allclose(emb, 0.0)
    stuck = 0.5 * float(np.sum(w * w)) / w.shape[1]
    assert _fit_loss(z[:3], theta, 0.2, w) == pytest.approx(stuck)


def test_train_init_loop_refuses_its_first_non_finite_loss(monkeypatch):
    # slope 0 takes the loop; a theta0 of scale 1e200 squares past float64
    # in the first step's loss, which is refused before the step is taken
    # and without an overflow warning (which pytest makes an error)
    g = _toy_graph()
    x = make_rng(7).standard_normal((6, 8))
    w = make_rng(8).standard_normal((3, 4))
    steps = _loop_steps(monkeypatch)
    schedule = GcnSchedule(slope=0.0, init_scale=1e200)
    with pytest.raises(NonFiniteLossError, match=r"^non-finite loss in component 'gcn init'"):
        train_gcn_init(_z_class(g, x), w, schedule, make_rng(0))
    assert len(steps) == 1


@pytest.mark.parametrize("schedule, loop_steps", [
    (GcnSchedule(slope=0.0, steps=1, learning_rate=1e300), 1),
    (GcnSchedule(init_scale=1e200), 0),
], ids=["the loop's last update", "the closed form"])
def test_train_init_refuses_a_result_whose_residual_is_not_finite(monkeypatch, schedule,
                                                                  loop_steps):
    # each result is finite, but its known rows lie so far from W that the
    # squared residual overflows; the loop's one loss was tested before its
    # update, and the closed form tests none
    g = _toy_graph()
    x = make_rng(7).standard_normal((6, 8))
    w = make_rng(8).standard_normal((3, 4))
    steps = _loop_steps(monkeypatch)
    with pytest.raises(NonFiniteLossError,
                       match=r"^non-finite loss in component 'gcn init' \(inf\)$"):
        train_gcn_init(_z_class(g, x), w, schedule, make_rng(0))
    assert len(steps) == loop_steps


@pytest.mark.parametrize("schedule, low, high", [
    (GcnSchedule(slope=0.0, steps=1, init_scale=500.0), 4e3, 5e3),
    (GcnSchedule(slope=0.0, steps=1, init_scale=1000.0), 1.7e4, 1.9e4),
    (GcnSchedule(init_scale=1e100), 1e160, 1e180),
], ids=["the loop, inside", "the loop, past", "the closed form, past"])
def test_train_init_refuses_a_fit_past_100_times_the_rms_of_w(schedule, low, high):
    # the known rows' squared residual against W lies between low and high
    # times sum(W^2), finite in each case; past 1e4 (an RMS error 100 times
    # W's own) the fit failed. One loop step at slope 0 leaves theta0's
    # scale in the rows; the closed form's residual is rounding at 1e100
    g = _toy_graph()
    x = make_rng(7).standard_normal((6, 8))
    w = make_rng(8).standard_normal((3, 4))
    norm = float(np.square(w).sum())
    if high <= 1e4:
        _, emb = train_gcn_init(_z_class(g, x), w, schedule, make_rng(0))
        assert low < float(np.square(emb[:3] - w).sum()) / norm < high
        return
    with pytest.raises(NonFiniteLossError,
                       match=r"^loss past its bound in component 'gcn init' \(") as exc:
        train_gcn_init(_z_class(g, x), w, schedule, make_rng(0))
    assert low < exc.value.value / norm < high


@pytest.mark.parametrize("schedule, low, high", [
    (GcnSchedule(init_scale=1000.0), 30, 50),
    (GcnSchedule(slope=0.0, init_scale=10.0), 30, 40),
    (GcnSchedule(init_scale=1e8), 3e6, 4e6),
    (GcnSchedule(slope=0.0, init_scale=100.0), 200, 220),
], ids=["the closed form, inside", "the loop, inside", "the closed form, past",
        "the loop, past"])
def test_train_init_refuses_unknown_rows_past_100_times_max_w(schedule, low, high):
    # the largest unknown-row entry lies between low and high times max|W|;
    # the known rows fit within their own rule in each case, but past 100
    # the unknown rows keep theta0's scale, far from any known classifier
    g = _toy_graph()
    x = make_rng(7).standard_normal((6, 8))
    w = make_rng(8).standard_normal((3, 4))
    if high <= 100:
        _, emb = train_gcn_init(_z_class(g, x), w, schedule, make_rng(0))
        assert low < np.abs(emb[3:]).max() / np.abs(w).max() < high
        return
    with pytest.raises(NonFiniteLossError,
                       match=r"^loss past its bound in component 'gcn init' \(") as exc:
        train_gcn_init(_z_class(g, x), w, schedule, make_rng(0))
    assert low < exc.value.value < high


def test_train_init_deterministic():
    rng = make_rng(9)
    g = _toy_graph()
    x = rng.standard_normal((6, 8))
    w = rng.standard_normal((3, 4))
    t1, _ = train_gcn_init(_z_class(g, x), w, GcnSchedule(steps=200), make_rng(11))
    t2, _ = train_gcn_init(_z_class(g, x), w, GcnSchedule(steps=200), make_rng(11))
    assert np.array_equal(t1, t2)


def test_disconnected_zero_row_embedding_is_zero():
    # an unknown node with no edges and a zero word vector gets a zero row
    g = KnowledgeGraph(node_names=("a", "b", "c"), edges=((0, 1),),
                       class_to_node=(0, 1, 2), known_class_count=2)
    rng = make_rng(10)
    x = rng.standard_normal((3, 4))
    x[2] = 0.0
    w = rng.standard_normal((2, 3))
    _, emb = train_gcn_init(_z_class(g, x), w, GcnSchedule(steps=500), make_rng(0))
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
