import numpy as np
import pytest

from opendomain.config import ExperimentConfig, LossWeights, loss_w
from opendomain.losses import (
    balance_core,
    check_labels,
    cls_core,
    sgmd_core,
)
from opendomain.numkit import make_rng, softmax_rows

from gradcheck import grad_check, through_head
from joint_reference import classifier_responses, on_copy, softmax_backward


def _random_head(rng, l_t=None, l_s=None, m=None):
    """(head, known): an l_t x m head whose first l_s rows are known."""
    l_t = l_t or int(rng.integers(2, 7))
    l_s = l_s or int(rng.integers(1, l_t))
    m = m or int(rng.integers(1, 6))
    return rng.standard_normal((l_t, m)), l_s


def test_loss_weights_validation():
    with pytest.raises(ValueError):
        LossWeights(lambda_d=-0.1)
    with pytest.raises(ValueError):
        LossWeights(w=1.0)
    with pytest.raises(ValueError):
        LossWeights(epsilon=0.0)
    with pytest.raises(ValueError, match=r"^loss\.w must be a float, got '0\.5'$"):
        LossWeights(w="0.5")
    # a NaN tau closes the SGMD gate for every pair without a word
    for bad in ({"tau": float("nan")}, {"tau": float("inf")},
                {"tau": -float("inf")}, {"epsilon": float("nan")},
                {"epsilon": float("inf")}):
        with pytest.raises(ValueError):
            LossWeights(**bad)


def test_responses_zero_weights_uniform():
    probs = classifier_responses(make_rng(0).standard_normal((5, 3)), np.zeros((4, 3)))
    assert np.allclose(probs, 0.25)


def test_responses_rows_sum_to_one():
    rng = make_rng(1)
    head, _ = _random_head(rng)
    probs = classifier_responses(rng.standard_normal((6, head.shape[1])), head)
    assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-12


def test_responses_closed_form():
    probs = classifier_responses(np.array([[1.0]]), np.array([[0.0], [np.log(3.0)]]))
    assert np.allclose(probs, [[0.25, 0.75]], atol=1e-12)


def test_sgmd_gate_closed_above_one():
    rng = make_rng(2)
    fs = rng.standard_normal((4, 3))
    ft = rng.standard_normal((4, 3))
    ps = np.full((4, 5), 0.2)
    d_fs = np.empty_like(fs)
    loss, gate = sgmd_core(fs, ft, ps, ps, 1.0, d_fs)
    assert loss == 0.0
    assert not gate.any()
    assert np.allclose(d_fs, 0.0)


def test_sgmd_equal_features_zero():
    rng = make_rng(3)
    f = rng.standard_normal((3, 2))
    ps = np.full((3, 4), 0.25)
    loss, _ = sgmd_core(f, f.copy(), ps, ps, 0.0, np.empty_like(f))
    assert loss == 0.0


def test_sgmd_single_pair_example():
    fs = np.array([[0.0, 0.0]])
    ft = np.array([[3.0, 4.0]])
    # responses with inner product 0.8, above the 0.5 threshold
    ps = np.array([[0.8944271909999159, 0.4472135954999579]])
    assert np.dot(ps[0], ps[0]) == pytest.approx(1.0)
    pt = 0.8 * ps
    d_fs = np.empty_like(fs)
    loss, gate = sgmd_core(fs, ft, ps, pt, 0.5, d_fs)
    assert gate.all()
    assert loss == pytest.approx(12.5)
    assert np.allclose(d_fs, [[-3.0, -4.0]])  # the gradient wrt ft is its negation


def test_sgmd_monotone_in_tau():
    rng = make_rng(4)
    fs = rng.standard_normal((6, 3))
    ft = rng.standard_normal((6, 3))
    from opendomain.numkit import softmax_rows
    ps = softmax_rows(rng.standard_normal((6, 4)))
    pt = softmax_rows(rng.standard_normal((6, 4)))
    values = [sgmd_core(fs, ft, ps, pt, tau, np.empty_like(fs))[0]
              for tau in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)]
    assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))


def test_sgmd_gradients():
    rng = make_rng(5)
    from opendomain.numkit import softmax_rows
    for _ in range(100):
        n = int(rng.integers(1, 8))
        m = int(rng.integers(1, 5))
        fs = rng.standard_normal((n, m))
        ft = rng.standard_normal((n, m))
        ps = softmax_rows(rng.standard_normal((n, 4)))
        pt = softmax_rows(rng.standard_normal((n, 4)))
        d_fs = np.empty_like(fs)
        _, gate = sgmd_core(fs, ft, ps, pt, 0.2, d_fs)
        if not gate.any():
            continue
        err = grad_check(lambda f: sgmd_core(f, ft, ps, pt, 0.2, np.empty_like(f))[0],
                         fs, d_fs, eps=1e-6)
        assert err <= 1e-5
        err = grad_check(lambda f: sgmd_core(fs, f, ps, pt, 0.2, np.empty_like(f))[0],
                         ft, -d_fs, eps=1e-6)
        assert err <= 1e-5


def _mass_head_features(mass, l_t=4, l_s=2):
    """One instance's logits whose unknown probability mass equals `mass`."""
    known = np.log((1.0 - mass) / l_s) if mass < 1 else -np.inf
    unknown = np.log(mass / (l_t - l_s)) if mass > 0 else -np.inf
    logits = np.array([[known] * l_s + [unknown] * (l_t - l_s)])
    return logits


def test_vanilla_balance_values():
    # unknown mass 0.25 -> loss = -log 0.25 = ln 4
    f = _mass_head_features(0.25)
    loss = balance_core(softmax_rows(f), 2, 0.5, 1e-12, vanilla=True)
    assert loss == pytest.approx(np.log(4.0), abs=1e-9)


def test_vanilla_balance_full_mass_zero_loss():
    f = np.array([[-50.0, -50.0, 10.0, 10.0]])
    loss = balance_core(softmax_rows(f), 2, 0.5, 1e-12, vanilla=True)
    assert loss == pytest.approx(0.0, abs=1e-12)


def test_vanilla_balance_clamp():
    # unknown mass numerically zero: clamped to -log(eps), finite
    f = np.array([[60.0, 60.0, -60.0, -60.0]])
    d_logits = softmax_rows(f)
    loss = balance_core(d_logits, 2, 0.5, eps=1e-12, vanilla=True)
    assert loss == pytest.approx(-np.log(1e-12))
    assert np.isfinite(loss)
    assert np.allclose(d_logits, 0.0)


def test_vanilla_balance_unbounded_growth():
    # the runaway that motivates the limited form: loss grows as the
    # unknown mass is driven toward zero, up to the clamp ceiling
    losses = []
    for scale in (1.0, 4.0, 8.0, 12.0):
        f = np.array([[scale, scale, -scale, -scale]])
        loss = balance_core(softmax_rows(f), 2, 0.5, eps=1e-12, vanilla=True)
        losses.append(loss)
    assert all(b > a for a, b in zip(losses, losses[1:]))
    assert losses[-1] <= -np.log(1e-12) + 1e-9


def _limited(mass, w):
    """(loss, logit gradient) of the limited balance on one row whose
    unknown mass is ``mass``."""
    return on_copy(balance_core, softmax_rows(_mass_head_features(mass)), 2, w, 1e-12,
                   vanilla=False)


def test_limited_balance_minimum():
    w = 1.0 / 3.0
    value, d_logits = _limited(w, w)
    assert value == pytest.approx(2 * w, abs=1e-12)
    assert np.max(np.abs(d_logits)) == pytest.approx(0.0, abs=1e-12)


def test_limited_balance_hand_value():
    assert _limited(0.5, 0.2)[0] == pytest.approx(0.58)


def test_limited_balance_convexity():
    w = 0.3
    base = _limited(w, w)[0]
    for r in np.linspace(0.01, 1.0, 50):
        assert _limited(r, w)[0] >= base - 1e-12


def test_balance_form_is_never_read_off_w():
    # a w of None is a config's derived default, not the vanilla form: the
    # core takes its form only from its required fifth argument
    cfg = ExperimentConfig()
    d = softmax_rows(_mass_head_features(1.0 / 3.0))
    with pytest.raises(TypeError):
        balance_core(d, 2, cfg.loss.w, 0.05)
    w = loss_w(cfg)
    assert balance_core(d, 2, w, 0.05, cfg.vanilla_balance) == pytest.approx(2 * w)


def test_limited_balance_loss_at_least_2w():
    rng = make_rng(6)
    for _ in range(50):
        head, known = _random_head(rng)
        f = rng.standard_normal((5, head.shape[1]))
        w = float(rng.uniform(0.05, 0.95))
        loss = balance_core(classifier_responses(f, head), known, w, eps=1e-12, vanilla=False)
        assert loss >= 2 * w - 1e-12


def test_balance_gradients():
    rng = make_rng(7)
    checked = 0
    while checked < 100:
        head, known = _random_head(rng)
        n = int(rng.integers(1, 8))
        f = rng.standard_normal((n, head.shape[1]))
        w = float(rng.uniform(0.1, 0.9))
        limited = lambda p: on_copy(balance_core, p, known, w, 1e-12, vanilla=False)
        vanilla = lambda p: on_copy(balance_core, p, known, w, 1e-12, vanilla=True)
        loss, d_f, d_w = through_head(limited, f, head)
        vloss, vd_f, vd_w = through_head(vanilla, f, head)
        grads = [
            (lambda a: through_head(limited, a, head)[0], f, d_f),
            (lambda a: through_head(limited, f, a)[0], head, d_w),
            (lambda a: through_head(vanilla, a, head)[0], f, vd_f),
            (lambda a: through_head(vanilla, f, a)[0], head, vd_w),
        ]
        if min(float(np.min(np.abs(g))) for _, _, g in grads) < 1e-5:
            continue
        for fn, x, analytic in grads:
            assert grad_check(fn, x, analytic, eps=1e-6) <= 1e-5
        checked += 1


def test_cls_loss_perfect_predictions():
    f = np.array([[30.0, 0.0], [0.0, 30.0]])
    loss = cls_core(classifier_responses(f, np.eye(2)), np.array([0, 1]))
    assert loss == pytest.approx(0.0, abs=1e-9)


def test_cls_loss_uniform_predictions():
    l_t = 5
    f = make_rng(8).standard_normal((4, 3))
    loss = cls_core(classifier_responses(f, np.zeros((l_t, 3))), np.array([0, 1, 0, 1]))
    assert loss == pytest.approx(np.log(l_t))


def test_cls_loss_label_out_of_range():
    # responses over 2 classes: a label names one of their columns. The cls
    # core checks nothing; a run checks its labels once, at its entry
    for label in (2, -1):
        with pytest.raises(IndexError):
            check_labels([label], 2)
    # one class: label 0 is its only column, and no labels need none
    assert check_labels([0, 0], 1).tolist() == [0, 0]
    assert check_labels([], 1).tolist() == []


def test_cls_loss_gradients():
    rng = make_rng(9)
    checked = 0
    while checked < 100:
        head, known = _random_head(rng)
        n = int(rng.integers(1, 8))
        f = rng.standard_normal((n, head.shape[1]))
        labels = rng.integers(0, known, n)
        term = lambda p: on_copy(cls_core, p, labels)
        _, d_f, d_w = through_head(term, f, head)
        if min(float(np.min(np.abs(d_f))), float(np.min(np.abs(d_w)))) < 1e-5:
            # near-zero coordinates drown in finite-difference roundoff
            continue
        err = grad_check(lambda a: through_head(term, a, head)[0], f, d_f,
                         eps=1e-6)
        assert err <= 1e-5
        err = grad_check(lambda a: through_head(term, f, a)[0], head, d_w, eps=1e-6)
        assert err <= 1e-5
        checked += 1


def test_softmax_backward_matches_finite_difference():
    rng = make_rng(10)
    from opendomain.numkit import softmax_rows
    logits = rng.standard_normal((3, 4))
    target = rng.standard_normal((3, 4))

    def f(z):
        return float(np.sum(softmax_rows(z) * target))

    probs = softmax_rows(logits)
    analytic = softmax_backward(probs, target)
    assert grad_check(f, logits, analytic, eps=1e-6) <= 1e-5

