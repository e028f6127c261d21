import numpy as np
import pytest

from opendomain.numkit import (
    MomentumSgd,
    leaky_relu,
    load_matrix,
    make_rng,
    save_matrix,
    softmax_rows,
)

from gradcheck import grad_check


def test_softmax_uniform():
    out = softmax_rows(np.full((2, 4), 3.7))
    assert np.allclose(out, 0.25)


def test_softmax_closed_form():
    out = softmax_rows(np.array([[0.0, np.log(3.0)]]))
    assert np.allclose(out, [[0.25, 0.75]], atol=1e-12)


def test_softmax_large_entry_stable():
    out = softmax_rows(np.array([[1000.0, 0.0, 0.0]]))
    assert np.all(np.isfinite(out))
    assert abs(out[0, 0] - 1.0) < 1e-12
    assert out[0, 1] < 1e-12


def test_softmax_rows_sum_to_one():
    rng = make_rng(3)
    m = rng.standard_normal((50, 6)) * 10
    out = softmax_rows(m)
    assert np.max(np.abs(out.sum(axis=1) - 1.0)) < 1e-12
    assert np.all(out > 0)
    assert np.all(out <= 1)


def test_leaky_relu_zero_slope():
    assert np.array_equal(leaky_relu(np.array([[-1.0, -5.0]]), 0.0),
                          np.zeros((1, 2)))


def test_leaky_relu_definition():
    assert leaky_relu(np.array([[-2.0]]), 0.2)[0, 0] == pytest.approx(-0.4)


# the finite-difference checker the other suites rely on (tests/gradcheck.py)

def test_grad_check_quadratic():
    x = make_rng(0).standard_normal((3, 3))
    err = grad_check(lambda m: 0.5 * float(np.sum(m * m)), x, x, eps=1e-6)
    assert err <= 1e-7


def test_grad_check_sum():
    x = make_rng(1).standard_normal((2, 4))
    err = grad_check(lambda m: float(np.sum(m)), x, np.ones_like(x), eps=1e-3)
    assert err <= 1e-10


def test_grad_check_detects_wrong_gradient():
    x = make_rng(2).standard_normal((3, 2)) + 3.0
    err = grad_check(lambda m: 0.5 * float(np.sum(m * m)), x, 2.0 * x, eps=1e-6)
    assert abs(err - 0.5) < 1e-3


def test_momentum_sgd_hand_example():
    w = np.array([1.0, 2.0])
    b = np.array([5.0])
    opt = MomentumSgd({"w": w, "b": b}, lr=0.5, momentum=0.9)
    opt.step({"w": np.array([1.0, -1.0])})
    opt.step({"w": np.array([1.0, -1.0])})
    # velocities g then 1.9 g: w moves by 0.5 * 2.9 g, in place
    assert np.allclose(w, [-0.45, 3.45])
    # no gradient: value and velocity untouched
    assert b[0] == 5.0
    assert np.array_equal(opt.velocity["b"], [0.0])


def test_rng_stream_equality():
    a = make_rng(12345).standard_normal(10_000)
    b = make_rng(12345).standard_normal(10_000)
    assert np.array_equal(a, b)


def test_matrix_roundtrip(tmp_path):
    m = make_rng(9).standard_normal((7, 3)) * 1e6
    path = tmp_path / "m.mat"
    save_matrix(path, m)
    assert np.array_equal(load_matrix(path), m)


def test_load_matrix_rejects_trailing_rows(tmp_path):
    path = tmp_path / "m.mat"
    save_matrix(path, np.eye(2))
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("\n  \n")  # trailing blank lines are fine
    assert np.array_equal(load_matrix(path), np.eye(2))
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("9 9\n")
    with pytest.raises(ValueError):
        load_matrix(path)
