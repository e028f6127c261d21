import io
import re

import numpy as np
import pytest

from opendomain.numkit import (
    MomentumSgd,
    flat_views,
    leaky_relu,
    load_matrix,
    make_rng,
    read_rows,
    save_matrix,
    size,
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
    flat, (w, b) = flat_views([np.array([1.0, 2.0]), np.array([5.0])])
    opt = MomentumSgd(flat, lr=0.5, momentum=0.9)
    opt.step(np.array([1.0, -1.0, 0.0]))
    opt.step(np.array([1.0, -1.0, 0.0]))
    # velocities g then 1.9 g: w moves by 0.5 * 2.9 g, in place
    assert np.allclose(w, [-0.45, 3.45])
    # a zero gradient: value and velocity untouched
    assert b[0] == 5.0
    assert opt.velocity[2] == 0.0


def test_flat_views_copy_into_one_buffer():
    a, b = np.arange(6.0).reshape(2, 3), np.array([7.0])
    flat, (va, vb) = flat_views([a, b])
    assert flat.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0]
    assert va.shape == (2, 3) and vb.shape == (1,)
    flat += 1.0  # the views see the buffer, the inputs do not
    assert va[1, 2] == 6.0 and vb[0] == 8.0 and a[1, 2] == 5.0


def test_rng_stream_equality():
    a = make_rng(12345).standard_normal(10_000)
    b = make_rng(12345).standard_normal(10_000)
    assert np.array_equal(a, b)


def test_matrix_roundtrip(tmp_path):
    m = make_rng(9).standard_normal((7, 3)) * 1e6
    path = tmp_path / "m.mat"
    save_matrix(path, m)
    assert np.array_equal(load_matrix(path), m)


def test_read_rows_takes_exactly_the_declared_table():
    rows = read_rows(io.StringIO("1 2.5\n3 4\n\n  \n"), "t.txt", 2, (int, float))
    assert rows.dtype == np.float64 and rows.tolist() == [[1.0, 2.5], [3.0, 4.0]]
    assert read_rows(io.StringIO(""), "t.txt", 0, (float,) * 3).shape == (0, 3)
    bad = [("1\n", 1, 2), ("1 2 3\n", 1, 2), ("1 2\n", 2, 2),  # wrong width
           ("1 2\n3 4\n", 1, 2)]  # a row after the declared ones
    for text, count, width in bad:
        with pytest.raises(ValueError, match="t.txt: "):
            read_rows(io.StringIO(text), "t.txt", count, (float,) * width)
    # a token that does not convert is named with its line
    for text, kinds, where in [
            ("1 2\n3 abc\n", (float, float), "line 3: could not convert string to float"),
            ("1.5 2\n", (int, float), "line 2: invalid literal for int()")]:
        with pytest.raises(ValueError, match=re.escape(f"t.txt: {where}")):
            read_rows(io.StringIO(text), "t.txt", text.count("\n"), kinds)


def test_read_rows_names_the_earliest_bad_line_across_chunks():
    # each row converts as it is read, so the first bad line is the one named:
    # a bad float before a short row, and a bad float far into a long table
    good = [f"{i} {i}.5" for i in range(300)]
    rows = read_rows(io.StringIO("\n".join(good) + "\n"), "t.txt", 300, (int, float))
    assert rows[299].tolist() == [299.0, 299.5]
    for lines, kinds, where in [
            (good[:2] + ["1 x"] + good[3:5] + ["7"], (float, float), "line 4: could not"),
            (good[:2] + ["1 x"] + good[3:5] + ["7"], (int, float), "line 4: could not"),
            (good[:280] + ["1 2e"] + good[281:], (int, float), "line 282: could not"),
            (good[:2] + ["-1 2"], (size, float), "line 4: -1 is not a count")]:
        with pytest.raises(ValueError, match=re.escape(f"t.txt: {where}")):
            read_rows(io.StringIO("\n".join(lines) + "\n"), "t.txt", len(lines), kinds)


@pytest.mark.parametrize("header, error", [
    ("x 2", "invalid literal"), ("2 2.0", "invalid literal"),
    ("-1 2", "-1 is not a count"), ("0 -2", "-2 is not a count"),
    (f"{2**53} 1", f"{2**53} is not a count"),
])
def test_load_matrix_names_the_file_of_a_bad_header(tmp_path, header, error):
    path = tmp_path / "m.mat"
    path.write_text(header + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: line 1: {error}")):
        load_matrix(path)


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
