import io
import re
from array import array

import numpy as np
import pytest

from opendomain import numkit
from opendomain.numkit import (
    MomentumSgd,
    load_matrix,
    make_rng,
    parse_tokens,
    read_rows,
    save_matrix,
    size,
    softmax_rows,
)
from opendomain.synth import _unlabeled

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
    opt = MomentumSgd([np.array([1.0, 2.0]), np.array([5.0])], lr=0.5, momentum=0.9)
    (w, b), (g_w, g_b) = opt.params, opt.grads
    g_w[...] = [1.0, -1.0]
    g_b[...] = 0.0
    opt.step()
    opt.step()
    # velocities g then 1.9 g: w moves by 0.5 * 2.9 g, in place
    assert np.allclose(w, [-0.45, 3.45])
    # a zero gradient: value and velocity untouched
    assert b[0] == 5.0
    assert opt.velocity[2] == 0.0


def test_momentum_sgd_lays_params_and_grads_end_to_end():
    a, b = np.arange(6.0).reshape(2, 3), np.array([7.0])
    opt = MomentumSgd([a, b], lr=1.0, momentum=0.0)
    (va, vb), (ga, gb) = opt.params, opt.grads
    assert va.shape == ga.shape == (2, 3) and vb.shape == gb.shape == (1,)
    # each set of views shares one buffer, in the order of the inputs
    assert va.base is vb.base and ga.base is gb.base
    assert va.base.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0]
    ga.base[:] = np.arange(1.0, 8.0)
    assert ga[1, 2] == 6.0 and gb[0] == 7.0
    opt.step()  # p -= g over the whole buffer: the views see it, the inputs do not
    assert va.tolist() == [[-1.0, -1.0, -1.0], [-1.0, -1.0, -1.0]] and vb[0] == 0.0
    assert a[1, 2] == 5.0 and b[0] == 7.0
    assert not np.shares_memory(va.base, ga.base)


def test_momentum_sgd_tests_every_gradient_in_one_call():
    opt = MomentumSgd([np.zeros((2, 3)), np.zeros(4)], lr=0.1, momentum=0.5)
    assert opt.grads_finite()
    for g, bad in [(opt.grads[0], np.inf), (opt.grads[1], np.nan)]:
        g[-1, ...] = bad
        assert not opt.grads_finite()
        g[...] = 0.0
    assert opt.grads_finite()


def test_momentum_sgd_step_gives_the_bits_of_its_formula():
    rng = make_rng(4)
    start = rng.standard_normal(7)
    opt = MomentumSgd([start[:3], start[3:]], lr=0.37, momentum=0.9)
    p, v = start.copy(), np.zeros(7)
    for _ in range(5):
        g = rng.standard_normal(7)
        opt.grads[0][...], opt.grads[1][...] = g[:3], g[3:]
        opt.step()
        v = 0.9 * v + g
        p = p - 0.37 * v
    assert np.concatenate(opt.params).tobytes() == p.tobytes()


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


def _read_row_by_row(fh, path, count, kinds):
    """The reader before its columns were converted in bulk: each row read,
    width-checked and converted by parse_tokens in turn. The oracle."""
    width = len(kinds)
    values = array("d")
    for i in range(count):
        parts = fh.readline().split()
        if len(parts) != width:
            raise ValueError(f"{path}: line {i + 2} has {len(parts)} fields, "
                             f"expected {width}")
        values.extend(parse_tokens(path, i + 2, kinds, parts))
    for line in fh:
        if line.strip():
            raise ValueError(f"{path}: data after the {count} declared rows")
    return np.array(values, dtype=np.float64).reshape(count, width)


def _label(token):
    value = int(token)
    if not 0 <= value < 4:
        raise ValueError(f"label {value} out of range for 4 classes")
    return value


# tokens at the edges of what Python's float parses (underscores, non-ASCII
# digits, hex, nan payloads, overflow), and integers that do not fit or parse
_ODD_FLOATS = ["1_0", "\uff11", "0x10", "nan(1)", "1e", "nan", "-inf", "1e999", "-0", "abc"]
_ODD_INTS = ["7", "-1", "1.5", "?", "\u0663", "1_0", "1" + "0" * 400]
_KIND_SETS = [(float,), (float,) * 3, (), (size, size, float), (_label, float, float),
              (_unlabeled, float), (int, float)]


def _seeded_table(seed):
    """(text after the header, declared count, kinds): a random table whose
    tokens, widths, length and tail are sometimes wrong."""
    rng = make_rng(seed)
    kinds = _KIND_SETS[seed % len(_KIND_SETS)]
    rows = int(rng.integers(0, 9))
    odd = rng.random() < 0.5  # about half of the tables are valid
    lines = []
    for _ in range(rows):
        tokens = []
        for kind in kinds:
            if kind is float:
                token = f"{rng.standard_normal() * 10.0 ** rng.integers(-3, 4):.17g}"
                pool = _ODD_FLOATS
            else:
                token = "?" if kind is _unlabeled else str(rng.integers(0, 4))
                pool = _ODD_INTS
            if odd and rng.random() < 0.1:
                token = pool[rng.integers(len(pool))]
            tokens.append(token)
        if odd and rng.random() < 0.05:
            tokens = tokens[:-1] if rng.random() < 0.5 else tokens + ["0"]
        lines.append(" ".join(tokens))
    count = rows
    tail = rng.integers(4) if odd else 0
    if tail == 1:  # a short file, or one whose header declares 10**12 rows
        # (not without columns: an empty line past the end reads as a row)
        count = rows + 1 if rng.random() < 0.5 or not kinds else 10**12
    elif tail == 2:
        lines.append("1 2")
    elif tail == 3:
        lines += ["", "  "]
    return "\n".join(lines) + "\n" * bool(lines), count, kinds


def _outcome(reader, text, count, kinds):
    try:
        values = reader(io.StringIO(text), "t.txt", count, kinds)
    except (ValueError, OverflowError) as exc:
        return type(exc).__name__, str(exc)
    return values.shape, values.tobytes()


@pytest.mark.parametrize("chunk", [1, 7, numkit._CHUNK_TOKENS])
def test_read_rows_gives_the_row_by_row_readers_array_or_error(monkeypatch, chunk):
    # each chunk's columns are converted in one call each, and its rows
    # walked again only on failure: the array's bits and the first error's
    # text are the ones a row-by-row read gives, whatever the chunk
    monkeypatch.setattr(numkit, "_CHUNK_TOKENS", chunk)
    outcomes = []
    for seed in range(400):
        text, count, kinds = _seeded_table(seed)
        got = _outcome(read_rows, text, count, kinds)
        assert got == _outcome(_read_row_by_row, text, count, kinds), (seed, text, count)
        outcomes.append(got[0])
    errors = [o for o in outcomes if isinstance(o, str)]
    assert 100 < len(errors) < 300 and "OverflowError" in errors


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
