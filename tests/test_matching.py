import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import linear_sum_assignment

from assignment_reference import reference_solve
from opendomain import matching
from opendomain.matching import (
    _L1_FLOATS,
    MatchedPairs,
    _solve,
    hungarian,
    match_domains,
    pairwise_l1,
    partition_folds,
    save_pairs,
)
from opendomain.numkit import DimensionError, make_rng
from opendomain.synth import SynthConfig, generate
from pairs_file import load_pairs


def brute_force_cost(costs):
    """Exhaustive minimum over all assignments of the smaller side."""
    costs = np.asarray(costs, float)
    n, m = costs.shape
    if n > m:
        return brute_force_cost(costs.T)
    best = np.inf
    for cols in itertools.permutations(range(m), n):
        best = min(best, sum(costs[i, j] for i, j in enumerate(cols)))
    return best


def test_pairwise_l1_same_row():
    f = np.array([[1.0, -2.0]])
    assert pairwise_l1(f, f)[0, 0] == 0.0


def test_pairwise_l1_hand_example():
    cm = pairwise_l1(np.array([[0.0, 0.0]]), np.array([[1.0, -2.0]]))
    assert cm[0, 0] == pytest.approx(3.0)


def test_pairwise_l1_matches_double_loop():
    rng = make_rng(0)
    fs = rng.standard_normal((5, 3))
    ft = rng.standard_normal((4, 3))
    cm = pairwise_l1(fs, ft)
    for i in range(5):
        for j in range(4):
            assert cm[i, j] == pytest.approx(
                np.sum(np.abs(fs[i] - ft[j])))


# the widths cover each way numpy's sum adds d terms: one by one under 8,
# eight running sums up to 128, halves split at a multiple of 8 above
_L1_WIDTHS = (1, 7, 8, 9, 15, 16, 17, 128, 129, 200)
_BLOCK = 4  # rows per block, set through the temporary's float budget


@pytest.mark.parametrize("n, d", [
    (0, 5), (1, 5), (_BLOCK - 1, 5), (_BLOCK, 5), (_BLOCK + 1, 5),
    (2 * _BLOCK + 3, 1),
] + [(2 * _BLOCK + 1, d) for d in _L1_WIDTHS],
    ids=["0 rows", "1 row", "block-1", "block", "block+1", "d=1"]
    + [f"width {d}" for d in _L1_WIDTHS])
def test_pairwise_l1_blocks_equal_one_broadcast(monkeypatch, n, d):
    monkeypatch.setattr(matching, "_L1_FLOATS", _BLOCK * d * 23)
    rng = make_rng(n)
    fs = rng.standard_normal((n, d))
    ft = rng.standard_normal((23, d + 2))[:, 1:-1]  # a column slice: not contiguous
    assert np.array_equal(pairwise_l1(fs, ft),
                          np.abs(fs[:, None, :] - ft[None, :, :]).sum(axis=2))


@pytest.mark.parametrize("d", [6, 16, 129])
def test_pairwise_l1_bits_do_not_depend_on_the_rows_per_block(monkeypatch, d):
    rng = make_rng(d)
    fs, ft = rng.standard_normal((13, d)), rng.standard_normal((11, d))
    monkeypatch.setattr(matching, "_L1_FLOATS", 13 * d * 11)
    outs = []
    for rows in range(1, 14):
        monkeypatch.setattr(matching, "_L1_ROWS", rows)
        outs.append(pairwise_l1(fs, ft).tobytes())
    assert len(set(outs)) == 1


def test_pairwise_l1_temporary_stays_small():
    rng = make_rng(9)
    fs = rng.standard_normal((400, 16))
    ft = rng.standard_normal((600, 16))
    tracemalloc.start()
    try:
        out = pairwise_l1(fs, ft)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 1.9 MB output, one block of at most _L1_FLOATS floats (10 rows,
    # 0.77 MB), a copy of ft (77 kB) and numpy's ufunc buffers (about 120 kB),
    # not the 31 MB n x m x d temporary
    assert peak < out.nbytes + 8 * _L1_FLOATS + 8 * 16 * 600 + 256 * 2**10


def test_pairwise_l1_block_rows_are_capped():
    # a fold of train's shape: 16 rows a block (246 kB), not the 50 that
    # would fit _L1_FLOATS and raise a run's peak memory
    rng = make_rng(10)
    fs, ft = rng.standard_normal((80, 16)), rng.standard_normal((120, 16))
    tracemalloc.start()
    try:
        out = pairwise_l1(fs, ft)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < out.nbytes + 8 * 16 * (matching._L1_ROWS + 1) * 120 + 256 * 2**10


def test_pairwise_l1_overflow_is_inf_without_warning():
    fs = np.array([[1e308, 0.0], [1e308, 1e308]])
    ft = np.array([[-1e308, 0.0], [0.0, 0.0]])
    assert np.array_equal(pairwise_l1(fs, ft), [[np.inf, 1e308], [np.inf, np.inf]])


def test_pairwise_l1_dimension_mismatch():
    with pytest.raises(DimensionError):
        pairwise_l1(np.zeros((2, 3)), np.zeros((2, 4)))


def _pairs(rows, cols):
    return tuple(zip(rows.tolist(), cols.tolist()))


def test_hungarian_diagonal():
    costs = np.ones((3, 3)) - np.eye(3)
    rows, cols = hungarian(costs)
    assert _pairs(rows, cols) == ((0, 0), (1, 1), (2, 2))
    assert costs[rows, cols].sum() == 0.0


def test_hungarian_spec_example():
    costs = [[4, 1, 3], [2, 0, 5], [3, 2, 2]]
    rows, cols = hungarian(costs)
    assert np.asarray(costs, float)[rows, cols].sum() == pytest.approx(5.0)
    assert sorted(_pairs(rows, cols)) == [(0, 1), (1, 0), (2, 2)]


def test_hungarian_rectangular_single_row():
    costs = np.array([[5.0, 3.0]])
    rows, cols = hungarian(costs)
    assert _pairs(rows, cols) == ((0, 1),)
    assert costs[rows, cols].sum() == pytest.approx(3.0)


def test_hungarian_against_brute_force():
    rng = make_rng(1)
    for _ in range(200):
        n = int(rng.integers(1, 8))
        costs = rng.random((n, n)) * 10
        assert costs[hungarian(costs)].sum() == pytest.approx(
            brute_force_cost(costs), abs=1e-9)


def test_hungarian_rectangular_against_brute_force():
    rng = make_rng(2)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 6))
        costs = rng.random((n, m)) * 10
        rows, cols = hungarian(costs)
        assert len(rows) == min(n, m)
        assert costs[rows, cols].sum() == pytest.approx(brute_force_cost(costs), abs=1e-9)


def test_hungarian_row_shift_invariance():
    rng = make_rng(3)
    costs = rng.random((5, 5)) * 4
    rows, cols = hungarian(costs)
    shifted = costs.copy()
    shifted[2] += 3.7
    shifted[:, 4] += 1.3
    shifted_total = shifted[hungarian(shifted)].sum()
    # the original matching stays optimal for the shifted matrix
    original_on_shifted = sum(shifted[i, j] for i, j in zip(rows, cols))
    assert shifted_total == pytest.approx(original_on_shifted, abs=1e-9)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-300])
def test_hungarian_refuses_non_finite_or_negative_costs(bad):
    costs = np.ones((3, 4))
    costs[1, 2] = bad
    with pytest.raises(ValueError, match="^costs must be finite and non-negative$"):
        hungarian(costs)


@pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
def test_hungarian_of_no_rows_or_columns_is_empty(shape):
    rows, cols = hungarian(np.empty(shape))
    assert rows.shape == cols.shape == (0,)
    assert rows.dtype.kind == cols.dtype.kind == "i"


def test_partition_single_fold():
    source_folds, target_folds = partition_folds(4, 6, 1, make_rng(0))
    assert sorted(source_folds[0]) == [0, 1, 2, 3]
    assert sorted(target_folds[0]) == list(range(6))


def test_partition_five_even_folds():
    source_folds, target_folds = partition_folds(10, 10, 5, make_rng(0))
    assert all(len(f) == 2 for f in source_folds)
    assert all(len(f) == 2 for f in target_folds)
    assert sorted(i for f in source_folds for i in f) == list(range(10))


def test_partition_sizes_within_one():
    source_folds, target_folds = partition_folds(11, 13, 4, make_rng(7))
    sizes_s = [len(f) for f in source_folds]
    sizes_t = [len(f) for f in target_folds]
    assert max(sizes_s) - min(sizes_s) <= 1
    assert max(sizes_t) - min(sizes_t) <= 1


def test_partition_deterministic():
    a = partition_folds(9, 9, 3, make_rng(5))
    b = partition_folds(9, 9, 3, make_rng(5))
    for folds_a, folds_b in zip(a, b):
        assert all(np.array_equal(x, y) for x, y in zip(folds_a, folds_b))


def test_partition_k_out_of_range():
    with pytest.raises(ValueError):
        partition_folds(3, 10, 4, make_rng(0))


def test_match_single_fold_equals_global_hungarian():
    rng = make_rng(4)
    fs = rng.standard_normal((6, 3))
    ft = rng.standard_normal((8, 3))
    src, tgt, _, total = match_domains(fs, ft, 1, make_rng(0))
    costs = pairwise_l1(fs, ft)
    rows, cols = hungarian(costs)
    assert total == pytest.approx(costs[rows, cols].sum())
    assert sorted(_pairs(src, tgt)) == sorted(_pairs(rows, cols))


def test_fold_union_cost_at_least_global():
    rng = make_rng(5)
    for trial in range(10):
        fs = rng.standard_normal((10, 4))
        ft = rng.standard_normal((10, 4))
        global_cost = match_domains(fs, ft, 1, make_rng(trial))[3]
        fold_cost = match_domains(fs, ft, 2, make_rng(trial))[3]
        assert fold_cost >= global_cost - 1e-9


def test_fold_matching_disjoint_indices():
    rng = make_rng(6)
    fs = rng.standard_normal((12, 3))
    ft = rng.standard_normal((15, 3))
    src, tgt, _, _ = match_domains(fs, ft, 3, make_rng(0))
    srcs = src.tolist()
    tgts = tgt.tolist()
    assert len(set(srcs)) == len(srcs)
    assert len(set(tgts)) == len(tgts)


def test_pairs_roundtrip(tmp_path):
    mp = MatchedPairs(pairs=((0, 3), (1, 0), (4, 2)), total_cost=7.25,
                      costs=(1.5, 0.1, 5.65))
    path = tmp_path / "pairs.txt"
    save_pairs(path, mp)
    loaded = load_pairs(path)
    assert loaded.pairs == mp.pairs
    assert loaded.total_cost == mp.total_cost
    assert loaded.costs == mp.costs


def test_load_pairs_rejects_trailing_rows(tmp_path):
    mp = MatchedPairs(pairs=((0, 3), (1, 0)), total_cost=1.6, costs=(1.5, 0.1))
    path = tmp_path / "pairs.txt"
    save_pairs(path, mp)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("\n")
    assert load_pairs(path).pairs == mp.pairs
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("5 5 1.0\n")
    with pytest.raises(ValueError):
        load_pairs(path)


@pytest.mark.parametrize("text, line", [
    ("pairs 1 total x\n0 3 1.5\n", 1),
    ("pairs x total 1.5\n0 3 1.5\n", 1),
    ("pairs 2 total 1.5\n0 3 1.5\n1 y 0.0\n", 3),
    ("pairs 1 total 1.5\n0.5 3 1.5\n", 2),
    ("pairs 1 total 1.5\n-1 3 1.5\n", 2),
    (f"pairs 1 total 1.5\n{2**64} 3 1.5\n", 2),
], ids=["total", "count", "target id", "fractional id", "negative id", "id past int64"])
def test_load_pairs_names_the_file_and_line_of_a_bad_token(tmp_path, text, line):
    path = tmp_path / "pairs.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"pairs.txt: line {line}: "):
        load_pairs(path)


def test_match_carries_per_pair_costs():
    # more sources than targets: hungarian solves the transpose and re-sorts
    rng = make_rng(8)
    fs = rng.standard_normal((9, 4))
    ft = rng.standard_normal((7, 4))
    src, tgt, costs, _ = match_domains(fs, ft, 2, make_rng(0))
    assert len(costs) == len(src)
    for s, t, cost in zip(src, tgt, costs):
        assert cost == pytest.approx(np.abs(fs[s] - ft[t]).sum(), rel=1e-12)
    with pytest.raises(ValueError):
        MatchedPairs(pairs=((0, 1),), total_cost=1.0, costs=(1.0, 2.0))


@st.composite
def _cost_arrays(draw):
    shape = (draw(st.integers(1, 300)), draw(st.integers(1, 300)))
    # small integers force ties between optimal assignments
    elements = draw(st.sampled_from([
        st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False),
        st.integers(0, 3).map(float),
    ]))
    return draw(hnp.arrays(np.float64, shape, elements=elements))


@st.composite
def _seeded_cost_arrays(draw):
    """(costs, integers): floats in [0, 100), or the integers 0..3 that
    force exact ties between optimal matchings, filled by numpy from a
    drawn seed. hypothesis would draw a 120 x 150 array element by element
    in a third of a second, and its arrays repeat one float value, on whose
    rounding-level ties the two solvers can differ (both optimal, which
    test_hungarian_equals_scipy_optimum checks)."""
    shape = (draw(st.integers(1, 120)), draw(st.integers(1, 150)))
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return rng.random(shape) * 100.0, False
    return rng.integers(0, 4, shape).astype(float), True


@settings(max_examples=10, deadline=None)
@given(_cost_arrays())
def test_hungarian_equals_scipy_optimum(costs):
    found = hungarian(costs)
    pairs = _pairs(*found)
    rows, cols = linear_sum_assignment(costs)
    assert costs[found].sum() == pytest.approx(costs[rows, cols].sum(), rel=0, abs=1e-9)
    assert len(pairs) == min(costs.shape)
    assert len({s for s, _ in pairs}) == len({t for _, t in pairs}) == len(pairs)


# Row 1's search scans row 1, visits column 0 (row 0's), scans row 0, and
# both scans give column 1 the distance 1: its predecessor must be the
# earlier scan, row 1, so row 0 keeps column 0 and row 1 takes column 1
_TIED_SCANS = np.array([[0.0, 1.0, 5.0],
                        [0.0, 1.0, 5.0]])


def _clustered_cost():
    """L1 costs between a small synth source and target (64 x 96). Their
    clusters give searches of up to 45 scans and an augmenting path of 13
    columns; uniform costs of the same shape gave paths of at most 7 columns
    in 20 draws."""
    source, target, _, _ = generate(SynthConfig(source_per_class=8, target_per_class=8))
    return pairwise_l1(source.features, target.features)


@settings(max_examples=60, deadline=None)
@given(_seeded_cost_arrays())
@example((_TIED_SCANS, False))
@example((_clustered_cost(), False))
def test_solver_keeps_the_reference_tie_rule(case):
    costs, integers = case
    if costs.shape[0] > costs.shape[1]:
        costs = np.ascontiguousarray(costs.T)
    cols = _solve(costs)
    if not integers:  # continuous costs and the examples: the reference's columns
        assert np.array_equal(cols, reference_solve(costs))
        return
    # exact ties between optimal matchings: the row reduction may pick
    # another one than the reference, so check the total and that the
    # columns repeat
    rows, optimal = linear_sum_assignment(costs)
    assert costs[np.arange(len(cols)), cols].sum() == costs[rows, optimal].sum()
    assert len(set(cols.tolist())) == len(cols)
    assert np.array_equal(_solve(costs), cols)


def test_row_reduction_breaks_an_exact_tie_away_from_a_held_column():
    # the smallest whole-number costs on which the reference's matching
    # differs: row 0 takes column 0, the lowest of its three tied columns;
    # row 1's least columns 0 and 2 tie and column 0 is held, so row 1 takes
    # column 2. The reference returns the other optimum, of the same total 0
    costs = np.array([[0.0, 0.0, 0.0],
                      [0.0, 1.0, 0.0]])
    assert _solve(costs).tolist() == [0, 2]
    assert reference_solve(costs).tolist() == [1, 0]


@pytest.mark.parametrize("transposed", [False, True], ids=["as given", "transposed"])
def test_hungarian_is_optimal_on_clustered_costs(transposed):
    # L1 costs between synth features at a quarter of the match benchmark's
    # item (248 x 372), where most rows are assigned by the row reduction.
    # This data has exact L1 ties, so the totals are compared, not columns
    source, target, _, _ = generate(SynthConfig(source_per_class=31, target_per_class=31))
    costs = pairwise_l1(source.features, target.features)
    assert costs.shape == (248, 372)
    if transposed:
        costs = costs.T
    rows, cols = hungarian(costs)
    assert len(rows) == len(set(rows.tolist())) == len(set(cols.tolist())) == 248
    optimal = linear_sum_assignment(costs)
    assert math.fsum(costs[rows, cols]) == pytest.approx(math.fsum(costs[optimal]),
                                                         rel=1e-12)
    again = hungarian(costs)
    assert np.array_equal(again[0], rows) and np.array_equal(again[1], cols)


def _distinct_least_columns(rng, n, m):
    """Costs whose rows each have their least entry in a column of their own."""
    cost = rng.uniform(1.0, 2.0, (n, m))
    cost[np.arange(n), rng.permutation(m)[:n]] = rng.uniform(0.0, 0.5, n)
    return cost


@pytest.mark.parametrize("case", ["distinct least columns", "one least column"])
def test_solver_matches_the_reference_with_one_scan_and_with_many(case):
    # distinct least columns: every search is single-scan and assigns its
    # column at once; one least column: every search after the first augments
    rng = make_rng(5)
    for n, m in [(1, 1), (6, 6), (30, 45), (40, 40)]:
        if case == "distinct least columns":
            cost = _distinct_least_columns(rng, n, m)
        else:
            cost = rng.uniform(1.0, 2.0, (n, m))
            cost[:, rng.integers(m)] = rng.uniform(0.0, 0.5, n)
        assert np.array_equal(_solve(cost), reference_solve(cost)), (case, n, m)


def test_single_scan_searches_assign_each_row_its_least_column():
    cost = _distinct_least_columns(make_rng(6), 30, 45)
    assert np.array_equal(_solve(cost), cost.argmin(axis=1))


# sha256 of the pairs file; the matching's ties, order and summation order
# all show in these bytes. Width 16 is the one train encodes to and the
# match benchmark uses; at 129 the L1 sum splits into halves
_GOLDEN_PAIRS = {
    (1, False, 6): "12480e6407190f4ec613625337ec6e80b05745f7982a08380c53a3b544430c51",
    (3, False, 6): "fa4560a34529b75c50cd59773449cac8fb691fc313f295074870ba5d3b82649e",
    (1, True, 6): "4fb9bdee4681a4c5247d84de7a64cb283ab3f94cecc3f872bc7f2a4cc7392d4f",
    (3, True, 6): "0ff4dace59d755551ca04c4e852c25f2befc3bc783a06ce682714807bdeff612",
    (1, False, 16): "fb28ed97006dca4ea0200f38d4743847b056f6a5bc4f657441ce3f53fe3088a8",
    (3, True, 16): "4b9fdbc6d92d0c2f21db92ad95ae788586aa24f588cd9a7bac107dd64c8f3aae",
    (1, True, 129): "46595a92689981c176039e05228dfaca597014616cbd1089c46d6c1a11e6881c",
    (3, False, 129): "e6ebb6d0cbe08b0f380f04ddd889b59ec988535247db2c37267a8db31642448e",
}


@pytest.mark.parametrize("k, swap, width", sorted(_GOLDEN_PAIRS), ids=[
    f"{k}-{swap}" + ("" if width == 6 else f"-width {width}")
    for k, swap, width in sorted(_GOLDEN_PAIRS)])
def test_match_pairs_file_golden(tmp_path, k, swap, width):
    rng = make_rng(11)
    fs = rng.standard_normal((40, width))
    ft = rng.standard_normal((55, width))
    if swap:  # more sources than targets
        fs, ft = ft, fs
    path = tmp_path / "pairs.txt"
    src, tgt, costs, total = match_domains(fs, ft, k, make_rng(2))
    save_pairs(path, MatchedPairs(pairs=_pairs(src, tgt), total_cost=total,
                                  costs=tuple(costs.tolist())))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == _GOLDEN_PAIRS[k, swap, width]
