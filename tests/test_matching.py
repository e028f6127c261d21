import itertools

import numpy as np
import pytest

from opendomain.matching import (
    CostMatrix,
    MatchedPairs,
    hungarian,
    load_pairs,
    match_domains,
    pairwise_l1,
    partition_folds,
    save_pairs,
)
from opendomain.numkit import DimensionError, make_rng


def _cm(costs):
    costs = np.asarray(costs, float)
    return CostMatrix(costs, tuple(range(costs.shape[0])),
                      tuple(range(costs.shape[1])))


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
    assert pairwise_l1(f, f).costs[0, 0] == 0.0


def test_pairwise_l1_hand_example():
    cm = pairwise_l1(np.array([[0.0, 0.0]]), np.array([[1.0, -2.0]]))
    assert cm.costs[0, 0] == pytest.approx(3.0)


def test_pairwise_l1_matches_double_loop():
    rng = make_rng(0)
    fs = rng.standard_normal((5, 3))
    ft = rng.standard_normal((4, 3))
    cm = pairwise_l1(fs, ft)
    for i in range(5):
        for j in range(4):
            assert cm.costs[i, j] == pytest.approx(
                np.sum(np.abs(fs[i] - ft[j])))


def test_pairwise_l1_dimension_mismatch():
    with pytest.raises(DimensionError):
        pairwise_l1(np.zeros((2, 3)), np.zeros((2, 4)))


def test_hungarian_diagonal():
    mp = hungarian(_cm(np.ones((3, 3)) - np.eye(3)))
    assert mp.pairs == ((0, 0), (1, 1), (2, 2))
    assert mp.total_cost == 0.0


def test_hungarian_spec_example():
    mp = hungarian(_cm([[4, 1, 3], [2, 0, 5], [3, 2, 2]]))
    assert mp.total_cost == pytest.approx(5.0)
    assert sorted(mp.pairs) == [(0, 1), (1, 0), (2, 2)]


def test_hungarian_rectangular_single_row():
    mp = hungarian(_cm([[5.0, 3.0]]))
    assert mp.pairs == ((0, 1),)
    assert mp.total_cost == pytest.approx(3.0)


def test_hungarian_against_brute_force():
    rng = make_rng(1)
    for _ in range(200):
        n = int(rng.integers(1, 8))
        costs = rng.random((n, n)) * 10
        assert hungarian(_cm(costs)).total_cost == pytest.approx(
            brute_force_cost(costs), abs=1e-9)


def test_hungarian_rectangular_against_brute_force():
    rng = make_rng(2)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 6))
        costs = rng.random((n, m)) * 10
        mp = hungarian(_cm(costs))
        assert len(mp.pairs) == min(n, m)
        assert mp.total_cost == pytest.approx(brute_force_cost(costs), abs=1e-9)


def test_hungarian_row_shift_invariance():
    rng = make_rng(3)
    costs = rng.random((5, 5)) * 4
    mp = hungarian(_cm(costs))
    shifted = costs.copy()
    shifted[2] += 3.7
    shifted[:, 4] += 1.3
    mp_shifted = hungarian(_cm(shifted))
    # the original matching stays optimal for the shifted matrix
    original_on_shifted = sum(shifted[i, j] for i, j in mp.pairs)
    assert mp_shifted.total_cost == pytest.approx(original_on_shifted, abs=1e-9)


def test_partition_single_fold():
    plan = partition_folds(4, 6, 1, make_rng(0))
    assert sorted(plan.source_folds[0]) == [0, 1, 2, 3]
    assert sorted(plan.target_folds[0]) == list(range(6))


def test_partition_five_even_folds():
    plan = partition_folds(10, 10, 5, make_rng(0))
    assert all(len(f) == 2 for f in plan.source_folds)
    assert all(len(f) == 2 for f in plan.target_folds)
    assert sorted(i for f in plan.source_folds for i in f) == list(range(10))


def test_partition_sizes_within_one():
    plan = partition_folds(11, 13, 4, make_rng(7))
    sizes_s = [len(f) for f in plan.source_folds]
    sizes_t = [len(f) for f in plan.target_folds]
    assert max(sizes_s) - min(sizes_s) <= 1
    assert max(sizes_t) - min(sizes_t) <= 1


def test_partition_deterministic():
    assert partition_folds(9, 9, 3, make_rng(5)) == partition_folds(9, 9, 3, make_rng(5))


def test_partition_k_out_of_range():
    with pytest.raises(ValueError):
        partition_folds(3, 10, 4, make_rng(0))


def test_match_single_fold_equals_global_hungarian():
    rng = make_rng(4)
    fs = rng.standard_normal((6, 3))
    ft = rng.standard_normal((8, 3))
    mp = match_domains(fs, ft, 1, make_rng(0))
    direct = hungarian(pairwise_l1(fs, ft))
    assert mp.total_cost == pytest.approx(direct.total_cost)
    assert sorted(mp.pairs) == sorted(direct.pairs)


def test_fold_union_cost_at_least_global():
    rng = make_rng(5)
    for trial in range(10):
        fs = rng.standard_normal((10, 4))
        ft = rng.standard_normal((10, 4))
        global_cost = match_domains(fs, ft, 1, make_rng(trial)).total_cost
        fold_cost = match_domains(fs, ft, 2, make_rng(trial)).total_cost
        assert fold_cost >= global_cost - 1e-9


def test_fold_matching_disjoint_indices():
    rng = make_rng(6)
    fs = rng.standard_normal((12, 3))
    ft = rng.standard_normal((15, 3))
    mp = match_domains(fs, ft, 3, make_rng(0))
    srcs = [s for s, _ in mp.pairs]
    tgts = [t for _, t in mp.pairs]
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


def test_match_carries_per_pair_costs():
    # more sources than targets: hungarian solves the transpose and re-sorts
    rng = make_rng(8)
    fs = rng.standard_normal((9, 4))
    ft = rng.standard_normal((7, 4))
    mp = match_domains(fs, ft, 2, make_rng(0))
    assert len(mp.costs) == len(mp.pairs)
    for (s, t), cost in zip(mp.pairs, mp.costs):
        assert cost == pytest.approx(np.abs(fs[s] - ft[t]).sum(), rel=1e-12)
    with pytest.raises(ValueError):
        MatchedPairs(pairs=((0, 1),), total_cost=1.0, costs=(1.0, 2.0))
