"""Cross-domain instance matching on plain index and cost arrays.

`pairwise_l1` gives the n x m L1 cost array, `hungarian` solves the
minimum-weight assignment exactly with an O(n^3) shortest-augmenting-path
(Jonker-Volgenant potentials) solver, and `match_domains` splits each domain
into k random folds and matches fold i against fold i, mapping local indices
to global ids through the folds' index arrays.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numkit import DimensionError, parse_tokens, read_rows, size

__all__ = [
    "MatchedPairs",
    "pairwise_l1",
    "hungarian",
    "partition_folds",
    "match_domains",
    "save_pairs",
    "load_pairs",
]


@dataclass(frozen=True)
class MatchedPairs:
    """(source, target) index pairs from a (possibly partial) matching, and
    each pair's cost in the same order (None when the costs are unknown)."""

    pairs: tuple
    total_cost: float
    costs: tuple | None = None

    def __post_init__(self):
        srcs = [s for s, _ in self.pairs]
        tgts = [t for _, t in self.pairs]
        if len(set(srcs)) != len(srcs) or len(set(tgts)) != len(tgts):
            raise ValueError("matched indices must be pairwise distinct")
        if self.costs is not None and len(self.costs) != len(self.pairs):
            raise ValueError("need one cost per matched pair")


def pairwise_l1(fs, ft) -> np.ndarray:
    """The n x m array costs[i, j] = sum_d |fs[i, d] - ft[j, d]|."""
    fs = np.asarray(fs, float)
    ft = np.asarray(ft, float)
    if fs.ndim != 2 or ft.ndim != 2 or fs.shape[1] != ft.shape[1]:
        raise DimensionError(f"pairwise_l1: shapes {fs.shape}, {ft.shape}")
    return np.abs(fs[:, None, :] - ft[None, :, :]).sum(axis=2)


def _solve(cost: np.ndarray):
    """Shortest augmenting path assignment for cost with rows <= cols.

    Returns col_for_row, an int array of length n_rows. Ties during
    augmentation resolve to the lowest column index (ascending scan with
    strict improvement), which pins the returned matching across runs.
    """
    n, m = cost.shape
    u = np.zeros(n + 1)
    v = np.zeros(m + 1)
    p = np.zeros(m + 1, dtype=int)  # p[j] = row assigned to column j (1-based), 0 free
    way = np.zeros(m + 1, dtype=int)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = np.full(m + 1, np.inf)
        used = np.zeros(m + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = p[j0]
            free = np.where(~used[1:])[0] + 1
            cur = cost[i0 - 1, free - 1] - u[i0] - v[free]
            better = cur < minv[free]
            minv[free[better]] = cur[better]
            way[free[better]] = j0
            j1 = free[int(np.argmin(minv[free]))]
            delta = minv[j1]
            used_idx = np.where(used)[0]
            u[p[used_idx]] += delta
            v[used_idx] -= delta
            minv[~used] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    col_for_row = np.full(n, -1, dtype=int)
    for j in range(1, m + 1):
        if p[j] > 0:
            col_for_row[p[j] - 1] = j - 1
    return col_for_row


def hungarian(cost) -> MatchedPairs:
    """Minimum-cost matching of size min(n, m) between the rows and the
    columns of the 2-D array ``cost``, pairs sorted by row; the larger side
    is left partially unmatched."""
    cost = np.asarray(cost, float)
    if cost.ndim != 2:
        raise DimensionError("costs must be 2-D")
    if not np.all(np.isfinite(cost)) or np.any(cost < 0):
        raise ValueError("costs must be finite and non-negative")
    if cost.shape[0] <= cost.shape[1]:
        rows = np.arange(cost.shape[0])
        cols = _solve(cost)
    else:
        rows = _solve(cost.T)
        cols = np.argsort(rows)
        rows = rows[cols]
    costs = cost[rows, cols]
    # float64 scalars, summed in row order (3.12+ compensates plain floats)
    return MatchedPairs(pairs=tuple(zip(rows.tolist(), cols.tolist())),
                        total_cost=float(sum(costs)), costs=tuple(costs.tolist()))


def partition_folds(n_s: int, n_t: int, k: int, rng: np.random.Generator):
    """(source_folds, target_folds): a seeded uniform permutation of each
    domain sliced into k index arrays whose sizes differ by at most 1."""
    if not 1 <= k <= min(n_s, n_t):
        raise ValueError(f"fold count {k} out of range for sizes {n_s}, {n_t}")
    return (np.array_split(rng.permutation(n_s), k),
            np.array_split(rng.permutation(n_t), k))


def match_domains(fs, ft, k: int, rng: np.random.Generator) -> MatchedPairs:
    """Partition both domains into k folds, match fold i against fold i,
    and return the union of the per-fold matchings, sorted by source."""
    fs = np.asarray(fs, float)
    ft = np.asarray(ft, float)
    source_folds, target_folds = partition_folds(fs.shape[0], ft.shape[0], k, rng)
    src, tgt, costs = [], [], []
    total = 0.0
    for s_fold, t_fold in zip(source_folds, target_folds):
        matched = hungarian(pairwise_l1(fs[s_fold], ft[t_fold]))
        rows, cols = np.array(matched.pairs, dtype=int).reshape(-1, 2).T
        src.append(s_fold[rows])
        tgt.append(t_fold[cols])
        costs.append(matched.costs)
        total += matched.total_cost
    src, tgt, costs = (np.concatenate(a) for a in (src, tgt, costs))
    order = np.argsort(src)
    return MatchedPairs(pairs=tuple(zip(src[order].tolist(), tgt[order].tolist())),
                        total_cost=total, costs=tuple(costs[order].tolist()))


def save_pairs(path, mp: MatchedPairs) -> None:
    """`pairs <count> total <cost>` header then one `s t cost` line per
    pair; unknown per-pair costs are written as nan."""
    costs = mp.costs if mp.costs is not None else (float("nan"),) * len(mp.pairs)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"pairs {len(mp.pairs)} total {mp.total_cost:.17g}\n")
        for (s, t), c in zip(mp.pairs, costs):
            fh.write(f"{s} {t} {c:.17g}\n")


def load_pairs(path) -> MatchedPairs:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 4 or header[0] != "pairs" or header[2] != "total":
            raise ValueError(f"{path}: malformed pairs header")
        count, total = parse_tokens(path, 1, (size, float), header[1::2])
        rows = read_rows(fh, path, count, (size, size, float))
    return MatchedPairs(pairs=tuple(map(tuple, rows[:, :2].astype(int).tolist())),
                        total_cost=total, costs=tuple(rows[:, 2].tolist()))
