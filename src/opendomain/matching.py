"""Cross-domain instance matching.

Builds L1 cost matrices between source and target feature sets, solves the
minimum-weight assignment exactly with an O(n^3) shortest-augmenting-path
(Jonker-Volgenant potentials) solver, and scales up by randomly splitting
each domain into k folds and matching fold i against fold i.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numkit import DimensionError, reject_trailing_rows

__all__ = [
    "CostMatrix",
    "MatchedPairs",
    "FoldPlan",
    "pairwise_l1",
    "hungarian",
    "partition_folds",
    "match_domains",
    "save_pairs",
    "load_pairs",
]


@dataclass(frozen=True)
class CostMatrix:
    """Dense cost block with the global instance ids of its rows/columns."""

    costs: np.ndarray
    row_ids: tuple
    col_ids: tuple

    def __post_init__(self):
        c = self.costs
        if c.ndim != 2:
            raise DimensionError("costs must be 2-D")
        if c.shape != (len(self.row_ids), len(self.col_ids)):
            raise DimensionError("row/col id counts must match costs shape")
        if not np.all(np.isfinite(c)) or np.any(c < 0):
            raise ValueError("costs must be finite and non-negative")


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

    def source_indices(self) -> np.ndarray:
        return np.array([s for s, _ in self.pairs], dtype=int)

    def target_indices(self) -> np.ndarray:
        return np.array([t for _, t in self.pairs], dtype=int)


@dataclass(frozen=True)
class FoldPlan:
    source_folds: tuple
    target_folds: tuple


def pairwise_l1(fs, ft) -> CostMatrix:
    """costs[i, j] = sum_d |fs[i, d] - ft[j, d]|."""
    fs = np.asarray(fs, float)
    ft = np.asarray(ft, float)
    if fs.ndim != 2 or ft.ndim != 2 or fs.shape[1] != ft.shape[1]:
        raise DimensionError(f"pairwise_l1: shapes {fs.shape}, {ft.shape}")
    costs = np.abs(fs[:, None, :] - ft[None, :, :]).sum(axis=2)
    return CostMatrix(costs, tuple(range(fs.shape[0])), tuple(range(ft.shape[0])))


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


def hungarian(c: CostMatrix) -> MatchedPairs:
    """Minimum-cost matching of size min(n_s, n_t); the larger side is left
    partially unmatched."""
    cost = np.asarray(c.costs, float)
    if cost.shape[0] <= cost.shape[1]:
        col_for_row = _solve(cost)
        raw = [(i, int(j)) for i, j in enumerate(col_for_row)]
    else:
        row_for_col = _solve(cost.T)
        raw = [(int(i), j) for j, i in enumerate(row_for_col)]
        raw.sort()
    costs = [cost[i, j] for i, j in raw]
    pairs = tuple((c.row_ids[i], c.col_ids[j]) for i, j in raw)
    return MatchedPairs(pairs=pairs, total_cost=float(sum(costs)),
                        costs=tuple(float(v) for v in costs))


def partition_folds(n_s: int, n_t: int, k: int,
                    rng: np.random.Generator) -> FoldPlan:
    """Seeded uniform permutation of each domain sliced into k near-equal
    folds (sizes differ by at most 1)."""
    if not 1 <= k <= min(n_s, n_t):
        raise ValueError(f"fold count {k} out of range for sizes {n_s}, {n_t}")
    src = np.array_split(rng.permutation(n_s), k)
    tgt = np.array_split(rng.permutation(n_t), k)
    return FoldPlan(
        source_folds=tuple(tuple(int(i) for i in f) for f in src),
        target_folds=tuple(tuple(int(i) for i in f) for f in tgt),
    )


def match_domains(fs, ft, k: int, rng: np.random.Generator) -> MatchedPairs:
    """Partition both domains into k folds, match fold i against fold i,
    and return the union of the per-fold matchings."""
    fs = np.asarray(fs, float)
    ft = np.asarray(ft, float)
    plan = partition_folds(fs.shape[0], ft.shape[0], k, rng)
    entries = []
    total = 0.0
    for s_fold, t_fold in zip(plan.source_folds, plan.target_folds):
        block = pairwise_l1(fs[list(s_fold)], ft[list(t_fold)])
        block = CostMatrix(block.costs, s_fold, t_fold)
        matched = hungarian(block)
        entries.extend(zip(matched.pairs, matched.costs))
        total += matched.total_cost
    # source ids are distinct, so the sort never compares costs
    entries.sort()
    return MatchedPairs(pairs=tuple(p for p, _ in entries), total_cost=total,
                        costs=tuple(c for _, c in entries))


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
        count, total = int(header[1]), float(header[3])
        pairs = []
        costs = []
        for _ in range(count):
            s, t, cost = fh.readline().split()
            pairs.append((int(s), int(t)))
            costs.append(float(cost))
        reject_trailing_rows(fh, path, count)
    return MatchedPairs(pairs=tuple(pairs), total_cost=total, costs=tuple(costs))
