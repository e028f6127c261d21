"""Cross-domain instance matching on plain index and cost arrays.

`pairwise_l1` gives the n x m L1 cost array a block of source rows at a
time, adding over d in numpy's order. A block takes as many rows, up to 16,
as keep its d x rows x m temporary within 0.8 MB: 4 rows at m=1500, d=16,
and 16 on a 120-column fold. `hungarian` solves the minimum-weight
assignment exactly: two passes of augmenting row reduction (Jonker-Volgenant
1987) assign most rows, and shortest augmenting paths with lazy dual updates
(Crouse 2016) assign the rest; each augmenting path is recovered from a log
of the search's scans. A search whose first scan finds a free column assigns
it at once, with no path to walk. Ties go to the lowest column index the
rule of each phase allows, so the matching is pinned across runs; where the
optimum is unique it is the one the tests' reference solver finds. It
returns ``(rows, cols)`` int arrays with rows ascending, as scipy's
``linear_sum_assignment`` does, so ``cost[hungarian(cost)]`` is each pair's
cost. `match_domains` splits each domain into k random folds, matches fold
i against fold i, maps local indices to global ids through the folds' index
arrays and returns ``(src, tgt, costs, total_cost)``, the arrays sorted by
source. `MatchedPairs` is the record of a pairs file, which `save_pairs`
writes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numkit import DimensionError

__all__ = [
    "MatchedPairs",
    "pairwise_l1",
    "hungarian",
    "partition_folds",
    "match_domains",
    "save_pairs",
]

# pairwise_l1's block: at most _L1_FLOATS floats of temporary, 4 rows of
# 1500 columns at d=16, where 2 to 8 rows measured fastest, and at most
# _L1_ROWS rows: 50 rows of a 120-column fold, in place of 16, raised
# train's peak memory by 0.75 MB for little more speed
_L1_FLOATS = 16 * 4 * 1500
_L1_ROWS = 16
# _solve's passes of row reduction before its searches. On the match
# benchmark's 1000 x 1500 solve, two passes (1,631 steps) leave 500 rows to
# search in 37,722 scans, against 49,415 scans without; one pass left 43,174
# and three 39,498
_ARR_PASSES = 2


@dataclass(frozen=True)
class MatchedPairs:
    """The record of a pairs file: (source, target) index pairs, their total
    cost, and each pair's cost in the same order (None when unknown)."""

    pairs: tuple
    total_cost: float
    costs: tuple | None = None

    def __post_init__(self):
        if self.costs is not None and len(self.costs) != len(self.pairs):
            raise ValueError("need one cost per matched pair")


def pairwise_l1(fs, ft) -> np.ndarray:
    """The n x m array costs[i, j] = sum_d |fs[i, d] - ft[j, d]|, computed a
    block of rows at a time into the one output array: as many rows as fit
    _L1_FLOATS floats of temporary, from 1 to _L1_ROWS. Each element is summed
    in the same order whatever the block, so the rows per block move no bit."""
    fs, ft = _same_width(fs, ft)
    (n, d), m = fs.shape, len(ft)
    out = np.empty((n, m))
    rows = max(1, min(n, _L1_ROWS, _L1_FLOATS // max(1, d * m)))
    ft_t = np.ascontiguousarray(ft.T)[:, None, :]
    diff = np.empty((d, rows, m))
    with np.errstate(over="ignore"):  # a cost past float64 is inf, which hungarian rejects
        for a in range(0, n, rows):
            block = diff[:, :n - a]
            np.abs(np.subtract(fs[a:a + rows].T[:, :, None], ft_t, out=block), out=block)
            _pairwise_sum(block, out[a:a + rows])
    return out


def _same_width(fs, ft):
    """``fs`` and ``ft`` as float arrays, refused unless both are 2-D with
    as many columns."""
    fs, ft = np.asarray(fs, float), np.asarray(ft, float)
    if fs.ndim != 2 or ft.ndim != 2 or fs.shape[1] != ft.shape[1]:
        raise DimensionError(f"pairwise_l1: shapes {fs.shape}, {ft.shape}")
    return fs, ft


def _pairwise_sum(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = a.sum(axis=0), overwriting a, in numpy's order for d contiguous
    terms: under 8 one by one; to 128 in running sums r0..r7 joined as
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then one by one; past 128 halves."""
    d = len(a)
    if d > 128:
        half = d // 2 - d // 2 % 8
        _pairwise_sum(a[half:], a[half])  # out is a[0]: fine from 8 terms
        return np.add(_pairwise_sum(a[:half], out), a[half], out=out)
    whole = d - d % 8
    for i in range(8, whole, 8):
        a[:8] += a[i:i + 8]
    for step in (1, 2, 4) if whole else ():
        a[0:8:2 * step] += a[step:8:2 * step]
    np.copyto(out, a[0] if whole else 0.0)
    for row in a[whole:]:
        out += row
    return out


def _reduce_rows(rows, v, row_for_col, col_for_row) -> list:
    """Augmenting row reduction (Jonker-Volgenant 1987): _ARR_PASSES passes
    in row order over the free rows, assigning in ``row_for_col`` and
    ``col_for_row`` and lowering ``v`` in place. Each row takes the
    lowest-index column j1 of least reduced cost c - v. If that is below the
    second least, v[j1] drops by the gap; on an exact tie the row takes the
    lowest-index second column instead whenever j1 is held. A row displaced
    from its column waits for the next pass. Returns the rows still free,
    ascending. A column once taken stays taken, so every free column keeps
    v = 0 and every v stays <= 0: the optimality condition when there are
    fewer rows than columns."""
    free = list(range(len(rows)))
    reduced, inf = np.empty(len(v)), np.inf
    for _ in range(_ARR_PASSES):
        displaced = []
        for i in free:
            np.subtract(rows[i], v, out=reduced)
            j = int(reduced.argmin())
            least = reduced.item(j)
            reduced[j] = inf
            second = int(reduced.argmin())
            gap = reduced.item(second) - least
            if gap > 0:
                v[j] -= gap
            elif row_for_col[j] >= 0:
                j = second
            held = row_for_col[j]
            row_for_col[j] = i
            col_for_row[i] = j
            if held >= 0:
                col_for_row[held] = -1
                displaced.append(held)
        free = sorted(displaced)
    return free


def _solve(cost: np.ndarray):
    """Shortest augmenting path assignment for cost with rows <= cols. Two
    passes of augmenting row reduction (`_reduce_rows`) assign most rows
    first, and each assigned row's potential u is its least reduced cost
    c - v. The rows left free get lazy-dual searches (Crouse 2016), in row
    order: one Dijkstra search per free row over full-length column arrays,
    and the potentials updated once per row from the distances at which the
    search visited each column. A search reads
    the column potentials from a per-row copy in which a visited column is
    -inf, so its reduced cost is +inf and never lowers ``shortest``. A scan
    records no predecessors, only its row and offset ``min_val - u[row]``;
    the augmenting path is walked back from the free column, the column
    visited after scan k taking the row of the first of scans 0..k to give
    it its least reduced cost, recomputed with the scan's float operations.
    A search whose first scan finds a free column assigns it to the new row
    directly: the walk would pick that row and subtract min_val - min_val = 0
    from the column's potential. An infinite min_val, where that difference
    is nan, still takes the walk.

    Returns col_for_row, an int array of length n_rows. The tie rule pins
    the returned matching across runs: the reduction takes the lowest-index
    column of least reduced cost, or on an exact tie with a held one the
    lowest-index second column; in a search the first tying scan is a
    column's predecessor and the dense argmin takes the lowest column. Ties
    are between float64 reduced costs: exact on whole-number costs, up to
    rounding on others. Where the optimum is unique the matching is the one
    ``tests/assignment_reference.py`` returns. Where two optimal matchings
    have the same float total, the two can differ, as they often do on
    small whole-number costs.
    """
    n, m = cost.shape
    rows = list(cost)
    u = [0.0] * n
    v = np.zeros(m)
    col_for_row = np.full(n, -1, dtype=int)
    row_for_col = [-1] * m
    shortest, reduced = np.empty(m), np.empty(m)  # shortest is inf once visited
    free = range(n)
    if m > 1:  # a lone column has no second least reduced cost
        free = _reduce_rows(rows, v, row_for_col, col_for_row)
        for i, j in enumerate(col_for_row.tolist()):
            if j >= 0:
                u[i] = np.subtract(rows[i], v, out=reduced).min().item()
    v_open = np.empty(m)  # -inf once visited
    add, minimum, argmin, inf = np.add, np.minimum, shortest.argmin, np.inf
    for cur in free:
        shortest.fill(inf)
        np.copyto(v_open, v)
        scans, offs, seen, dist = [], [], [], []
        i, min_val = cur, 0.0
        while True:
            scans.append(i)
            offs.append(min_val - u[i])
            add(rows[i], offs[-1], out=reduced)
            reduced -= v_open
            minimum(shortest, reduced, out=shortest)
            j = int(argmin())
            min_val = shortest.item(j)
            shortest[j] = inf
            v_open[j] = -inf
            seen.append(j)
            dist.append(min_val)
            i = row_for_col[j]
            if i < 0:
                break
        u[cur] += min_val
        if len(seen) == 1 and min_val < inf:  # a single-scan search: no path to walk
            row_for_col[j] = cur
            col_for_row[cur] = j
            continue
        for r, d in zip(scans[1:], dist):
            u[r] += min_val - d
        scans, offs, seen, dist = (np.array(a) for a in (scans, offs, seen, dist))
        k = len(seen) - 1  # seen[k] was visited after scan k
        while True:
            j = seen[k]
            s = int(((cost[scans[:k + 1], j] + offs[:k + 1]) - v[j]).argmin())
            i = row_for_col[j] = int(scans[s])
            col_for_row[i] = j
            if s == 0:
                break
            k = s - 1  # the row of scan s held seen[s - 1]
        v[seen] -= min_val - dist
    return col_for_row


def hungarian(cost):
    """Minimum-cost matching of size min(n, m) between the rows and the
    columns of the 2-D array ``cost``, as ``(rows, cols)`` int arrays with
    rows ascending; the larger side is left partially unmatched."""
    cost = np.asarray(cost, float)
    if cost.ndim != 2:
        raise DimensionError("costs must be 2-D")
    # two reductions, no n x m temporary: a NaN fails the min's test
    if not (cost.min(initial=np.inf) >= 0 and cost.max(initial=0.0) < np.inf):
        raise ValueError("costs must be finite and non-negative")
    if cost.shape[0] <= cost.shape[1]:
        return np.arange(cost.shape[0]), _solve(cost)
    rows = _solve(np.ascontiguousarray(cost.T))
    cols = np.argsort(rows)
    return rows[cols], cols


def partition_folds(n_s: int, n_t: int, k: int, rng: np.random.Generator):
    """(source_folds, target_folds): a seeded uniform permutation of each
    domain sliced into k index arrays whose sizes differ by at most 1."""
    if not 1 <= k <= min(n_s, n_t):
        raise ValueError(f"fold count {k} out of range for sizes {n_s}, {n_t}")
    return (np.array_split(rng.permutation(n_s), k),
            np.array_split(rng.permutation(n_t), k))


def match_domains(fs, ft, k: int, rng: np.random.Generator):
    """Partition both domains into k folds, match fold i against fold i,
    and return the union of the per-fold matchings as (src, tgt, costs,
    total_cost): index and cost arrays sorted by source, and the sum of
    the per-fold totals. A ValueError refuses matrices of other widths, a
    ``k`` above either's row count and a cost that overflows float64."""
    fs, ft = _same_width(fs, ft)  # before the folds, so a refusal names the whole arrays
    source_folds, target_folds = partition_folds(fs.shape[0], ft.shape[0], k, rng)
    src, tgt, costs = [], [], []
    total = 0.0
    for s_fold, t_fold in zip(source_folds, target_folds):
        cost = pairwise_l1(fs[s_fold], ft[t_fold])
        rows, cols = hungarian(cost)
        src.append(s_fold[rows])
        tgt.append(t_fold[cols])
        costs.append(cost[rows, cols])
        # float64 scalars, summed in row order (3.12+ compensates plain floats)
        total += float(sum(costs[-1]))
    src, tgt, costs = (np.concatenate(a) for a in (src, tgt, costs))
    order = np.argsort(src)
    return src[order], tgt[order], costs[order], total


def save_pairs(path, mp: MatchedPairs) -> None:
    """`pairs <count> total <cost>` header then one `s t cost` line per
    pair; unknown per-pair costs are written as nan."""
    costs = mp.costs if mp.costs is not None else (float("nan"),) * len(mp.pairs)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"pairs {len(mp.pairs)} total {mp.total_cost:.17g}\n")
        for (s, t), c in zip(mp.pairs, costs):
            fh.write(f"{s} {t} {c:.17g}\n")
