"""The assignment solver the package shipped before its lazy-dual rewrite,
kept as the tests' reference for the tie rule: on whole-number and on
continuous random costs the package's solver must return the same column
for every row."""
import numpy as np


def reference_solve(cost: np.ndarray):
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
