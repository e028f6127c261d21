"""Cross-domain instance matching, globally and with fold partitioning.

Two point clouds stand in for source and target features. The assignment
solver pairs them at minimum total L1 cost; splitting each domain into k
random folds solves k smaller problems, each pairing points only within its
fold. The demo prints, for 1, 2, 5 and 10 folds, the total cost and the
share of pairs that link points of the same class.

Run:  python3 demos/matching_folds.py
"""
import numpy as np

from opendomain.matching import hungarian, match_domains
from opendomain.numkit import make_rng

rng = make_rng(0)

# worked example small enough to read off
costs = np.array([[4.0, 1.0, 3.0],
                  [2.0, 0.0, 5.0],
                  [3.0, 2.0, 2.0]])
rows, cols = hungarian(costs)
print("cost matrix:")
print(costs)
print(f"optimal pairs {tuple(zip(rows.tolist(), cols.tolist()))} "
      f"with total cost {costs[rows, cols].sum()}")

# now at benchmark scale: matched pairs should mostly link same-class points
n_per, classes, dim = 40, 5, 8
centers = 4.0 * rng.standard_normal((classes, dim))
fs = np.concatenate([centers[c] + rng.standard_normal((n_per, dim))
                     for c in range(classes)])
ft = np.concatenate([centers[c] + rng.standard_normal((n_per, dim)) + 0.5
                     for c in range(classes)])
labels = np.repeat(np.arange(classes), n_per)

for folds in (1, 2, 5, 10):
    src, tgt, _, total = match_domains(fs, ft, folds, make_rng(1))
    same = np.mean(labels[src] == labels[tgt])
    print(f"folds={folds:>2}: cost {total:9.1f}  same-class pairs {same:5.1%}")

print("\nmore folds = a higher total cost and fewer same-class pairs: a point")
print("pairs only within its fold, whose two sides may hold its class in")
print("different numbers.")
