"""Walk through classifier-weight propagation over a class taxonomy.

A small tree of classes is built by hand; classifier weights exist only for
the known classes, and the single-layer graph convolution is fitted so its
outputs on the known nodes match those weights. The interesting part is what
the *unknown* rows look like afterwards: they inherit a blend of their
graph neighbours, which is the whole mechanism that lets the model name
categories it has never seen labeled data for.

Run:  python3 demos/weight_propagation.py
"""
import numpy as np

from opendomain.config import GcnSchedule
from opendomain.gcn import propagate, train_gcn_init
from opendomain.graph import KnowledgeGraph, normalized_adjacency
from opendomain.numkit import make_rng

rng = make_rng(0)

# a tiny taxonomy: two groups of leaf classes under a shared root.
#   known leaves: husky(0), beagle(1), tabby(3)   unknown: wolf(2), lynx(4)
g = KnowledgeGraph(
    node_names=("husky", "beagle", "wolf", "tabby", "lynx",
                "canine", "feline", "animal"),
    edges=((0, 5), (1, 5), (2, 5), (3, 6), (4, 6), (5, 7), (6, 7)),
    class_to_node=(0, 1, 3, 2, 4),  # known classes first, then unknown
    known_class_count=3,
)

print("taxonomy:")
for i, j in g.edges:
    print(f"  {g.node_names[i]} -- {g.node_names[j]}")

p = normalized_adjacency(g)
print("\nrow-normalized adjacency (rows sum to 1):")
np.set_printoptions(precision=2, suppress=True)
print(p)

# word vectors correlated with the taxonomy: child = parent + noise
words = np.zeros((g.num_nodes, 12))
words[7] = rng.standard_normal(12)
for child, parent in ((5, 7), (6, 7), (0, 5), (1, 5), (2, 5), (3, 6), (4, 6)):
    words[child] = words[parent] + 0.6 * rng.standard_normal(12)

# pretend these came out of source-domain training
w_known = rng.standard_normal((3, 4))

# 3 known rows of 12-dim word vectors have full row rank, so the fit is
# solved in closed form rather than by gradient steps
_, embeddings = train_gcn_init(
    propagate(p, words, g.class_to_node), w_known, GcnSchedule(), make_rng(1))

residual = float(np.max(np.abs(embeddings[:3] - w_known)))
print(f"\nknown-row residual (largest |O - W| entry): {residual:.1e}")

# the propagated rows for the unknown classes are not arbitrary: each one
# is closest to its taxonomy siblings, not to the unrelated group
names = [g.node_names[n] for n in g.class_to_node]
print("\ncosine similarity of each propagated class row to the known rows:")
print(f"{'':>8}" + "".join(f"{names[k]:>9}" for k in range(3)))
for c in range(5):
    row = embeddings[c]
    sims = [
        float(np.dot(row, embeddings[k])
              / (np.linalg.norm(row) * np.linalg.norm(embeddings[k]) + 1e-12))
        for k in range(3)
    ]
    tag = "known" if c < 3 else "unknown"
    print(f"{names[c]:>8}" + "".join(f"{s:9.2f}" for s in sims) + f"  ({tag})")

print("\nwolf should look like the dogs, lynx like the cat.")
