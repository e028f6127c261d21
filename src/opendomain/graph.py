"""Class taxonomy graph and its row-normalized adjacency.

The graph holds every category plus any auxiliary ancestor/grouping nodes.
Self-loops are implicit: the adjacency always carries A_ii = 1 whether or
not the input file listed them, so row normalization never divides by zero.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numkit import size, text_file, write_rows

__all__ = [
    "GraphError",
    "KnowledgeGraph",
    "load_graph",
    "save_graph",
    "normalized_adjacency",
]


class GraphError(ValueError):
    """Malformed graph file or invariant violation."""


@dataclass(frozen=True)
class KnowledgeGraph:
    """Immutable taxonomy over all categories.

    ``class_to_node[c]`` maps class label c (0..total-1) to its node; the
    first ``known_class_count`` classes are the ones with source labels.
    ``edges`` are canonical undirected pairs (i < j) without self-loops.
    """

    node_names: tuple
    edges: tuple
    class_to_node: tuple
    known_class_count: int

    def __post_init__(self):
        n = len(self.node_names)
        if n == 0:
            raise GraphError("graph must have at least one node")
        seen = set()
        for e in self.edges:
            i, j = e
            if not (0 <= i < n and 0 <= j < n):
                raise GraphError(f"edge {e} out of range for {n} nodes")
            if i >= j:
                raise GraphError(f"edge {e} not canonical (expected i < j)")
            if e in seen:
                raise GraphError(f"duplicate edge {e}")
            seen.add(e)
        if len(set(self.class_to_node)) != len(self.class_to_node):
            raise GraphError("class_to_node is not injective")
        for c, node in enumerate(self.class_to_node):
            if not 0 <= node < n:
                raise GraphError(f"class {c} mapped to out-of-range node {node}")
        if not 0 <= self.known_class_count < self.total_class_count:
            raise GraphError(
                "need known classes < total classes "
                f"(got {self.known_class_count} of {self.total_class_count})"
            )

    @property
    def num_nodes(self) -> int:
        return len(self.node_names)

    @property
    def total_class_count(self) -> int:
        return len(self.class_to_node)


# fields of each record, its keyword included
_FIELDS = {"nodes": 6, "node": 3, "class": 3, "edge": 3}


def load_graph(path) -> "KnowledgeGraph":
    """Parse the edge-list text format.

    One header ``nodes N known L_S classes L_T``, then ``node <i> <name>``,
    ``class <ci> <ni>`` and ``edge <i> <j>`` lines. ``#`` starts a comment.
    Explicit self-loop lines are range-checked and dropped (loops are
    implicit). Every error names the file, and the line where it has one.
    """
    n = ls = lt = None
    names = {}
    class_map = {}
    edges = []
    loops = []  # (line, node) of each explicit self-loop
    with text_file(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            parts = raw.split()
            if not parts or parts[0].startswith("#"):
                continue
            try:
                if parts[0] not in _FIELDS:
                    raise ValueError(f"unknown record {parts[0]!r}")
                if len(parts) != _FIELDS[parts[0]]:
                    raise ValueError(f"{parts[0]} record has {len(parts)} fields, "
                                     f"expected {_FIELDS[parts[0]]}")
                if parts[0] == "nodes":
                    if n is not None:
                        raise ValueError("duplicate header")
                    if parts[2] != "known" or parts[4] != "classes":
                        raise ValueError("bad header")
                    n, ls, lt = size(parts[1]), size(parts[3]), size(parts[5])
                elif parts[0] == "node":
                    idx = size(parts[1])
                    if idx in names:
                        raise ValueError(f"duplicate node {idx}")
                    names[idx] = parts[2]
                elif parts[0] == "class":
                    ci, ni = size(parts[1]), size(parts[2])
                    if ci in class_map:
                        raise ValueError(f"duplicate class mapping for {ci}")
                    class_map[ci] = ni
                else:
                    i, j = size(parts[1]), size(parts[2])
                    if i != j:
                        edges.append((min(i, j), max(i, j)))
                    else:
                        loops.append((lineno, i))
            except ValueError as exc:
                raise GraphError(f"{path}: line {lineno}: {exc}") from None
    if n is None:
        raise GraphError(f"{path}: missing header line")
    for lineno, i in loops:
        if i >= n:
            raise GraphError(f"{path}: line {lineno}: edge ({i}, {i}) "
                             f"out of range for {n} nodes")
    if sorted(names) != list(range(n)):
        raise GraphError(f"{path}: node indices must cover 0..{n - 1}")
    if sorted(class_map) != list(range(lt)):
        raise GraphError(f"{path}: class indices must cover 0..{lt - 1}")
    try:
        return KnowledgeGraph(
            node_names=tuple(names[i] for i in range(n)),
            edges=tuple(sorted(edges)),
            class_to_node=tuple(class_map[c] for c in range(lt)),
            known_class_count=ls,
        )
    except GraphError as exc:
        raise GraphError(f"{path}: {exc}") from None


def save_graph(path, g: KnowledgeGraph) -> None:
    """The text form :func:`load_graph` reads. Before the file opens, a node name
    that is not a non-empty, UTF-8 encodable str free of whitespace, or an index
    or count that is not an integer (:func:`numkit.size`), raises GraphError naming it."""
    try:
        for name in g.node_names:
            if not isinstance(name, str) or name.split() != [name]:
                raise ValueError(f"node name {name!r} is not a non-empty str free of whitespace")
            name.encode("utf-8")  # a lone surrogate would stop the write halfway
        for value in (g.known_class_count, *g.class_to_node, *(i for e in g.edges for i in e)):
            size(value)
    except ValueError as exc:
        raise GraphError(f"{path}: {exc}") from None
    write_rows(path, f"nodes {g.num_nodes} known {g.known_class_count} "
               f"classes {g.total_class_count}", "%s %s %s", 0,
               [*(("node", *r) for r in enumerate(g.node_names)),
                *(("class", *r) for r in enumerate(g.class_to_node)),
                *(("edge", *e) for e in g.edges)])


def adjacency(g: KnowledgeGraph) -> np.ndarray:
    """Symmetric 0/1 adjacency with self-loops on every node."""
    a = np.eye(g.num_nodes, dtype=np.float64)
    for i, j in g.edges:
        a[i, j] = 1.0
        a[j, i] = 1.0
    return a


def normalized_adjacency(g: KnowledgeGraph) -> np.ndarray:
    """Row-normalized adjacency D^-1 A; every row sums to 1."""
    a = adjacency(g)
    return a / a.sum(axis=1, keepdims=True)
