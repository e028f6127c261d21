"""Seeded synthetic benchmarks for open-domain recognition.

Each benchmark bundles a random tree taxonomy over the classes, word
vectors correlated with the taxonomy, labeled source features for the
known classes, and unlabeled target features for all classes under an
affine domain shift (a random rotation plus translation).
Class prototypes come from a random walk down the tree, so taxonomy
distance correlates with prototype distance; that correlation is exactly
what graph propagation exploits.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from .config import SynthConfig
from .graph import KnowledgeGraph
from .numkit import as_matrix, make_rng, parse_tokens, read_rows, size, text_file, write_rows

__all__ = [
    "LabeledDataset",
    "UnlabeledDataset",
    "generate",
    "save_dataset",
    "load_dataset",
]


@dataclass(frozen=True)
class LabeledDataset:
    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if self.features.shape[0] != len(self.labels):
            raise ValueError("feature/label counts differ")

    @property
    def n(self) -> int:
        return self.features.shape[0]


@dataclass(frozen=True)
class UnlabeledDataset:
    """Target-domain features; eval_labels (None without labels: saved with no sidecar)
    are held out for scoring only and must never be read by training code."""

    features: np.ndarray
    eval_labels: np.ndarray | None

    def __post_init__(self):
        if self.eval_labels is not None and self.features.shape[0] != len(self.eval_labels):
            raise ValueError("feature/label counts differ")

    @property
    def n(self) -> int:
        return self.features.shape[0]


def _build_tree(cfg: SynthConfig, rng):
    """Group leaf classes under random internal nodes until one root
    remains. Returns (names, edges, parents, root) with leaves 0..L_T-1."""
    names = [f"class_{i:02d}" for i in range(cfg.total_classes)]
    roots = list(range(cfg.total_classes))
    edges = []
    parents = {}
    while len(roots) > 1:
        order = [roots[i] for i in rng.permutation(len(roots))]
        new_roots = []
        for start in range(0, len(order), cfg.branching):
            chunk = order[start:start + cfg.branching]
            if len(chunk) == 1:
                new_roots.extend(chunk)
                continue
            parent = len(names)
            names.append(f"group_{parent - cfg.total_classes:02d}")
            for child in chunk:
                edges.append((min(child, parent), max(child, parent)))
                parents[child] = parent
            new_roots.append(parent)
        roots = new_roots
    return names, edges, parents, roots[0]


def _node_vectors(num_nodes, parents, root, cfg: SynthConfig, rng):
    """Random walk down the tree: child = parent + step * gaussian."""
    children = {}
    for child, parent in parents.items():
        children.setdefault(parent, []).append(child)
    vectors = np.zeros((num_nodes, cfg.input_dim))
    vectors[root] = cfg.step * rng.standard_normal(cfg.input_dim)
    stack = [root]
    while stack:
        node = stack.pop()
        for child in sorted(children.get(node, [])):
            vectors[child] = vectors[node] + cfg.step * rng.standard_normal(cfg.input_dim)
            stack.append(child)
    return vectors


def _rotation(dim, angle, rng):
    """Random rotation with every principal angle equal to `angle`.

    Rotates by `angle` inside each plane of a random orthonormal basis
    (block-diagonal 2x2 rotations conjugated by a random orthogonal
    matrix), so the whole space turns, not just one plane; angle 0 is the
    identity."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    q *= np.sign(np.diag(r))
    block = np.eye(dim)
    c, s = np.cos(angle), np.sin(angle)
    for i in range(0, dim - 1, 2):
        block[i:i + 2, i:i + 2] = [[c, -s], [s, c]]
    return q @ block @ q.T


def generate(cfg: SynthConfig):
    """Build one benchmark.

    Returns (source, target, graph, word_vectors). When
    known_classes == total_classes (the symmetric adaptation setting) the
    graph is omitted (None) since there is nothing to propagate to.
    """
    rng = make_rng(cfg.seed)
    if cfg.total_classes > cfg.known_classes:
        names, edges, parents, root = _build_tree(cfg, rng)
        graph = KnowledgeGraph(
            node_names=tuple(names),
            edges=tuple(sorted(set(edges))),
            class_to_node=tuple(range(cfg.total_classes)),
            known_class_count=cfg.known_classes,
        )
        vectors = _node_vectors(len(names), parents, root, cfg, rng)
    else:
        graph = None
        vectors = cfg.step * rng.standard_normal((cfg.total_classes, cfg.input_dim))
    prototypes = vectors[: cfg.total_classes]

    projection = rng.standard_normal((cfg.input_dim, cfg.word_dim)) / np.sqrt(cfg.input_dim)
    word_vectors = vectors @ projection + cfg.word_noise * rng.standard_normal(
        (vectors.shape[0], cfg.word_dim)
    )

    # each domain's points class by class: its prototype plus gaussian noise
    src_labels = np.repeat(np.arange(cfg.known_classes), cfg.source_per_class)
    source = LabeledDataset(features=prototypes[src_labels] + cfg.noise * rng.standard_normal(
        (len(src_labels), cfg.input_dim)), labels=src_labels)

    rotation = _rotation(cfg.input_dim, cfg.rotation_angle, rng)
    direction = rng.standard_normal(cfg.input_dim)
    direction /= np.linalg.norm(direction)
    translation = cfg.translation_scale * direction
    tgt_labels = np.repeat(np.arange(cfg.total_classes), cfg.target_per_class)
    points = prototypes[tgt_labels] + cfg.noise * rng.standard_normal(
        (len(tgt_labels), cfg.input_dim))
    # rotated one class at a time, so each product has the rows it always had
    shifted = [block @ rotation.T + translation
               for block in np.split(points, cfg.total_classes)]
    target = UnlabeledDataset(features=np.vstack(shifted), eval_labels=tgt_labels)
    return source, target, graph, word_vectors


def save_dataset(path, dataset, num_classes: int) -> None:
    """Header `n M_in labeled <0|1> classes <count>`, one instance per
    line. Unlabeled rows start with `?`; their eval labels go to a sidecar
    file `<path>.eval`, written only when eval_labels is not None. Before any
    file opens, a non-finite feature, a count that is not an integer in
    [0, 2**53), or a label or eval label that :func:`load_dataset` refuses, a
    fraction included, raises ValueError naming its file."""
    labeled = isinstance(dataset, LabeledDataset)
    feats = as_matrix(dataset.features, name=str(path))
    try:
        size(num_classes)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    labels, where = (dataset.labels, path) if labeled else (dataset.eval_labels, f"{path}.eval")
    try:
        for value in () if labels is None else labels:
            if int(value) != value:  # %d would write it truncated
                raise ValueError(f"label {value} is not a whole number")
            _label(value, num_classes)
    except (ValueError, OverflowError) as exc:  # overflow: an infinite float label
        raise ValueError(f"{where}: {exc}") from None
    n, m_in = feats.shape
    # labels go through float64 exactly: the loader keeps them below 2**53
    rows = np.column_stack([dataset.labels, feats]) if labeled else feats
    write_rows(path, f"{n} {m_in} labeled {int(labeled)} classes {num_classes}",
               "%d " if labeled else "? ", m_in, rows.tolist())
    if not labeled and labels is not None:
        with open(where, "w", encoding="utf-8") as fh:
            fh.writelines("%d\n" % value for value in labels)


def _label(token, num_classes: int) -> int:
    value = int(token)
    if not 0 <= value < num_classes:
        raise ValueError(f"label {value} out of range for {num_classes} classes")
    return value


def _unlabeled(tag: str) -> int:
    if tag != "?":
        raise ValueError("an unlabeled row does not start with '?'")
    return -1


def load_dataset(path):
    """Inverse of :func:`save_dataset`: (dataset, num_classes), eval_labels=None without
    a .eval sidecar. A bad header, token, label, row count, non-finite entry or .eval
    length raises ValueError naming the file."""
    with text_file(path) as fh:
        header = fh.readline().split()
        if len(header) != 6 or header[2] != "labeled" or header[4] != "classes":
            raise ValueError(f"{path}: malformed dataset header")
        n, m_in, labeled, num_classes = parse_tokens(
            path, 1, (size, size, int, size), header[:2] + header[3::2])
        if labeled not in (0, 1):
            raise ValueError(f"{path}: line 1: labeled must be 0 or 1, got {labeled}")
        label = partial(_label, num_classes=num_classes)
        rows = read_rows(fh, path, n, (label if labeled else _unlabeled,) + (float,) * m_in)
    feats = as_matrix(np.ascontiguousarray(rows[:, 1:]), name=str(path))
    if labeled:
        return LabeledDataset(features=feats, labels=rows[:, 0].astype(int)), num_classes
    eval_path, eval_labels = str(path) + ".eval", None
    if os.path.exists(eval_path):
        with text_file(eval_path) as fh:
            eval_labels = np.array(
                [parse_tokens(eval_path, lineno, (label,), [line.strip()])[0]
                 for lineno, line in enumerate(fh, start=1) if line.strip()], dtype=int)
        if len(eval_labels) != n:
            raise ValueError(f"{eval_path}: expected {n} labels")
    return UnlabeledDataset(features=feats, eval_labels=eval_labels), num_classes
