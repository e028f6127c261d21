import numpy as np
import pytest

from opendomain.graph import (
    GraphError,
    KnowledgeGraph,
    adjacency,
    load_graph,
    normalized_adjacency,
    save_graph,
)
from opendomain.numkit import make_rng

from reachability import check_reachability


def _write(tmp_path, text):
    path = tmp_path / "g.txt"
    path.write_text(text, encoding="utf-8")
    return path


CHAIN = """# five node chain, classes at 0, 2, 4
nodes 5 known 2 classes 3
node 0 cat
node 1 feline
node 2 dog
node 3 canine
node 4 wolf
class 0 0
class 1 2
class 2 4
edge 0 1
edge 1 2
edge 2 3
edge 3 4
"""


def test_single_node_graph(tmp_path):
    path = _write(tmp_path, "nodes 1 known 0 classes 1\nnode 0 only\nclass 0 0\n")
    g = load_graph(path)
    assert g.num_nodes == 1
    assert np.array_equal(adjacency(g), [[1.0]])
    assert np.array_equal(normalized_adjacency(g), [[1.0]])


def test_chain_fixture(tmp_path):
    g = load_graph(_write(tmp_path, CHAIN))
    assert g.num_nodes == 5
    assert len(g.edges) == 4
    assert g.known_class_count == 2
    assert g.total_class_count == 3
    a = adjacency(g)
    assert np.array_equal(np.diag(a), np.ones(5))
    assert a.sum() == 5 + 2 * 4


def test_duplicate_class_mapping_rejected(tmp_path):
    text = CHAIN.replace("class 2 4", "class 2 0")
    with pytest.raises(GraphError):
        load_graph(_write(tmp_path, text))


def test_explicit_self_loop_dropped(tmp_path):
    g = load_graph(_write(tmp_path, CHAIN + "edge 3 3\n"))
    assert len(g.edges) == 4


def test_normalized_two_node():
    g = KnowledgeGraph(node_names=("a", "b"), edges=((0, 1),),
                       class_to_node=(0, 1), known_class_count=1)
    assert np.allclose(normalized_adjacency(g), 0.5)


def test_normalized_three_node_path():
    g = KnowledgeGraph(node_names=("a", "b", "c"), edges=((0, 1), (1, 2)),
                       class_to_node=(0, 1, 2), known_class_count=1)
    expected = np.array([
        [1 / 2, 1 / 2, 0],
        [1 / 3, 1 / 3, 1 / 3],
        [0, 1 / 2, 1 / 2],
    ])
    assert np.allclose(normalized_adjacency(g), expected, atol=1e-15)


def _random_graph(rng):
    n = int(rng.integers(1, 12))
    edges = set()
    for _ in range(int(rng.integers(0, 2 * n))):
        i, j = rng.integers(0, n, 2)
        if i != j:
            edges.add((min(i, j), max(i, j)))
    lt = int(rng.integers(1, n + 1))
    nodes = tuple(int(v) for v in rng.permutation(n)[:lt])
    return KnowledgeGraph(
        node_names=tuple(f"n{i}" for i in range(n)),
        edges=tuple(sorted((int(i), int(j)) for i, j in edges)),
        class_to_node=nodes,
        known_class_count=int(rng.integers(0, lt)),
    )


def test_rows_sum_to_one_on_random_graphs():
    rng = make_rng(42)
    for _ in range(100):
        p = normalized_adjacency(_random_graph(rng))
        assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-12


def test_normalized_entries_follow_adjacency():
    g = _random_graph(make_rng(5))
    a = adjacency(g)
    p = normalized_adjacency(g)
    assert np.array_equal(p > 0, a > 0)


def test_roundtrip(tmp_path):
    g = load_graph(_write(tmp_path, CHAIN))
    out = tmp_path / "copy.txt"
    save_graph(out, g)
    assert load_graph(out) == g


def test_reachability_connected(tmp_path):
    g = load_graph(_write(tmp_path, CHAIN))
    assert check_reachability(g) == ()


def test_reachability_chain_known_at_ends():
    # known classes sit at the chain ends, unknown in the middle
    g = KnowledgeGraph(node_names=("a", "b", "c", "d", "e"),
                       edges=((0, 1), (1, 2), (2, 3), (3, 4)),
                       class_to_node=(0, 4, 2), known_class_count=2)
    assert check_reachability(g) == ()


def test_reachability_disconnected_unknown():
    g = KnowledgeGraph(node_names=("a", "b", "c"), edges=((0, 1),),
                       class_to_node=(0, 2), known_class_count=1)
    assert check_reachability(g) == (1,)


def test_validation_errors():
    with pytest.raises(GraphError):
        KnowledgeGraph(node_names=("a",), edges=((0, 0),),
                       class_to_node=(0,), known_class_count=0)
    with pytest.raises(GraphError):
        KnowledgeGraph(node_names=("a", "b"), edges=((1, 0),),
                       class_to_node=(0,), known_class_count=0)
    with pytest.raises(GraphError):
        KnowledgeGraph(node_names=("a", "b"), edges=(),
                       class_to_node=(0, 1), known_class_count=2)
