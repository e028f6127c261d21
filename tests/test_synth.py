import numpy as np
import pytest
from scipy.stats import spearmanr

from opendomain.config import SynthConfig
from opendomain.graph import normalized_adjacency
from opendomain.synth import (
    LabeledDataset,
    UnlabeledDataset,
    generate,
    load_dataset,
    save_dataset,
)

from reachability import check_reachability


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(known_classes=5, total_classes=4)
    with pytest.raises(ValueError):
        SynthConfig(noise=-0.1)
    with pytest.raises(ValueError):
        SynthConfig(source_per_class=0)


def test_branching_below_two_is_refused():
    with pytest.raises(ValueError, match=">= total_classes builds a star"):
        SynthConfig(branching=1)
    # a star: one root over all the class nodes
    _, _, graph, _ = generate(SynthConfig(branching=12))
    assert len(graph.node_names) == 13 and len(graph.edges) == 12


def test_shapes_and_counts():
    cfg = SynthConfig(seed=1)
    source, target, graph, words = generate(cfg)
    assert source.features.shape == (cfg.known_classes * cfg.source_per_class,
                                     cfg.input_dim)
    assert target.features.shape == (cfg.total_classes * cfg.target_per_class,
                                     cfg.input_dim)
    assert set(source.labels) == set(range(cfg.known_classes))
    assert set(target.eval_labels) == set(range(cfg.total_classes))
    assert graph.known_class_count == cfg.known_classes
    assert graph.total_class_count == cfg.total_classes
    assert words.shape == (graph.num_nodes, cfg.word_dim)


def test_generated_graph_is_usable():
    _, _, graph, _ = generate(SynthConfig(seed=2))
    # every unknown class must be able to receive propagated weights
    assert check_reachability(graph) == ()
    p = normalized_adjacency(graph)
    assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-12


def test_symmetric_setting_has_no_graph():
    cfg = SynthConfig(known_classes=5, total_classes=5, seed=3)
    source, target, graph, words = generate(cfg)
    assert graph is None
    assert words.shape == (5, cfg.word_dim)
    assert set(target.eval_labels) == set(range(5))


def test_deterministic_generation():
    a = generate(SynthConfig(seed=11))
    b = generate(SynthConfig(seed=11))
    assert np.array_equal(a[0].features, b[0].features)
    assert np.array_equal(a[1].features, b[1].features)
    assert np.array_equal(a[3], b[3])
    assert a[2] == b[2]
    c = generate(SynthConfig(seed=12))
    assert not np.array_equal(a[0].features, c[0].features)


def test_nearest_prototype_solves_noiseless_unshifted():
    cfg = SynthConfig(noise=0.0, rotation_angle=0.0, translation_scale=0.0,
                      seed=4)
    source, target, _, _ = generate(cfg)
    # with no noise and no shift, every target point sits exactly on its
    # class prototype, so source class means classify the known instances
    means = np.stack([
        source.features[source.labels == c].mean(axis=0)
        for c in range(cfg.known_classes)
    ])
    known = target.eval_labels < cfg.known_classes
    d = np.linalg.norm(target.features[known, None, :] - means[None], axis=2)
    preds = np.argmin(d, axis=1)
    assert np.array_equal(preds, target.eval_labels[known])


def test_zero_shift_domains_share_prototypes():
    cfg = SynthConfig(noise=0.0, rotation_angle=0.0, translation_scale=0.0,
                      seed=5)
    source, target, _, _ = generate(cfg)
    for c in range(cfg.known_classes):
        s = source.features[source.labels == c][0]
        t = target.features[target.eval_labels == c][0]
        assert np.allclose(s, t, atol=1e-12)


def test_shift_moves_target_marginal():
    cfg = SynthConfig(seed=6)
    _, shifted, _, _ = generate(cfg)
    _, unshifted, _, _ = generate(
        SynthConfig(seed=6, rotation_angle=0.0, translation_scale=0.0))
    gap = np.linalg.norm(shifted.features.mean(axis=0)
                         - unshifted.features.mean(axis=0))
    assert gap > 1.0


def test_rotation_preserves_scatter():
    cfg = SynthConfig(seed=7, translation_scale=0.0, noise=0.0)
    source, target, _, _ = generate(cfg)
    known = target.eval_labels < cfg.known_classes
    # rotation about the origin preserves norms of the noiseless prototypes
    src_norms = np.sort(np.unique(
        np.round(np.linalg.norm(source.features, axis=1), 8)))
    tgt_norms = np.sort(np.unique(
        np.round(np.linalg.norm(target.features[known], axis=1), 8)))
    assert np.allclose(src_norms, tgt_norms, atol=1e-6)


def test_taxonomy_correlates_with_prototype_distance():
    cfg = SynthConfig(seed=8)
    source, target, graph, _ = generate(cfg)
    protos = np.stack([
        target.features[target.eval_labels == c].mean(axis=0)
        for c in range(cfg.total_classes)
    ])
    # hop distance over the tree via BFS
    adj = {i: [] for i in range(graph.num_nodes)}
    for i, j in graph.edges:
        adj[i].append(j)
        adj[j].append(i)

    def hops(start):
        dist = {start: 0}
        frontier = [start]
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        return dist

    tree_d, feat_d = [], []
    for a in range(cfg.total_classes):
        da = hops(graph.class_to_node[a])
        for b in range(a + 1, cfg.total_classes):
            tree_d.append(da[graph.class_to_node[b]])
            feat_d.append(np.linalg.norm(protos[a] - protos[b]))
    rho = spearmanr(tree_d, feat_d).statistic
    assert rho > 0.2


def test_word_vectors_track_prototypes():
    cfg = SynthConfig(seed=9)
    _, target, graph, words = generate(cfg)
    protos = np.stack([
        target.features[target.eval_labels == c].mean(axis=0)
        for c in range(cfg.total_classes)
    ])
    class_words = words[: cfg.total_classes]
    tree_d, word_d = [], []
    for a in range(cfg.total_classes):
        for b in range(a + 1, cfg.total_classes):
            tree_d.append(np.linalg.norm(protos[a] - protos[b]))
            word_d.append(np.linalg.norm(class_words[a] - class_words[b]))
    rho = spearmanr(tree_d, word_d).statistic
    assert rho > 0.2


def test_labeled_roundtrip(tmp_path):
    source, _, _, _ = generate(SynthConfig(seed=10))
    path = tmp_path / "source.ds"
    save_dataset(path, source, 8)
    loaded, num_classes = load_dataset(path)
    assert isinstance(loaded, LabeledDataset)
    assert num_classes == 8
    assert np.array_equal(loaded.features, source.features)
    assert np.array_equal(loaded.labels, source.labels)


def test_unlabeled_roundtrip_with_sidecar(tmp_path):
    _, target, _, _ = generate(SynthConfig(seed=10))
    path = tmp_path / "target.ds"
    save_dataset(path, target, 12)
    assert (tmp_path / "target.ds.eval").exists()
    loaded, num_classes = load_dataset(path)
    assert isinstance(loaded, UnlabeledDataset)
    assert num_classes == 12
    assert np.array_equal(loaded.features, target.features)
    assert np.array_equal(loaded.eval_labels, target.eval_labels)


def test_unlabeled_load_without_sidecar(tmp_path):
    _, target, _, _ = generate(SynthConfig(seed=10))
    path = tmp_path / "target.ds"
    save_dataset(path, target, 12)
    (tmp_path / "target.ds.eval").unlink()
    loaded, _ = load_dataset(path)
    assert loaded.eval_labels is None
    save_dataset(path, loaded, 12)
    assert not (tmp_path / "target.ds.eval").exists()
    again, _ = load_dataset(path)
    assert again.eval_labels is None
    assert np.array_equal(again.features, target.features)


def test_load_rejects_malformed(tmp_path):
    path = tmp_path / "bad.ds"
    path.write_text("1 2 labeled\n")
    with pytest.raises(ValueError):
        load_dataset(path)
    path.write_text("1 2 labeled 1 classes 3\n0 1.0\n")
    with pytest.raises(ValueError):
        load_dataset(path)
    path.write_text("1 2 labeled 1 classes 3\n7 1.0 2.0\n")
    with pytest.raises(ValueError):
        load_dataset(path)
    for value in ("nan", "inf", "-inf"):
        path.write_text(f"2 2 labeled 0 classes 3\n? 1.0 2.0\n? {value} 2.0\n")
        with pytest.raises(ValueError, match="non-finite"):
            load_dataset(path)


def test_load_rejects_trailing_rows(tmp_path):
    path = tmp_path / "source.ds"
    path.write_text("1 2 labeled 1 classes 3\n0 1.0 2.0\n\n")
    loaded, _ = load_dataset(path)
    assert np.array_equal(loaded.features, [[1.0, 2.0]])
    path.write_text("1 2 labeled 1 classes 3\n0 1.0 2.0\n1 3.0 4.0\n")
    with pytest.raises(ValueError):
        load_dataset(path)
