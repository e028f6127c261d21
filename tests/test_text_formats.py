"""Round-trip properties of the text formats: what a writer emits, its
reader gives back exactly, float64 bit patterns included, and what its
reader would refuse, the writer refuses without leaving a file."""
import json
import math
import re
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from opendomain import config
from opendomain.config import (
    ConfigError, ExperimentConfig, config_to_text, experiment_hash, parse_config)
from opendomain.graph import KnowledgeGraph, load_graph, save_graph
from opendomain.matching import MatchedPairs, save_pairs
from opendomain.numkit import load_matrix, save_matrix, write_json
from opendomain.synth import (
    LabeledDataset,
    UnlabeledDataset,
    load_dataset,
    save_dataset,
)
from pairs_file import load_pairs

# tmp_path is shared by the examples of one test; each example overwrites
# the same file names
PROPERTY = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

# every finite float64: -0.0, subnormals and the extremes included
finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
non_negative = st.floats(min_value=0.0, allow_infinity=False)
_NONFINITE = st.sampled_from([math.nan, math.inf, -math.inf])
EDGE_VALUES = np.array([[-0.0, 5e-324, -2.2250738585072014e-308],
                        [1.7976931348623157e308, -1.7976931348623157e308, 0.1]])


def _features(n, width):
    return arrays(np.float64, (n, width), elements=finite)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, np.float64), np.asarray(b, np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@PROPERTY
@given(st.tuples(st.integers(0, 6), st.integers(0, 5)).flatmap(lambda s: _features(*s)))
@example(EDGE_VALUES)
def test_matrix_round_trip_is_bit_exact(tmp_path, m):
    path = tmp_path / "m.mat"
    save_matrix(path, m)
    assert _same_bits(load_matrix(path), m)


@st.composite
def _labeled(draw):
    n, width, classes = draw(st.integers(0, 8)), draw(st.integers(1, 4)), draw(st.integers(1, 6))
    labels = draw(arrays(np.int64, n, elements=st.integers(0, classes - 1)))
    return LabeledDataset(features=draw(_features(n, width)), labels=labels), classes


def _labels(dataset):
    return dataset.labels if isinstance(dataset, LabeledDataset) else dataset.eval_labels


def _assert_dataset_read_back(path, dataset, classes):
    loaded, loaded_classes = load_dataset(path)
    assert type(loaded) is type(dataset) and loaded_classes == classes
    assert _same_bits(loaded.features, dataset.features)
    if _labels(dataset) is None:
        assert _labels(loaded) is None
    else:
        assert np.array_equal(_labels(loaded), _labels(dataset))


@PROPERTY
@given(_labeled())
def test_labeled_dataset_round_trip(tmp_path, drawn):
    dataset, classes = drawn
    path = tmp_path / "source.ds"
    save_dataset(path, dataset, classes)
    _assert_dataset_read_back(path, dataset, classes)


@PROPERTY
@given(_labeled())
def test_unlabeled_dataset_round_trip_with_sidecar(tmp_path, drawn):
    labeled, classes = drawn
    dataset = UnlabeledDataset(features=labeled.features, eval_labels=labeled.labels)
    path = tmp_path / "target.ds"
    save_dataset(path, dataset, classes)
    _assert_dataset_read_back(path, dataset, classes)


@PROPERTY
@given(_labeled())
def test_unlabeled_dataset_round_trip_without_sidecar(tmp_path, drawn):
    labeled, classes = drawn
    dataset = UnlabeledDataset(features=labeled.features, eval_labels=None)
    path = tmp_path / "target.ds"
    save_dataset(path, dataset, classes)
    assert not (tmp_path / "target.ds.eval").exists()
    _assert_dataset_read_back(path, dataset, classes)


@st.composite
def _pairs(draw):
    n = draw(st.integers(0, 8))
    src = draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n, unique=True))
    tgt = draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n, unique=True))
    costs = draw(st.none() | st.lists(non_negative, min_size=n, max_size=n).map(tuple))
    return MatchedPairs(pairs=tuple(zip(sorted(src), tgt)), total_cost=draw(finite),
                        costs=costs)


@PROPERTY
@given(_pairs())
def test_pairs_round_trip(tmp_path, mp):
    path = tmp_path / "pairs.txt"
    save_pairs(path, mp)
    _assert_pairs_read_back(path, mp)


def _assert_pairs_read_back(path, mp):
    loaded = load_pairs(path)
    assert loaded.pairs == mp.pairs
    assert _same_bits(loaded.total_cost, mp.total_cost)
    if mp.costs is None:  # unknown costs are written, and read back, as nan
        assert np.isnan(loaded.costs).all() and len(loaded.costs) == len(mp.pairs)
    else:
        assert _same_bits(loaded.costs, mp.costs)


@st.composite
def _trees(draw):
    """A random tree over 2..12 nodes, its node labels shuffled, with
    2..n of its nodes carrying classes."""
    n = draw(st.integers(2, 12))
    order = draw(st.permutations(range(n)))
    edges = sorted({tuple(sorted((order[i], order[draw(st.integers(0, i - 1))])))
                    for i in range(1, n)})
    total = draw(st.integers(2, n))
    names = draw(st.lists(st.from_regex(r"[A-Za-z_][A-Za-z0-9_.-]{0,8}", fullmatch=True),
                          min_size=n, max_size=n))
    return KnowledgeGraph(node_names=tuple(names), edges=tuple(edges),
                          class_to_node=tuple(draw(st.permutations(range(n)))[:total]),
                          known_class_count=draw(st.integers(0, total - 1)))


@PROPERTY
@given(_trees())
def test_graph_round_trip_on_random_trees(tmp_path, graph):
    path = tmp_path / "graph.txt"
    save_graph(path, graph)
    assert load_graph(path) == graph


@st.composite
def _any_trees(draw):
    """(graph, whether its writer refuses it): a random tree, one node name
    of which may be any text or an int, and one index or count of which may
    be held as a numpy int, a float or (where it is 0 or 1) a bool. Only a
    non-empty str free of whitespace is a name, and only an int an index."""
    graph = draw(_trees())
    names = list(graph.node_names)
    if draw(st.booleans()):
        names[draw(st.integers(0, len(names) - 1))] = draw(st.text(max_size=4) | st.integers())
    values = [graph.known_class_count, *graph.class_to_node, *(i for e in graph.edges for i in e)]
    at = draw(st.integers(0, len(values) - 1))
    kind = draw(st.sampled_from([np.int64, float, bool]))
    if kind is not bool or values[at] <= 1:
        values[at] = kind(values[at])
    refused = any(not isinstance(name, str) or not name or any(map(str.isspace, name))
                  for name in names) or type(values[at]) in (float, bool)
    total = graph.total_class_count
    ends = iter(values[1 + total:])
    return KnowledgeGraph(node_names=tuple(names), edges=tuple(zip(ends, ends)),
                          class_to_node=tuple(values[1:1 + total]),
                          known_class_count=values[0]), refused


def _pair(**fields):
    """A two-node graph with one edge and two classes, one known, and
    ``fields`` in place of its own."""
    return KnowledgeGraph(**{"node_names": ("a", "b"), "edges": ((0, 1),),
                             "class_to_node": (0, 1), "known_class_count": 1, **fields})


@PROPERTY
@given(_any_trees())
@example((_pair(node_names=("a", "b c")), True))
@example((_pair(node_names=("a", "")), True))
@example((_pair(edges=((0.0, 1.0),)), True))
@example((_pair(class_to_node=(0.0, 1)), True))
@example((_pair(known_class_count=True), True))
@example((_pair(node_names=(1, 2)), True))
@example((_pair(node_names=("a", "b\ud800")), True))
@example((_pair(known_class_count=np.int64(1)), False))
def test_graph_writer_refuses_what_its_loader_refuses(tmp_path, drawn):
    graph, refused = drawn
    path = _fresh(tmp_path, "graph.txt")
    if refused:
        with _refused(path):
            save_graph(path, graph)
        assert not path.exists()
    else:
        save_graph(path, graph)
        assert load_graph(path) == graph


# ---------------------------------------------- what the readers refuse
# The values drawn below include some that the readers refuse. A writer
# refuses those before it opens a file, with one ValueError line that
# names the file; whatever it writes, its reader gives back exactly.

def _fresh(tmp_path, name) -> Path:
    """A path in a directory of its own: tmp_path is shared by the examples."""
    return Path(tempfile.mkdtemp(dir=tmp_path)) / name


def _refused(where):
    return pytest.raises(ValueError, match=rf"\A{re.escape(str(where))}: [^\n]*\Z")


@st.composite
def _datasets(draw):
    """(dataset, classes): labeled, or unlabeled with eval labels or none;
    one feature may be non-finite, one (eval) label out of range or not a
    whole number, and the class count outside [0, 2**53)."""
    labeled, classes = draw(_labeled())
    features, labels = labeled.features.copy(), labeled.labels.copy()
    if features.size and draw(st.booleans()):
        features.flat[draw(st.integers(0, features.size - 1))] = draw(_NONFINITE)
    if len(labels) and draw(st.booleans()):
        at = draw(st.integers(0, len(labels) - 1))
        if draw(st.booleans()):
            labels = labels.astype(np.float64)  # a whole float is written as its int
            labels[at] += draw(st.sampled_from([0.0, 0.5, -0.25, 1e-9]))
        else:
            labels[at] = draw(st.integers(-2**63, -1) | st.integers(classes, 2**63 - 1))
    if draw(st.booleans()):
        classes = draw(st.integers(-2**64, -1) | st.integers(2**53, 2**64))
    kind = draw(st.sampled_from(["labeled", "with sidecar", "without sidecar"]))
    if kind == "labeled":
        return LabeledDataset(features=features, labels=labels), classes
    return UnlabeledDataset(features=features,
                            eval_labels=labels if kind == "with sidecar" else None), classes


@PROPERTY
@given(_datasets())
@example((LabeledDataset(features=np.zeros((3, 2)), labels=np.array([0, 7, 1])), 4))
@example((UnlabeledDataset(features=np.zeros((3, 2)), eval_labels=np.full(3, -1)), 4))
@example((LabeledDataset(features=np.zeros((2, 1)), labels=np.array([3.5, 1.9])), 4))
@example((UnlabeledDataset(features=np.zeros((2, 2)), eval_labels=None), -1))
@example((UnlabeledDataset(features=np.zeros((2, 2)), eval_labels=None), 2**53))
@example((LabeledDataset(features=np.zeros((1, 1)), labels=np.array([7.0])), 8))
def test_dataset_writer_refuses_what_its_loader_refuses(tmp_path, drawn):
    dataset, classes = drawn
    path = _fresh(tmp_path, "d.ds")
    labels = _labels(dataset)
    bad_table = not np.isfinite(dataset.features).all() or not 0 <= classes < 2**53
    if bad_table or (labels is not None
                     and ((labels < 0) | (labels >= classes) | (labels % 1 != 0)).any()):
        labeled = isinstance(dataset, LabeledDataset)
        with _refused(path if bad_table or labeled else f"{path}.eval"):
            save_dataset(path, dataset, classes)
        assert not any(path.parent.iterdir())  # neither the table nor a sidecar
    else:
        save_dataset(path, dataset, classes)
        _assert_dataset_read_back(path, dataset, classes)


# what a pairs file cannot hold: an index that is not an int in
# [0, 2**53), and a cost that is not a real number
_NON_INDICES = st.sampled_from([0.5, 1.0, -1, 2**53, True, np.float64(2.0)])
_NON_COSTS = st.sampled_from(["x", "1.5", True, None, 1j])


@st.composite
def _any_pairs(draw):
    """Pairs whose source or target indices may repeat, with costs and a
    total that may be non-finite; one index may be held as a numpy int or
    be no index, and the total or one cost may be no real number."""
    n, any_float = draw(st.integers(0, 6)), finite | _NONFINITE
    indices = draw(st.lists(st.integers(0, 8), min_size=2 * n, max_size=2 * n))
    if n and draw(st.booleans()):
        indices[draw(st.integers(0, 2 * n - 1))] = draw(
            st.integers(0, 8).map(np.int64) | _NON_INDICES)
    costs = draw(st.none() | st.lists(any_float, min_size=n, max_size=n))
    values = [draw(any_float), *(costs or ())]  # the total, then the costs
    if draw(st.booleans()):
        values[draw(st.integers(0, len(values) - 1))] = draw(_NON_COSTS)
    ends = iter(indices)
    return MatchedPairs(pairs=tuple(zip(ends, ends)), total_cost=values[0],
                        costs=None if costs is None else tuple(values[1:]))


def _is_index(value) -> bool:
    return isinstance(value, (int, np.integer)) and type(value) is not bool and 0 <= value < 2**53


def _is_cost(value) -> bool:
    return isinstance(value, (int, float)) and type(value) is not bool


@PROPERTY
@given(_any_pairs())
@example(MatchedPairs(pairs=((0, 1), (0, 2)), total_cost=1.0, costs=(0.5, 0.5)))
@example(MatchedPairs(pairs=((0.5, 1),), total_cost=1.0, costs=(1.0,)))
@example(MatchedPairs(pairs=((-1, 1),), total_cost=1.0, costs=(1.0,)))
@example(MatchedPairs(pairs=((True, 1),), total_cost=1.0, costs=(1.0,)))
@example(MatchedPairs(pairs=((0, 1),), total_cost=1.0, costs=("x",)))
def test_pairs_writer_writes_only_a_matching(tmp_path, mp):
    path = _fresh(tmp_path, "pairs.txt")
    indices = [index for pair in mp.pairs for index in pair]
    costs = (mp.total_cost, *(mp.costs or ()))
    if (not all(map(_is_index, indices)) or not all(map(_is_cost, costs))
            or any(len(set(side)) < len(side) for side in zip(*mp.pairs))):
        with _refused(path):
            save_pairs(path, mp)
        assert not path.exists()
    else:
        save_pairs(path, mp)
        _assert_pairs_read_back(path, mp)


def _strict_json(value) -> bool:
    """Whether ``value`` holds only what strict JSON can: finite numbers,
    strings, booleans, None, lists and dicts with string keys."""
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, (list, dict)):
        return all(map(_strict_json, value.values() if isinstance(value, dict) else value))
    return value is None or isinstance(value, (bool, int, str))


def _same_json(a, b) -> bool:
    """Equal values of the same types, floats bit for bit."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return _same_bits(a, b)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same_json, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_json(a[k], b[k]) for k in a)
    return a == b


# every kind of JSON value, and NaN and the infinities, which strict JSON cannot hold
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2**64, 2**64) | st.floats() | st.text(max_size=4)
    | _NONFINITE,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=8)


@PROPERTY
@given(_JSON)
@example({"x": math.nan})
@example({"x": object()})
def test_json_writer_refuses_what_strict_json_cannot_hold(tmp_path, payload):
    path = _fresh(tmp_path, "out.json")
    if _strict_json(payload):
        write_json(path, payload)
        assert _same_json(json.loads(path.read_text(encoding="utf-8")), payload)
    else:
        with _refused(path):
            write_json(path, payload)
        assert not path.exists()


_NEGATIVE = st.floats(max_value=-5e-324, allow_infinity=False)
_NOT_POSITIVE = st.floats(max_value=0.0, allow_infinity=False)
_ONE_OR_MORE = st.floats(min_value=1.0, allow_infinity=False)


def _ints(low):
    return st.integers(low, 2**64), st.integers(-2**64, low - 1)


# each kind of range: (its values, values out of it)
_RANGES = {
    "int >= 0": _ints(0),
    "int >= 1": _ints(1),
    "int >= 2": _ints(2),
    "finite": (finite, _NONFINITE),
    ">= 0": (non_negative, _NEGATIVE | _NONFINITE),
    "> 0": (positive, _NOT_POSITIVE | _NONFINITE),
    "[0, 1)": (st.floats(0.0, 1.0, exclude_max=True), _NEGATIVE | _ONE_OR_MORE | _NONFINITE),
    "(0, 1)": (st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
               _NOT_POSITIVE | _ONE_OR_MORE | _NONFINITE),
}
# every config key but the flags and synth.total_classes, which are drawn
# against other keys; loss.w may also be left out
_KEY_RANGES = {
    **dict.fromkeys(["synth.known_classes", "synth.input_dim", "synth.word_dim",
                     "synth.source_per_class", "synth.target_per_class",
                     "pretrain.epochs", "pretrain.batch_size", "gcn.steps",
                     "train.feature_dim", "train.epochs", "train.batch_size",
                     "train.folds"], "int >= 1"),
    **dict.fromkeys(["synth.seed", "train.rematch_interval", "train.seed"], "int >= 0"),
    "synth.branching": "int >= 2",
    **dict.fromkeys(["synth.rotation_angle", "loss.tau"], "finite"),
    **dict.fromkeys(["synth.step", "synth.noise", "synth.word_noise",
                     "synth.translation_scale", "loss.lambda_d", "loss.lambda_b",
                     "loss.lambda_g", "gcn.slope"], ">= 0"),
    **dict.fromkeys(["loss.epsilon", "pretrain.learning_rate", "gcn.learning_rate",
                     "gcn.init_scale", "train.learning_rate"], "> 0"),
    **dict.fromkeys(["pretrain.momentum", "gcn.momentum", "train.momentum"], "[0, 1)"),
    "loss.w": "(0, 1)",
}


@st.composite
def _configs(draw):
    """(config, whether loss.w was left out): every key drawn from its valid
    range, total_classes >= known_classes, and flags that the class counts
    allow."""
    keys = {key: draw(_RANGES[kind][0]) for key, kind in _KEY_RANGES.items()}
    w_left_out = draw(st.booleans())
    if w_left_out:
        keys["loss.w"] = None
    known = keys["synth.known_classes"]
    keys["synth.total_classes"] = known + draw(st.integers(0, 2**64))
    open_set = keys["synth.total_classes"] > known
    balance = draw(st.sampled_from(["lb", "vanilla", "none"])) if open_set else "none"
    keys.update({"flags.enable_lb": balance == "lb", "flags.vanilla_balance": balance == "vanilla",
                 "flags.enable_gcn": open_set and draw(st.booleans()),
                 "flags.enable_sgmd": draw(st.booleans())})
    sections = {}
    for key, value in keys.items():
        section, _, name = key.partition(".")
        sections.setdefault(section, {})[name] = value
    top = {**sections.pop("train"), **sections.pop("flags")}
    base = ExperimentConfig()
    parts = {name: type(getattr(base, name))(**values) for name, values in sections.items()}
    return ExperimentConfig(**parts, **top), w_left_out


def _with_line(text: str, key: str, value) -> str:
    """Config text with the line of ``key`` set to ``value``, or dropped
    when ``value`` is None."""
    lines = [line for line in text.splitlines() if not line.startswith(f"{key} = ")]
    return "\n".join(lines + ([f"{key} = {value}"] if value is not None else [])) + "\n"


CONFIG_PROPERTY = settings(max_examples=150, deadline=None)


@CONFIG_PROPERTY
@given(_configs())
def test_config_round_trip(drawn):
    cfg, w_left_out = drawn
    text = config_to_text(cfg)
    assert parse_config(text) == cfg
    assert experiment_hash(parse_config(text)) == experiment_hash(cfg)
    if w_left_out:
        # the text without its loss.w line derives the same default
        assert parse_config(_with_line(text, "loss.w", None)) == cfg


@CONFIG_PROPERTY
@given(_configs(), st.integers(1, 2**64), st.integers(0, 2**64))
@example((ExperimentConfig(), True), 1, 2**64 - 1)
@example((ExperimentConfig(), True), 2**1100 - 1, 1)
def test_a_replaced_synth_section_is_a_config_built_in_one_call(drawn, known, unknown):
    """``replace`` of the synth section gives the config, and the loss.w,
    that parsing the text with the new class counts gives: a default w
    (left out of the text) follows the counts, an explicit one stays."""
    cfg, w_left_out = drawn
    if not unknown and (cfg.enable_lb or cfg.vanilla_balance or cfg.enable_gcn):
        unknown = 1  # those terms need unknown classes
    replaced = replace(cfg, synth=replace(cfg.synth, known_classes=known,
                                          total_classes=known + unknown))
    text = config_to_text(cfg)
    if w_left_out or cfg.loss.w is None:  # a w set to the derived one is the default too
        text = _with_line(text, "loss.w", None)
    text = _with_line(text, "synth.known_classes", known)
    built = parse_config(_with_line(text, "synth.total_classes", known + unknown))
    assert replaced == built
    assert config.loss_w(replaced) == config.loss_w(built)
    assert parse_config(config_to_text(replaced)) == replaced


@CONFIG_PROPERTY
@given(_configs(), st.sampled_from([*_KEY_RANGES, "synth.total_classes"]), st.data())
def test_config_refuses_a_key_out_of_range(drawn, key, data):
    """One key out of its range is refused as config text and from Python,
    each time with a ConfigError naming ``section.key``."""
    cfg, _ = drawn
    section, _, name = key.partition(".")
    if key == "synth.total_classes":
        value = data.draw(st.integers(-2**64, cfg.synth.known_classes - 1))
    else:
        value = data.draw(_RANGES[_KEY_RANGES[key]][1])
    with pytest.raises(ConfigError, match=re.escape(key)):
        parse_config(_with_line(config_to_text(cfg), key, value))
    part = cfg if section == "train" else getattr(cfg, section)
    with pytest.raises(ConfigError, match=re.escape(key)):
        replace(part, **{name: value})


# ------------------------------------------------------------ exact bytes
# The round trips above pin values; these pin the text the writers emit.

@pytest.mark.parametrize("m, text", [
    ([[-0.0, 5e-324, 1.7976931348623157e308],
      [-1.7976931348623157e308, 0.1, 1e22]],
     "2 3\n-0 4.9406564584124654e-324 1.7976931348623157e+308\n"
     "-1.7976931348623157e+308 0.10000000000000001 1e+22\n"),
    (np.zeros((0, 3)), "0 3\n"),
    (np.zeros((2, 0)), "2 0\n\n\n"),
    ([[0.25]], "1 1\n0.25\n"),
])
def test_matrix_text_is_exact(tmp_path, m, text):
    path = tmp_path / "m.mat"
    save_matrix(path, m)
    assert path.read_bytes() == text.encode("utf-8")


_FEATURES = np.array([[0.5, -0.0], [0.1, 1e22]])


@pytest.mark.parametrize("features, labels, table, sidecar", [
    (_FEATURES, [3, 0], "2 2 labeled {} classes 4\n{} 0.5 -0\n{} 0.10000000000000001 1e+22\n",
     "3\n0\n"),
    (np.zeros((0, 2)), [], "0 2 labeled {} classes 4\n", ""),
    # no feature columns: the label (or `?`) keeps its trailing space
    (np.zeros((2, 0)), [3, 1], "2 0 labeled {} classes 4\n{} \n{} \n", "3\n1\n"),
    (np.array([[5e-324], [-2.5]]), [2, 3],
     "2 1 labeled {} classes 4\n{} 4.9406564584124654e-324\n{} -2.5\n", "2\n3\n"),
])
def test_dataset_text_is_exact(tmp_path, features, labels, table, sidecar):
    labels = np.array(labels, dtype=int)
    path = tmp_path / "source.ds"
    save_dataset(path, LabeledDataset(features=features, labels=labels), 4)
    assert path.read_bytes() == table.format(1, *labels).encode("utf-8")
    assert not (tmp_path / "source.ds.eval").exists()

    path = tmp_path / "target.ds"
    save_dataset(path, UnlabeledDataset(features=features, eval_labels=labels), 4)
    assert path.read_bytes() == table.format(0, *["?"] * len(labels)).encode("utf-8")
    assert (tmp_path / "target.ds.eval").read_bytes() == sidecar.encode("utf-8")
