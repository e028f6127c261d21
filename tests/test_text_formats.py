"""Round-trip properties of the text formats: what a writer emits, its
reader gives back exactly, float64 bit patterns included."""
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from opendomain import config
from opendomain.config import (
    ConfigError, ExperimentConfig, config_to_text, experiment_hash, parse_config)
from opendomain.graph import KnowledgeGraph, load_graph, save_graph
from opendomain.matching import MatchedPairs, save_pairs
from opendomain.numkit import load_matrix, save_matrix
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


@PROPERTY
@given(_labeled())
def test_labeled_dataset_round_trip(tmp_path, drawn):
    dataset, classes = drawn
    path = tmp_path / "source.ds"
    save_dataset(path, dataset, classes)
    loaded, loaded_classes = load_dataset(path)
    assert isinstance(loaded, LabeledDataset) and loaded_classes == classes
    assert _same_bits(loaded.features, dataset.features)
    assert np.array_equal(loaded.labels, dataset.labels)


@PROPERTY
@given(_labeled())
def test_unlabeled_dataset_round_trip_with_sidecar(tmp_path, drawn):
    labeled, classes = drawn
    dataset = UnlabeledDataset(features=labeled.features, eval_labels=labeled.labels)
    path = tmp_path / "target.ds"
    save_dataset(path, dataset, classes)
    loaded, loaded_classes = load_dataset(path)
    assert isinstance(loaded, UnlabeledDataset) and loaded_classes == classes
    assert _same_bits(loaded.features, dataset.features)
    assert np.array_equal(loaded.eval_labels, dataset.eval_labels)


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


_NONFINITE = st.sampled_from([math.nan, math.inf, -math.inf])
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
    """One key out of its range is refused as config text (ConfigError) and
    from Python (ValueError), each time naming ``section.key``."""
    cfg, _ = drawn
    section, _, name = key.partition(".")
    if key == "synth.total_classes":
        value = data.draw(st.integers(-2**64, cfg.synth.known_classes - 1))
    else:
        value = data.draw(_RANGES[_KEY_RANGES[key]][1])
    with pytest.raises(ConfigError, match=re.escape(key)):
        parse_config(_with_line(config_to_text(cfg), key, value))
    part = cfg if section == "train" else getattr(cfg, section)
    with pytest.raises(ValueError, match=re.escape(key)):
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
