import copy
import itertools
import math
import re
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from opendomain import config, gcn, synth
from opendomain.config import (
    ConfigError, ExperimentConfig, GcnSchedule, LossWeights, PretrainSchedule, apply_flags,
    config_to_text, experiment_hash, loss_w, parse_config)
from opendomain.gcn import propagate
from opendomain.losses import NonFiniteLossError, cls_core
from opendomain.matching import partition_folds
from opendomain.model import ModelState, encode
from opendomain.numkit import make_rng, softmax_rows
from opendomain import trainer
from opendomain.trainer import (
    ABLATION_VARIANTS,
    DA_VARIANTS,
    format_ablation_table,
    joint_terms,
    run_ablation,
    run_pipeline,
)

from gradcheck import grad_check
from joint_reference import (checked_joint_terms, checked_pretrain_source, encode_backward,
                             gradient_arrays, reference_terms, reference_total)

# the checkpoint names of the arrays joint_terms writes gradients into, in order
_GRAD_NAMES = ("encoder.weight", "encoder.bias", "head.weights", "gcn.theta")


def _small_cfg(**overrides):
    base = dict(
        synth=synth.SynthConfig(known_classes=3, total_classes=5,
                                input_dim=6, word_dim=12,
                                source_per_class=10, target_per_class=10,
                                seed=0),
        pretrain=PretrainSchedule(epochs=3),
        gcn=GcnSchedule(steps=300),
        feature_dim=5,
        epochs=3,
        batch_size=8,
        folds=2,
        seed=0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


MINIMAL = "train.seed = 0\nsynth.seed = 0\n"


def test_parse_minimal_config():
    cfg = parse_config(MINIMAL)
    assert cfg.seed == 0
    assert cfg.enable_lb and cfg.enable_sgmd and cfg.enable_gcn
    assert not cfg.vanilla_balance


def test_parse_default_w_is_unknown_fraction():
    cfg = parse_config(MINIMAL + "synth.known_classes = 6\n"
                       "synth.total_classes = 10\n")
    assert loss_w(cfg) == pytest.approx(0.4)
    cfg = parse_config(MINIMAL + "loss.w = 0.25\n")
    assert cfg.loss.w == 0.25


def test_default_w_is_the_same_in_python_and_in_a_config_file():
    for known, total, w in ((8, 10, 0.2), (8, 8, 0.5)):
        flags = {} if known < total else {"enable_lb": False, "enable_gcn": False}
        built = ExperimentConfig(
            synth=synth.SynthConfig(known_classes=known, total_classes=total), **flags)
        text = config_to_text(built).replace(f"loss.w = {w}\n", "")
        assert text != config_to_text(built)
        assert loss_w(parse_config(text)) == loss_w(built) == w


def test_default_w_follows_a_replaced_synth_section():
    # w was once resolved at construction, so a replace kept the stale 1/3
    section = synth.SynthConfig(total_classes=10)
    replaced = replace(ExperimentConfig(), synth=section)
    assert loss_w(replaced) == loss_w(ExperimentConfig(synth=section)) == 0.2
    assert config_to_text(replaced) == config_to_text(ExperimentConfig(synth=section))


@pytest.mark.parametrize("known, total", [(1, 2**64), (2**1100 - 1, 2**1100)])
def test_default_w_of_huge_class_counts_stays_in_its_range(known, total):
    # (total - known) / total rounds to 1 past 2**53 classes and to 0 past 2**1074
    cfg = ExperimentConfig(synth=synth.SynthConfig(known_classes=known, total_classes=total))
    assert 0 < loss_w(cfg) < 1
    assert parse_config(config_to_text(cfg)) == cfg


def test_parse_sections_and_comments():
    text = MINIMAL + """
# a comment line
loss.tau = 0.7          # trailing comment
gcn.slope = 0.1
pretrain.epochs = 4
train.batch_size = 16
flags.enable_sgmd = false
"""
    cfg = parse_config(text)
    assert cfg.loss.tau == 0.7
    assert cfg.gcn.slope == 0.1
    assert cfg.pretrain.epochs == 4
    assert cfg.batch_size == 16
    assert not cfg.enable_sgmd


@pytest.mark.parametrize("text", [
    "train.seed = 0\n",                      # missing synth.seed
    "synth.seed = 0\n",                      # missing train.seed
    MINIMAL + "train.bogus = 1\n",           # unknown key
    MINIMAL + "nosection = 1\n",             # key without section
    MINIMAL + "train.seed = 1\n",            # duplicate
    MINIMAL + "train.epochs = banana\n",     # unparsable value
    MINIMAL + "loss.w = 1.5\n",              # out-of-range value
    MINIMAL + "flags.enable_lb = true\nflags.vanilla_balance = true\n",
    MINIMAL + "train.learning_rate = nan\n",
    MINIMAL + "train.momentum = nan\n",
    MINIMAL + "pretrain.learning_rate = nan\n",
    MINIMAL + "pretrain.learning_rate = 0\n",
    MINIMAL + "pretrain.momentum = 1.0\n",
    MINIMAL + "pretrain.epochs = 0\n",
    MINIMAL + "pretrain.batch_size = 0\n",
    MINIMAL + "gcn.learning_rate = inf\n",
    MINIMAL + "gcn.momentum = -3.0\n",
    MINIMAL + "gcn.steps = 0\n",
    MINIMAL + "gcn.init_scale = 0\n",
    MINIMAL + "gcn.init_scale = nan\n",
    MINIMAL + "train.learning_rate = inf\n",
    MINIMAL + "loss.tau = nan\n",
    MINIMAL + "loss.epsilon = nan\n",
    MINIMAL + "loss.epsilon = inf\n",
    MINIMAL + "synth.noise = nan\n",
    MINIMAL + "synth.rotation_angle = nan\n",
    MINIMAL + "gcn.slope = nan\n",
    MINIMAL + "flags.enable_lb = maybe\n",  # not a bool token
])
def test_parse_rejects_bad_configs(text):
    with pytest.raises(ConfigError):
        parse_config(text)


def test_experiment_config_rejects_infinite_learning_rate():
    with pytest.raises(ConfigError):
        ExperimentConfig(learning_rate=float("inf"))


# every bounded key of the five sections with a value out of its range;
# the non-finite ones are refused from Python as they are from text
_OUT_OF_RANGE = [
    ("synth.known_classes", 0), ("synth.total_classes", 7), ("synth.input_dim", 0),
    ("synth.word_dim", 0), ("synth.source_per_class", 0), ("synth.target_per_class", 0),
    ("synth.branching", 1), ("synth.step", -0.1), ("synth.noise", -0.1),
    ("synth.noise", math.nan), ("synth.word_noise", math.inf),
    ("synth.rotation_angle", math.inf), ("synth.translation_scale", -0.1),
    ("synth.seed", -1),
    ("loss.lambda_d", -0.1), ("loss.lambda_b", -1.0), ("loss.lambda_g", math.nan),
    ("loss.tau", math.inf), ("loss.w", 0.0), ("loss.w", 1.0), ("loss.epsilon", 0.0),
    ("pretrain.learning_rate", 0.0), ("pretrain.momentum", 1.0),
    ("pretrain.momentum", -0.1), ("pretrain.epochs", 0), ("pretrain.batch_size", 0),
    ("gcn.learning_rate", 0.0), ("gcn.learning_rate", math.inf), ("gcn.momentum", 1.5),
    ("gcn.steps", 0), ("gcn.init_scale", 0.0), ("gcn.slope", -0.1),
    ("train.feature_dim", 0), ("train.learning_rate", 0.0), ("train.momentum", 1.0),
    ("train.epochs", 0), ("train.epochs", math.nan), ("train.batch_size", 0),
    ("train.folds", 0), ("train.rematch_interval", -1), ("train.seed", -1),
]
# the boundary values that stay accepted
_ON_THE_BOUND = [
    ("pretrain.momentum", 0.0), ("gcn.momentum", 0.0), ("train.momentum", 0.0),
    ("synth.branching", 2), ("train.rematch_interval", 0), ("gcn.slope", 0.0),
]


@pytest.mark.parametrize(
    "key, value, refused",
    [(k, v, True) for k, v in _OUT_OF_RANGE] + [(k, v, False) for k, v in _ON_THE_BOUND],
    ids=[f"{k} = {v}" for k, v in _OUT_OF_RANGE + _ON_THE_BOUND])
def test_config_key_bounds(key, value, refused):
    """A value out of a key's range is refused as config text (ConfigError)
    and from Python (ValueError), each time naming ``section.key``."""
    section, _, name = key.partition(".")
    keys = {"train.seed": 0, "synth.seed": 0, key: value}
    text = "".join(f"{k} = {v}\n" for k, v in keys.items())
    kind = (ExperimentConfig if section == "train"
            else type(getattr(ExperimentConfig(), section)))
    if not refused:
        cfg = parse_config(text)
        part = cfg if section == "train" else getattr(cfg, section)
        assert getattr(part, name) == value == getattr(kind(**{name: value}), name)
        return
    with pytest.raises(ConfigError, match=re.escape(key)):
        parse_config(text)
    with pytest.raises(ValueError, match=re.escape(key)):
        kind(**{name: value})


@pytest.mark.parametrize("lines, keys", [
    ("flags.enable_lb = true\nflags.vanilla_balance = true\n",
     ("flags.enable_lb", "flags.vanilla_balance")),
    ("synth.total_classes = 8\n",
     ("flags.enable_lb and flags.enable_gcn", "synth.known_classes", "synth.total_classes")),
    ("synth.total_classes = 8\nflags.enable_lb = false\nflags.vanilla_balance = true\n"
     "flags.enable_gcn = false\n", ("flags.vanilla_balance need", "synth.total_classes")),
    ("synth.known_classes = 13\n", ("synth.known_classes", "synth.total_classes")),
])
def test_cross_key_refusals_name_their_keys(lines, keys):
    with pytest.raises(ConfigError) as exc:
        parse_config(MINIMAL + lines)
    for key in keys:
        assert key in str(exc.value)


# the config_hash in metrics.json and checkpoints is a hash of this text
DEFAULT_CONFIG_TEXT = """\
synth.branching = 3
synth.input_dim = 16
synth.known_classes = 8
synth.noise = 0.5
synth.rotation_angle = 0.25
synth.seed = 0
synth.source_per_class = 50
synth.step = 0.65
synth.target_per_class = 50
synth.total_classes = 12
synth.translation_scale = 3.5
synth.word_dim = 32
synth.word_noise = 0.3
loss.epsilon = 0.05
loss.lambda_b = 0.04
loss.lambda_d = 0.5
loss.lambda_g = 0.5
loss.tau = 0.3
loss.w = 0.3333333333333333
pretrain.batch_size = 32
pretrain.epochs = 12
pretrain.learning_rate = 0.05
pretrain.momentum = 0.9
gcn.init_scale = 1.0
gcn.learning_rate = 0.5
gcn.momentum = 0.97
gcn.slope = 0.2
gcn.steps = 8000
train.batch_size = 32
train.epochs = 40
train.feature_dim = 16
train.folds = 5
train.learning_rate = 0.05
train.momentum = 0.9
train.rematch_interval = 0
train.seed = 0
flags.enable_gcn = True
flags.enable_lb = True
flags.enable_sgmd = True
flags.vanilla_balance = False
"""


def test_config_text_roundtrip():
    cfg = _small_cfg(enable_sgmd=False)
    assert parse_config(config_to_text(cfg)) == cfg
    assert config_to_text(ExperimentConfig()) == DEFAULT_CONFIG_TEXT
    assert parse_config(DEFAULT_CONFIG_TEXT) == ExperimentConfig()


# values of another type than the key's, which config text cannot spell
_WRONG_TYPE = [
    ("train.epochs", 2.5), ("train.seed", True), ("train.batch_size", "32"),
    ("train.learning_rate", True), ("train.learning_rate", 10**400),
    ("flags.enable_lb", "no"), ("flags.enable_sgmd", 1),
    ("synth.known_classes", 8.0), ("synth.total_classes", np.float64(12)),
    ("synth.noise", "0.5"), ("loss.tau", False), ("pretrain.epochs", True),
    ("gcn.steps", 100.0),
]


@pytest.mark.parametrize("key, value", _WRONG_TYPE,
                         ids=[f"{k}: {type(v).__name__}" for k, v in _WRONG_TYPE])
def test_python_config_refuses_other_types(key, value):
    """An int key takes no float or bool, a float key no bool, a flag
    nothing but a bool: ExperimentConfig and each section refuse with
    ConfigError, naming ``section.key``."""
    section, _, name = key.partition(".")
    kind = (ExperimentConfig if section in ("train", "flags")
            else type(getattr(ExperimentConfig(), section)))
    with pytest.raises(ConfigError, match=re.escape(key)) as exc:
        kind(**{name: value})
    assert type(exc.value) is ConfigError


@pytest.mark.parametrize("section, value", [
    ("gcn", {"steps": 3}), ("loss", {"tau": 1.0}), ("synth", None),
    ("pretrain", GcnSchedule()),
])
def test_a_section_of_another_type_is_refused(section, value):
    # a dict used to be written into the config text, and None or a dict
    # read for loss.w ended in an AttributeError
    with pytest.raises(ConfigError, match=rf"^{section} must be a \w+, got "):
        ExperimentConfig(**{section: value})


@pytest.mark.parametrize("section", [synth.SynthConfig, LossWeights, PretrainSchedule,
                                     GcnSchedule, ExperimentConfig])
def test_every_number_key_declares_its_range(section):
    """Each int and float key is a ``key(default, rule)`` field of its own
    kind, so its range is checked by ``check_keys`` and written nowhere
    else."""
    numbers = [f for f in fields(section) if f.type.split(" |")[0] in ("int", "float")]
    assert numbers
    for f in numbers:
        assert f.metadata.get("rule") in config._RULES, f.name
        assert f.metadata["kind"].__name__ == f.type.split(" |")[0], f.name


def test_float_keys_store_an_int_as_a_float():
    """An int given to a float key writes the text, and so the hash, of the
    config parsed back from it."""
    cfg = ExperimentConfig(learning_rate=1, gcn=GcnSchedule(slope=0),
                           synth=synth.SynthConfig(noise=np.int64(1)))
    text = config_to_text(cfg)
    for line in ("train.learning_rate = 1.0", "gcn.slope = 0.0", "synth.noise = 1.0"):
        assert line + "\n" in text
    assert experiment_hash(cfg) == experiment_hash(parse_config(text))
    assert type(cfg.learning_rate) is type(cfg.synth.noise) is float


@pytest.mark.parametrize("section", ["pretrain", "gcn"])
def test_schedules_are_frozen(section):
    """A schedule cannot change after its checks ran, nor move the text of
    another config that shares it."""
    cfg = ExperimentConfig()
    other = replace(cfg, seed=1)
    with pytest.raises(FrozenInstanceError):
        getattr(other, section).momentum = -1.0
    assert config_to_text(cfg) == DEFAULT_CONFIG_TEXT


def test_apply_flags():
    # apply_flags takes the names of the flags.* keys of the config text and
    # nothing else, and every variant of the runners names only those
    text = config_to_text(ExperimentConfig())
    names = {line[len("flags."):].split(" = ")[0] for line in text.splitlines()
             if line.startswith("flags.")}
    assert names == {"enable_lb", "enable_sgmd", "enable_gcn", "vanilla_balance"}
    cfg = apply_flags(_small_cfg(), ("enable_sgmd", "vanilla_balance"))
    assert (cfg.enable_lb, cfg.enable_sgmd, cfg.enable_gcn,
            cfg.vanilla_balance) == (False, True, False, True)
    for name in names:
        assert {n for n in names if getattr(apply_flags(cfg, (name,)), n)} == {name}
    for other in ("bogus", "lb", "sgmd", "gcn", "vanilla", "flags.enable_lb", "epochs", ""):
        with pytest.raises(ConfigError, match=re.escape(f"not flags.* keys: [{other!r}]")):
            apply_flags(cfg, ("enable_sgmd", other))
    for label, on in {**ABLATION_VARIANTS, **DA_VARIANTS}.items():
        assert set(on) <= names, label


def test_experiment_hash_tracks_config():
    a = _small_cfg()
    b = _small_cfg(seed=1)
    assert experiment_hash(a) == experiment_hash(_small_cfg())
    assert experiment_hash(a) != experiment_hash(b)


def test_symmetric_config_rejects_balance_and_graph():
    sym = synth.SynthConfig(known_classes=4, total_classes=4, seed=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(synth=sym)
    cfg = ExperimentConfig(synth=sym, enable_lb=False, enable_gcn=False,
                           vanilla_balance=False)
    assert cfg.enable_sgmd


def test_pipeline_deterministic():
    cfg = _small_cfg()
    s1, h1 = run_pipeline(cfg)
    s2, h2 = run_pipeline(cfg)
    assert np.array_equal(s1.weight, s2.weight)
    assert np.array_equal(s1.head, s2.head)
    assert np.array_equal(s1.theta, s2.theta)
    assert h1 == h2


def test_pipeline_baseline_disables_terms():
    cfg = _small_cfg(enable_lb=False, enable_sgmd=False, enable_gcn=False)
    _, history = run_pipeline(cfg)
    for rec in history:
        assert rec["loss_sgmd"] == 0.0
        assert rec["loss_balance"] == 0.0
        assert rec["loss_gcn"] == 0.0
        assert rec["loss_total"] == pytest.approx(rec["loss_cls"])
        assert rec["gated_fraction"] == 0.0


def test_history_record_keys():
    _, history = run_pipeline(_small_cfg(epochs=2))
    assert len(history) == 2
    expected = {"epoch", "loss_cls", "loss_sgmd", "loss_balance", "loss_gcn",
                "loss_total", "gated_fraction", "known", "unknown", "all",
                "n_known", "n_unknown"}
    assert set(history[-1]) == expected
    assert history[-1]["epoch"] == 1


def test_theta_frozen_without_graph_term():
    short, _ = run_pipeline(_small_cfg(epochs=1, enable_gcn=False))
    long, _ = run_pipeline(_small_cfg(epochs=3, enable_gcn=False))
    assert np.array_equal(short.theta, long.theta)
    short_g, _ = run_pipeline(_small_cfg(epochs=1))
    long_g, _ = run_pipeline(_small_cfg(epochs=3))
    assert not np.array_equal(short_g.theta, long_g.theta)


def test_unknown_rows_move_only_under_balance_or_graph():
    # with balance and graph off, nothing routes gradient to the
    # unknown-class classifiers, so those rows stay at their propagated init
    ls = 3
    base = dict(enable_lb=False, enable_sgmd=False, enable_gcn=False)
    short, _ = run_pipeline(_small_cfg(epochs=1, **base))
    long, _ = run_pipeline(_small_cfg(epochs=3, **base))
    assert np.array_equal(short.head[ls:], long.head[ls:])
    assert not np.array_equal(short.head[:ls], long.head[:ls])
    short_b, _ = run_pipeline(_small_cfg(epochs=1, enable_sgmd=False,
                                         enable_gcn=False))
    long_b, _ = run_pipeline(_small_cfg(epochs=3, enable_sgmd=False,
                                        enable_gcn=False))
    assert not np.array_equal(short_b.head[ls:], long_b.head[ls:])


def test_training_never_reads_eval_labels():
    cfg = _small_cfg()
    data = synth.generate(cfg.synth)
    source, target, graph, words = data
    rng = make_rng(99)
    corrupted = synth.UnlabeledDataset(
        features=target.features,
        eval_labels=rng.permutation(target.eval_labels),
    )
    s1, h1 = run_pipeline(cfg, data=data)
    s2, h2 = run_pipeline(cfg, data=(source, corrupted, graph, words))
    assert np.array_equal(s1.head, s2.head)
    assert np.array_equal(s1.weight, s2.weight)
    assert np.array_equal(s1.theta, s2.theta)
    # only the reported accuracies may differ
    assert h1[-1]["loss_total"] == h2[-1]["loss_total"]


def test_rematch_interval_runs_and_is_deterministic():
    cfg = _small_cfg(rematch_interval=2, epochs=4)
    _, h1 = run_pipeline(cfg)
    _, h2 = run_pipeline(cfg)
    assert h1 == h2


def test_prepare_rejects_class_counts_other_than_the_data():
    cfg = _small_cfg()
    data = synth.generate(cfg.synth)
    for counts, refusal in (
            ((2, 5), "the graph: 3 known classes, not the synth.known_classes = 2 of the source"),
            ((3, 6), "the graph: 5 classes, not the synth.total_classes = 6 of the target")):
        other = replace(cfg.synth, known_classes=counts[0], total_classes=counts[1])
        with pytest.raises(ConfigError, match=re.escape(refusal)):
            trainer.prepare(replace(cfg, synth=other), data)
    # without a graph: the word-vector rows
    sym = replace(cfg.synth, known_classes=3, total_classes=3)
    sym_cfg = replace(cfg, synth=sym, enable_lb=False, enable_gcn=False)
    sym_data = synth.generate(sym)
    trainer.prepare(sym_cfg, sym_data)
    wider = replace(sym, known_classes=4, total_classes=4)
    with pytest.raises(ConfigError, match=re.escape(
            "the word vectors: 3 rows, not the synth.total_classes = 4 of the target")):
        trainer.prepare(replace(sym_cfg, synth=wider), sym_data)


def test_prepare_refuses_more_folds_than_rows_before_pretraining(monkeypatch):
    cfg = _small_cfg(folds=31)  # 30 source rows, 50 target rows
    data = synth.generate(cfg.synth)

    def pretrain(*args):
        raise AssertionError("pretraining ran")

    monkeypatch.setattr(trainer, "pretrain_source", pretrain)
    with pytest.raises(ConfigError, match=r"train\.folds = 31 .* source \(30\)"):
        trainer.prepare(cfg, data)
    with pytest.raises(AssertionError, match="pretraining ran"):
        trainer.prepare(replace(cfg, folds=30), data)


def _relabel(target, row, label):
    labels = target.eval_labels.copy()
    labels[row] = label
    return replace(target, eval_labels=labels)


def _poison(m, value):
    m = m.copy()
    m[0, -1] = value
    return m


@pytest.mark.parametrize("edit, refusal", [
    (lambda s, t, g, w: (s, replace(t, features=t.features[:, :-1]), g, w),
     "the target has 5 feature columns and the source 6, not the same number of at least one"),
    (lambda s, t, g, w: (replace(s, features=s.features[:, :0]),
                         replace(t, features=t.features[:, :0]), g, w),
     "the target has 0 feature columns and the source 0, not the same number of at least one"),
    (lambda s, t, g, w: (s, t, g, w[:, :0]),
     "the word vectors: 8 x 0, not 8 rows (one per node of the graph) of at least one column"),
    (lambda s, t, g, w: (s, t, g, w[:-1]),
     "the word vectors: 7 x 12, not 8 rows (one per node of the graph) of at least one column"),
    (lambda s, t, g, w: (s, t, g, _poison(w, np.inf)),
     "the word vectors: contains non-finite entries"),
    (lambda s, t, g, w: (s, replace(t, features=_poison(t.features, np.nan)), g, w),
     "the target: contains non-finite entries"),
    (lambda s, t, g, w: (s, _relabel(t, 7, 99), g, w),
     "the target eval labels run from 0 to 99, not over the 5 classes"),
    (lambda s, t, g, w: (s, _relabel(t, 7, -1), g, w),
     "the target eval labels run from -1 to 4, not over the 5 classes"),
    # a target without labels holds None; an array of -1s is out of range
    (lambda s, t, g, w: (s, replace(t, eval_labels=np.full(t.n, -1)), g, w),
     "the target eval labels run from -1 to -1, not over the 5 classes"),
    (lambda s, t, g, w: (s, t, None, w),
     "the graph is required when synth.known_classes < synth.total_classes"),
], ids=["narrow-target", "no-feature-columns", "no-word-dims", "word-row-short",
        "inf-word-vector", "nan-target-feature", "label-past-classes", "one-unlabeled-row",
        "all-unlabeled-rows", "no-graph"])
def test_prepare_refuses_data_that_does_not_fit_before_pretraining(monkeypatch, edit,
                                                                   refusal):
    # the CLI refuses each of these at load; from Python they used to fail
    # inside a later stage, or train and report wrong accuracies (no feature
    # columns trained to chance)
    cfg = _small_cfg()
    data = edit(*synth.generate(cfg.synth))

    def pretrain(*args):
        raise AssertionError("pretraining ran")

    monkeypatch.setattr(trainer, "pretrain_source", pretrain)
    with pytest.raises(ValueError, match=re.escape(refusal)) as exc:
        trainer.prepare(cfg, data)
    assert "\n" not in str(exc.value)


def test_prepare_takes_a_symmetric_source_missing_its_top_class():
    # known == total without a graph: the class count is the config's and
    # the word vectors', not one more than the largest source label
    cfg = _sym_cfg()
    source, target, graph, words = synth.generate(cfg.synth)
    keep = source.labels < cfg.synth.known_classes - 1
    short = synth.LabeledDataset(features=source.features[keep], labels=source.labels[keep])
    trainer.prepare(cfg, (short, target, graph, words))


def test_prepared_partner_leaves_the_surplus_sources_unmatched():
    # 30 sources against 20 targets in 4 folds of 8, 8, 7, 7 and 5 each
    sizes = replace(_small_cfg().synth, target_per_class=4)
    cfg = _small_cfg(synth=sizes, folds=4)
    prepared = trainer.prepare(cfg, synth.generate(cfg.synth))
    partner, n_s, n_t = prepared.partner, prepared.source.n, prepared.target.n
    assert partner.shape == (n_s,)
    assert np.all((partner == -1) | ((partner >= 0) & (partner < n_t)))
    matched = partner[partner >= 0]
    assert len(np.unique(matched)) == len(matched)
    # fold sizes do not depend on the rng
    s_folds, t_folds = partition_folds(n_s, n_t, cfg.folds, make_rng(0))
    assert np.sum(partner == -1) == n_s - sum(
        min(len(s), len(t)) for s, t in zip(s_folds, t_folds))
    # rematching every epoch still trains
    _, history = run_pipeline(replace(cfg, rematch_interval=1))
    assert len(history) == cfg.epochs
    assert all(math.isfinite(rec["loss_total"]) for rec in history)
    assert history[-1]["loss_total"] < history[0]["loss_total"]
    assert history[-1]["loss_sgmd"] > 0  # the rematched partners reach SGMD


def test_sgmd_sees_only_matched_sources(monkeypatch):
    # 45 sources against 30 targets: a third of the sources stay unmatched
    sizes = replace(_small_cfg().synth, source_per_class=15, target_per_class=6)
    cfg = _small_cfg(synth=sizes, epochs=2)
    seen = []
    original = trainer.sgmd_core

    def spy(f_ms, f_mt, *rest):
        seen.append(len(f_ms))
        return original(f_ms, f_mt, *rest)

    monkeypatch.setattr(trainer, "sgmd_core", spy)
    run_pipeline(cfg)
    assert sum(seen) == cfg.epochs * 30


def test_end_to_end_objective_gradient():
    # one joint-loop step as the loop takes it; every parameter gradient
    # must agree with central differences on the summed objective
    rng = make_rng(0)
    ls, lt, m_in, m, c = 2, 4, 3, 4, 6
    n_nodes = 5
    raw_s = rng.standard_normal((3, m_in))
    labels = np.array([0, 1, 0])
    raw_t = rng.standard_normal((3, m_in))
    raw_mt = rng.standard_normal((3, m_in))
    p_norm = rng.random((n_nodes, n_nodes)) + 0.1
    p_norm /= p_norm.sum(axis=1, keepdims=True)
    words = rng.standard_normal((n_nodes, c))
    z_class = propagate(p_norm, words, [0, 1, 2, 4])
    # tau 0 keeps every pair gated, so the stop-gradient gate is constant
    cfg = ExperimentConfig(loss=LossWeights(
        lambda_d=0.7, lambda_b=0.3, lambda_g=0.9, tau=0.0, w=0.4, epsilon=1e-12))

    def objective(enc_w, enc_b, head_w, theta):
        state = ModelState(enc_w, enc_b.ravel(), head_w, ls, theta)
        opt = gradient_arrays(state, cfg)
        values, total, _ = joint_terms(opt, ls, z_class, cfg, raw_s, labels,
                                       raw_t, raw_s, raw_mt)
        assert set(values) == {"cls", "balance", "sgmd", "gcn"}
        return total, opt.grads

    enc_w = rng.standard_normal((m_in, m))
    enc_b = rng.standard_normal((1, m))
    head_w = rng.standard_normal((lt, m))
    theta = rng.standard_normal((c, m))
    assert float(np.min(np.abs(p_norm @ words @ theta))) > 1e-3
    d_enc_w, d_enc_b, d_head_w, d_theta = objective(enc_w, enc_b, head_w, theta)[1]
    checks = [
        (lambda v: objective(v, enc_b, head_w, theta)[0], enc_w, d_enc_w),
        (lambda v: objective(enc_w, v, head_w, theta)[0], enc_b, d_enc_b.reshape(1, -1)),
        (lambda v: objective(enc_w, enc_b, v, theta)[0], head_w, d_head_w),
        (lambda v: objective(enc_w, enc_b, head_w, v)[0], theta, d_theta),
    ]
    for fn, x, analytic in checks:
        assert grad_check(fn, x, analytic, eps=1e-6) <= 1e-4


def _close(actual, expected):
    """Entrywise within rtol 1e-12; entries that cancel to near zero are
    held to 1e-12 of the array's largest entry."""
    expected = np.asarray(expected, float)
    np.testing.assert_allclose(actual, expected, rtol=1e-12,
                               atol=1e-12 * float(np.max(np.abs(expected))))


_ALL_VARIANTS = {**ABLATION_VARIANTS, **DA_VARIANTS}


# every variant at w = 0.4, and lb at the w that loss_w derives from the
# class counts, which LossWeights holds as None
_STEP_CASES = [(variant, 0.4) for variant in _ALL_VARIANTS] + [("lb", None)]


@pytest.mark.parametrize("variant, w", _STEP_CASES,
                         ids=[*_ALL_VARIANTS, "lb at the default w"])
def test_stacked_step_matches_the_per_term_reference(variant, w):
    # the one-pass step against the per-term step it replaced, on batches
    # with no, some and all rows matched, and gates closed, mixed and open
    open_set = variant in ABLATION_VARIANTS
    known, total = (4, 6) if open_set else (4, 4)
    rng = make_rng(len(variant))
    m_in, m, words, n = 6, 5, 7, 8
    z_class = None
    if open_set:
        p_norm = rng.random((total + 2, total + 2)) + 0.1
        p_norm /= p_norm.sum(axis=1, keepdims=True)
        z_class = propagate(p_norm, rng.standard_normal((total + 2, words)),
                            list(range(total)))
    for tau in (1.0, 0.1, 0.0):
        lw = LossWeights(lambda_d=0.7, lambda_b=0.3, lambda_g=0.9, tau=tau,
                         w=w, epsilon=1e-12)
        # the step reads only the flags, the loss weights and (for w) the
        # class counts of a config
        cfg = apply_flags(ExperimentConfig(loss=lw), _ALL_VARIANTS[variant])
        for matched in (0, 3, n):
            for _ in range(3):
                state = ModelState(
                    rng.standard_normal((m_in, m)), rng.standard_normal(m),
                    rng.standard_normal((total, m)), known,
                    rng.standard_normal((words, m)))
                raw_s = rng.standard_normal((n, m_in))
                labels = rng.integers(0, known, n)
                raw_t = rng.standard_normal((n, m_in))
                raw_ms = raw_s[np.sort(rng.permutation(n)[:matched])]
                raw_mt = rng.standard_normal((matched, m_in))
                batch = (raw_s, labels, raw_t, raw_ms, raw_mt)
                ref_terms, ref_gate = reference_terms(state, z_class, cfg, *batch)
                ref_total, ref_grads = reference_total(ref_terms, lw)
                opt = gradient_arrays(state, cfg)
                values, total_value, gate = joint_terms(opt, known, z_class, cfg, *batch)

                assert np.array_equal(gate, ref_gate)
                if cfg.enable_sgmd and matched:
                    # responses are positive and their inner product at most 1
                    if tau == 0.0:
                        assert gate.all()
                    if tau == 1.0:
                        assert not gate.any()
                assert set(values) - {"sgmd"} == set(ref_terms) - {"sgmd"}
                for name, value in values.items():
                    _close(value, ref_terms[name][0] if name in ref_terms else 0.0)
                _close(total_value, ref_total)
                assert set(_GRAD_NAMES[:len(opt.grads)]) == set(ref_grads)
                for key, grad in zip(_GRAD_NAMES, opt.grads):
                    _close(grad, ref_grads[key])


# flag sets of the bit-identity test; each runs on batches with some matched
# rows under a mixed gate, with no matched rows, and under a closed gate
_LEAN_FLAGS = {"none": (), "lb": ("enable_lb",), "sgmd": ("enable_sgmd",),
               "gcn": ("enable_gcn",), "lb+sgmd+gcn": ("enable_lb", "enable_sgmd", "enable_gcn"),
               "vanilla": ("vanilla_balance",), "sgmd+vanilla": ("enable_sgmd", "vanilla_balance")}
_LEAN_CASES = ([(flags, case) for flags in _LEAN_FLAGS
                for case in ("mixed gate", "no matched rows", "closed gate")]
               + [(flags, "known == total") for flags in ("none", "sgmd")])


@pytest.mark.parametrize("flags, case", _LEAN_CASES, ids=[" ".join(c) for c in _LEAN_CASES])
def test_lean_step_gives_the_bits_of_the_checked_step(flags, case):
    # the step on the cores against a copy of the step that ran each core as
    # its checked term did: the same values, total, gradients and gate
    known, total = (4, 4) if case == "known == total" else (4, 6)
    rng = make_rng(len(flags) + 10 * len(case))
    m_in, m, words, n = 6, 5, 7, 8
    p_norm = rng.random((total + 2, total + 2)) + 0.1
    p_norm /= p_norm.sum(axis=1, keepdims=True)
    z_class = propagate(p_norm, rng.standard_normal((total + 2, words)), list(range(total)))
    lw = LossWeights(lambda_d=0.7, lambda_b=0.3, lambda_g=0.9,
                     tau=2.0 if case == "closed gate" else 0.15, w=0.4, epsilon=1e-12)
    cfg = apply_flags(ExperimentConfig(loss=lw), _LEAN_FLAGS[flags])
    matched = 0 if case == "no matched rows" else 5
    gates = []
    for _ in range(4):
        state = ModelState(
            rng.standard_normal((m_in, m)), rng.standard_normal(m),
            rng.standard_normal((total, m)), known, rng.standard_normal((words, m)))
        raw_s = rng.standard_normal((n, m_in))
        batch = (raw_s, rng.integers(0, known, n), rng.standard_normal((n, m_in)),
                 raw_s[:matched], rng.standard_normal((matched, m_in)))
        opt, ref = gradient_arrays(state, cfg), gradient_arrays(state, cfg)
        values, total_value, gate = joint_terms(opt, known, z_class, cfg, *batch)
        ref_values, ref_total, ref_gate = checked_joint_terms(
            copy.deepcopy(state), z_class, cfg, *batch, ref.grads)

        assert values == ref_values and total_value == ref_total
        for key, grad, ref_grad in zip(_GRAD_NAMES, opt.grads, ref.grads):
            assert np.array_equal(grad, ref_grad), key
        assert gate.dtype == ref_gate.dtype and np.array_equal(gate, ref_gate)
        gates.append(gate)
    seen = np.concatenate(gates)
    if cfg.enable_sgmd and matched and case != "closed gate":
        assert seen.any() and not seen.all()  # the gate was mixed
    if case == "closed gate" and cfg.enable_sgmd:
        assert seen.size and not seen.any()


@pytest.mark.parametrize("epochs", [1, 2])
def test_pretraining_gives_the_bits_of_the_checked_loop(epochs):
    # 30 rows in batches of 7 end on a partial batch; a second epoch pins
    # the order of the permutations drawn from the stream
    cfg = _small_cfg(pretrain=PretrainSchedule(epochs=epochs, batch_size=7))
    source = synth.generate(cfg.synth)[0]
    args = (source.features, source.labels, cfg.synth.known_classes, cfg.feature_dim,
            cfg.pretrain)
    params, history = trainer.pretrain_source(source.features, source.labels, cfg,
                                              make_rng(3))
    ref_params, ref_history = checked_pretrain_source(*args, make_rng(3))
    assert history == ref_history
    # the encoder weight, bias and head
    for param, ref_param in zip(params, ref_params, strict=True):
        assert np.array_equal(param, ref_param)


@pytest.mark.parametrize("known, total", [(3, 5), (3, 3)], ids=["graph", "known == total"])
def test_prepare_keeps_the_pretrained_encoder(known, total):
    # prepare keeps the pretrained encoder and known count, and puts in the
    # head of every class and theta
    sizes = replace(_small_cfg().synth, known_classes=known, total_classes=total)
    cfg = _small_cfg(synth=sizes, enable_lb=known < total, enable_gcn=known < total)
    data = synth.generate(cfg.synth)
    state = trainer.prepare(cfg, data).state
    rng_pre = make_rng(np.random.SeedSequence(cfg.seed).spawn(4)[0])
    (weight, bias, head), _ = trainer.pretrain_source(data[0].features, data[0].labels, cfg,
                                                      rng_pre)
    assert np.array_equal(state.weight, weight)
    assert np.array_equal(state.bias, bias)
    assert state.known_count == known and state.head.shape == (total, cfg.feature_dim)
    assert state.theta.shape == (cfg.synth.word_dim, cfg.feature_dim)
    if data[2] is None:  # no graph: the head starts at the pretrained classifier
        assert np.array_equal(state.head, head)


def test_train_joint_refuses_a_source_label_past_the_known_classes():
    prepared = trainer.prepare(_small_cfg(), synth.generate(_small_cfg().synth))
    prepared.source.labels[0] = prepared.state.known_count
    with pytest.raises(IndexError):
        trainer.train_joint(prepared)


def test_train_joint_replays_joint_terms_and_momentum():
    # 45 sources against 30 targets, rematched every epoch: the loop must
    # take exactly the tested step on the old per-batch index gathers, then
    # v = m v + g and p -= lr v on each parameter
    sizes = replace(_small_cfg().synth, source_per_class=15, target_per_class=6)
    cfg = _small_cfg(synth=sizes, epochs=2, rematch_interval=1)
    prepared = trainer.prepare(cfg, synth.generate(cfg.synth))
    assert (prepared.partner < 0).any() and (prepared.partner >= 0).any()
    trained, history = trainer.train_joint(prepared)

    # train_joint left prepared as it found it, so the replay starts from it
    replay = prepared
    state, source, target = replay.state, replay.source, replay.target
    params = [state.weight, state.bias, state.head, state.theta]
    velocity = [np.zeros_like(p) for p in params]
    partner = replay.partner
    for epoch in range(cfg.epochs):
        if epoch > 0:
            partner = trainer._partner(state, source, target, cfg.folds, replay.rng_match)
        order_src = replay.rng_joint.permutation(source.n)
        order_tgt = trainer._target_order(replay.rng_joint, target.n, source.n)
        # each term's values, summed in step order, and the gate's counts
        sums = {"cls": 0.0, "sgmd": 0.0, "balance": 0.0, "gcn": 0.0, "total": 0.0}
        steps = gated = considered = 0
        for start in range(0, source.n, cfg.batch_size):
            src_idx = order_src[start:start + cfg.batch_size]
            tgt_idx = order_tgt[start:start + cfg.batch_size]
            s_ids = src_idx[partner[src_idx] >= 0]
            opt = gradient_arrays(state, cfg)
            values, total, gate = joint_terms(
                opt, state.known_count, replay.z_class, cfg, source.features[src_idx],
                source.labels[src_idx], target.features[tgt_idx],
                source.features[s_ids], target.features[partner[s_ids]])
            for name, value in [*values.items(), ("total", total)]:
                sums[name] += value
            steps += 1
            gated += int(gate.sum())
            considered += len(gate)
            for i, (p, grad) in enumerate(zip(params, opt.grads, strict=True)):
                velocity[i] = cfg.momentum * velocity[i] + grad
                p -= cfg.learning_rate * velocity[i]
        for name, value in sums.items():
            assert history[epoch][f"loss_{name}"] == value / steps, (epoch, name)
        assert considered and 0 < gated < considered
        assert history[epoch]["gated_fraction"] == gated / considered, epoch
    assert np.array_equal(trained.weight, state.weight)
    assert np.array_equal(trained.bias, state.bias)
    assert np.array_equal(trained.head, state.head)
    assert np.array_equal(trained.theta, state.theta)


def _trained(state) -> list:
    return [state.weight, state.bias, state.head, state.theta]


def _arrays(prepared) -> dict:
    """Every array of ``prepared``, by name."""
    names = ("encoder.weight", "encoder.bias", "head.weights", "gcn.theta")
    return {**dict(zip(names, _trained(prepared.state))),
            "source.features": prepared.source.features,
            "source.labels": prepared.source.labels,
            "target.features": prepared.target.features,
            "target.eval_labels": prepared.target.eval_labels,
            "z_class": prepared.z_class, "partner": prepared.partner}


@pytest.mark.parametrize("flags", [("enable_lb", "enable_sgmd", "enable_gcn"),
                                   ("enable_lb", "enable_sgmd")],
                         ids=["graph term", "no graph term"])
def test_train_joint_leaves_prepared_as_it_found_it(flags):
    # rematched every epoch, so both RNG streams are drawn from; with the
    # graph term theta trains in the flat buffer, without it theta is copied
    sizes = replace(_small_cfg().synth, source_per_class=15, target_per_class=6)
    cfg = apply_flags(_small_cfg(synth=sizes, epochs=2, rematch_interval=1), flags)
    prepared = trainer.prepare(cfg, synth.generate(cfg.synth))
    before = copy.deepcopy(prepared)
    (first, history), (second, again) = (trainer.train_joint(prepared) for _ in range(2))

    assert history == again
    assert first.known_count == second.known_count
    for a, b in zip(_trained(first), _trained(second)):
        assert np.array_equal(a, b)
    for name, array in _arrays(prepared).items():
        assert np.array_equal(array, _arrays(before)[name]), name
        for state in (first, second):
            assert not any(np.shares_memory(array, t) for t in _trained(state)), name
    for stream in ("rng_joint", "rng_match"):
        assert (getattr(prepared, stream).bit_generator.state
                == getattr(before, stream).bit_generator.state), stream


@pytest.mark.parametrize("known, total", [(3, 5), (8, 12)])
def test_cls_rows_ignore_the_unknown_logits(known, total):
    # unknown-class logits 50 above every known one: the one softmax of the
    # stacked rows must give cls exactly its softmax over the known classes.
    # numpy's pairwise row sum adds the masked zeros after the known terms
    # when known >= 8 or total < 8; other head shapes round in the last bit
    rng = make_rng(known)
    m_in, m, n = 6, 5, 9
    weight = rng.standard_normal((m_in, m))
    weight[:, 0] = 0.0
    bias = np.zeros(m)
    bias[0] = 1.0  # feature 0 is 1 on every row
    raw_s = rng.standard_normal((n, m_in))
    labels = rng.integers(0, known, n)
    head = rng.standard_normal((total, m))
    head[known:] = 0.0
    state = ModelState(weight, bias, head, known, np.zeros((4, m)))
    f = encode(raw_s, state)
    head[known:, 0] = float(np.max(f @ head[:known].T)) + 50.0
    cfg = apply_flags(ExperimentConfig(), ())
    raw_none = np.zeros((0, m_in))
    with np.errstate(all="raise"):  # no NaN, overflow or underflow on the way
        opt = gradient_arrays(state, cfg)
        values, total_value, _ = joint_terms(
            opt, known, None, cfg, raw_s, labels, raw_s, raw_none, raw_none)
        grads = opt.grads

    d_logits = softmax_rows(f @ head[:known].T)
    value = cls_core(d_logits, labels)
    d_head = np.zeros_like(head)
    d_head[:known] = d_logits.T @ f
    d_weight, d_bias = encode_backward(raw_s, d_logits @ head[:known])
    assert values == {"cls": value} and total_value == value
    assert np.isfinite(value)
    assert np.array_equal(grads[2], d_head)
    assert np.array_equal(grads[0], d_weight)
    assert np.array_equal(grads[1], d_bias)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_loss_raises():
    cfg = _small_cfg(learning_rate=1e12, epochs=10)
    with pytest.raises(NonFiniteLossError) as exc:
        run_pipeline(cfg)
    assert exc.value.component in ("cls", "sgmd", "balance", "gcn")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("term, attr, grad_arg", [
    pytest.param("pretrain", "cls_core", 0, id="pretrain-cls_core"),
    pytest.param("cls", "cls_core", 0, id="cls-cls_core"),
    pytest.param("balance", "balance_core", 0, id="balance-balance_core"),
    pytest.param("sgmd", "sgmd_core", -1, id="sgmd-sgmd_core"),
    pytest.param("gcn", "gcn_reg_core", -1, id="gcn-gcn_reg_core"),
])
def test_non_finite_gradient_names_its_term(monkeypatch, term, attr, grad_arg):
    # a finite value with a NaN gradient: only the gradient check can catch it.
    # Each core writes its gradient into one of its arguments. Pretraining
    # steps on the cls core too, so a core poisoned before prepare names
    # pretraining, and one poisoned after it names its joint-loop term
    real = getattr(trainer, attr)

    def poisoned(*args):
        out = real(*args)
        args[grad_arg][...] = np.nan
        return out

    # tau 0 gates every matched pair, so the sgmd term is always present
    cfg = _small_cfg(epochs=1, loss=LossWeights(tau=0.0, w=0.4))
    data = synth.generate(cfg.synth)
    with pytest.raises(NonFiniteLossError) as exc:
        if term == "pretrain":
            monkeypatch.setattr(trainer, attr, poisoned)
            trainer.prepare(cfg, data)
        else:
            prepared = trainer.prepare(cfg, data)
            monkeypatch.setattr(trainer, attr, poisoned)
            trainer.train_joint(prepared)
    assert exc.value.component == term
    assert math.isnan(exc.value.value)  # the value was finite, a gradient not


def test_an_overflow_on_the_way_back_names_the_total():
    # cls is finite, but its feature gradient d_logits @ head overflows: the
    # step must not hand back an infinite gradient without naming it
    state = ModelState(np.full((2, 2), 1e-3), np.zeros(2),
                       np.array([[1.5e308, 0.0], [-1.5e308, 0.0]]), 2, np.zeros((1, 2)))
    raw = np.array([[1e-300, 0.0]])
    cfg = apply_flags(ExperimentConfig(), ())
    with pytest.raises(NonFiniteLossError) as exc, np.errstate(all="ignore"):
        joint_terms(gradient_arrays(state, cfg), 2, None, cfg, raw, np.array([1]),
                    raw[:0], raw[:0], raw[:0])
    assert exc.value.component == "total" and math.isnan(exc.value.value)


def test_run_ablation_structure():
    results = run_ablation(_small_cfg(epochs=2), seeds=[0, 1])
    assert set(results) == set(ABLATION_VARIANTS)
    for entry in results.values():
        assert entry["seeds"] == 2
        assert len(entry["runs"]) == 2
        for key in ("known", "unknown", "all"):
            assert 0.0 <= entry[f"{key}_mean"] <= 1.0
            assert entry[f"{key}_std"] >= 0.0


def test_run_ablation_single_seed_matches_pipeline():
    # rematching draws from the prepared rng_match, so each variant's
    # train_joint must draw from its own copy of it
    cfg = _small_cfg(epochs=2, rematch_interval=1)
    results = run_ablation(cfg, seeds=[cfg.seed])
    for variant, on in ABLATION_VARIANTS.items():
        _, history = run_pipeline(apply_flags(cfg, on))
        final = history[-1]
        assert results[variant]["runs"] == [
            {k: final[k] for k in ("known", "unknown", "all")}], variant
        assert results[variant]["all_std"] == 0.0


def test_final_only_evaluation_gives_the_full_history_final_record():
    # run_ablation reads the last epoch's triple alone, so it scores only that
    # epoch; the training and every loss record are those of a scored run
    cfg = _small_cfg(epochs=3)
    prepared = trainer.prepare(cfg, synth.generate(cfg.synth))
    full_state, full = trainer.train_joint(prepared)
    final_state, final_only = trainer.train_joint(prepared, eval_every_epoch=False)
    assert len(final_only) == len(full) == cfg.epochs
    assert final_only[-1] == full[-1] and full[-1]["all"] is not None
    triple = ("known", "unknown", "all", "n_known", "n_unknown")
    for record, scored in zip(final_only[:-1], full[:-1]):
        assert all(record[key] is None for key in triple)
        assert record == {**scored, **dict.fromkeys(triple)}
    for f in fields(full_state):
        assert np.array_equal(getattr(full_state, f.name), getattr(final_state, f.name))


def test_run_ablation_prepares_once_per_seed(monkeypatch):
    calls = {"pretrain_source": 0, "train_gcn_init": 0}
    for name in calls:
        original = getattr(trainer, name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(trainer, name, counted)
    run_ablation(_small_cfg(epochs=1), seeds=[0, 1])
    assert calls == {"pretrain_source": 2, "train_gcn_init": 2}


def test_run_ablation_rejects_no_seeds():
    with pytest.raises(ConfigError):
        run_ablation(_small_cfg(epochs=1), seeds=[])


def test_run_ablation_refuses_a_target_without_eval_labels(monkeypatch):
    # there is nothing to score the variants against: refused before the
    # first prefix is prepared, not after every variant trained
    cfg = _small_cfg(epochs=1)
    source, target, graph, words = synth.generate(cfg.synth)
    unlabeled = replace(target, eval_labels=None)

    def refused(*args):
        raise AssertionError("prepared a prefix")

    monkeypatch.setattr(trainer, "prepare", refused)
    with pytest.raises(ValueError, match="eval labels") as exc:
        run_ablation(cfg, seeds=[0], data=(source, unlabeled, graph, words))
    assert "\n" not in str(exc.value)


def test_prepare_trains_gcn_init_under_the_configured_slope(monkeypatch):
    seen = set()
    real = gcn.gcn_reg_core

    def spy(z, theta, slope, w, d_theta):
        seen.add(slope)
        return real(z, theta, slope, w, d_theta)

    monkeypatch.setattr(gcn, "gcn_reg_core", spy)
    cfg = parse_config(MINIMAL + "gcn.slope = 0.05\ngcn.steps = 20\n"
                       "synth.known_classes = 3\nsynth.total_classes = 5\n"
                       "synth.source_per_class = 10\nsynth.target_per_class = 10\n"
                       "pretrain.epochs = 2\n")
    prepared = trainer.prepare(cfg, synth.generate(cfg.synth))
    assert seen == {0.05}
    h = prepared.z_class @ prepared.state.theta
    assert np.array_equal(prepared.state.head, np.where(h > 0, h, 0.05 * h))


def test_unlabeled_target_records_absent_accuracies():
    cfg = _small_cfg(epochs=2)
    source, target, graph, words = synth.generate(cfg.synth)
    unlabeled = replace(target, eval_labels=None)
    _, history = run_pipeline(cfg, data=(source, unlabeled, graph, words))
    for record in history:
        for key in ("known", "unknown", "all", "n_known", "n_unknown"):
            assert record[key] is None, key
        assert np.isfinite(record["loss_total"])


def test_format_ablation_table():
    results = run_ablation(_small_cfg(epochs=1), seeds=[0])
    table = format_ablation_table(results)
    lines = table.strip().splitlines()
    assert len(lines) == 1 + len(ABLATION_VARIANTS)
    for variant in ABLATION_VARIANTS:
        assert any(line.startswith(variant) for line in lines)


def _sym_cfg(**synth_overrides):
    sc = synth.SynthConfig(known_classes=4, total_classes=4, input_dim=6,
                           word_dim=12, source_per_class=10,
                           target_per_class=10, seed=0, **synth_overrides)
    return ExperimentConfig(synth=sc, pretrain=PretrainSchedule(epochs=3),
                            feature_dim=5, epochs=3, batch_size=8, folds=2,
                            seed=0, enable_lb=False, enable_gcn=False)


def _da(cfg):
    return {name: entry["runs"][0]["all"]
            for name, entry in run_ablation(cfg, seeds=[cfg.seed]).items()}


def _flag_cfgs():
    """A tiny config of each label space and the flag sets it takes: every
    subset of the four flags.* keys but enable_lb with vanilla_balance, and
    on known == total no term but SGMD."""
    flags = ("enable_lb", "enable_sgmd", "enable_gcn", "vanilla_balance")
    subsets = [s for n in range(len(flags) + 1) for s in itertools.combinations(flags, n)]
    open_set = [s for s in subsets if not {"enable_lb", "vanilla_balance"} <= set(s)]
    assert len(open_set) == 12
    return [(_small_cfg(epochs=2, rematch_interval=1), open_set),
            (replace(_sym_cfg(), epochs=2, rematch_interval=1), [(), ("enable_sgmd",)])]


@pytest.mark.parametrize("cfg, flag_sets", _flag_cfgs(), ids=["open set", "known == total"])
def test_prepare_reads_no_flag(cfg, flag_sets):
    # nothing prepare does reads a flag: one prepared start, given each flag
    # set's config, trains to the bits of a whole pipeline run under it
    data = synth.generate(cfg.synth)
    prepared = trainer.prepare(cfg, data)
    for on in flag_sets:
        variant = apply_flags(cfg, on)
        state, history = trainer.train_joint(replace(prepared, config=variant))
        expected_state, expected = run_pipeline(variant, data)
        assert history == expected, on
        for f in fields(state):
            assert np.array_equal(getattr(state, f.name), getattr(expected_state, f.name)), \
                (on, f.name)


@pytest.mark.parametrize("cfg, on, refusal", [
    (_small_cfg(), ("enable_lb", "vanilla_balance"), "mutually exclusive"),
    (_small_cfg(), ("enable_sgmd", "balance"), "not flags.* keys: ['balance']"),
    (_sym_cfg(), ("enable_lb",), "flags.enable_lb need unknown classes"),
], ids=["lb with vanilla", "an unknown token", "lb with no unknown class"])
def test_train_joint_refuses_the_flag_sets_a_config_refuses(cfg, on, refusal):
    # a variant's start is the prepared one under the variant's config, so
    # a flag set that no config takes never reaches the loop
    prepared = trainer.prepare(cfg, synth.generate(cfg.synth))
    with pytest.raises(ConfigError, match=re.escape(refusal)):
        trainer.train_joint(replace(prepared, config=apply_flags(cfg, on)))


def test_da_mode_returns_both_accuracies():
    out = _da(_sym_cfg())
    assert set(out) == {"source_only", "sgmd"}
    for v in out.values():
        assert 0.0 <= v <= 1.0


def test_da_mode_equals_two_pipeline_runs():
    cfg = replace(_sym_cfg(), rematch_interval=1)
    expected = {name: run_pipeline(apply_flags(cfg, on))[1][-1]["all"]
                for name, on in (("source_only", ()), ("sgmd", ("enable_sgmd",)))}
    assert _da(cfg) == expected


def test_da_mode_closed_gate_matches_source_only():
    cfg = replace(_sym_cfg(), loss=LossWeights(tau=1.0))
    out = _da(cfg)
    assert out["sgmd"] == out["source_only"]


def test_format_ablation_table_prints_the_da_variants():
    results = run_ablation(replace(_sym_cfg(), epochs=1), seeds=[0])
    lines = format_ablation_table(results).strip().splitlines()
    assert [line.split()[0] for line in lines[1:]] == list(DA_VARIANTS)
    # no unknown instances: the unknown column reads 0
    assert all(line.split()[2] == "0.000±0.000" for line in lines[1:])
