from dataclasses import replace

import numpy as np
import pytest

from opendomain import gcn, synth
from opendomain.gcn import GcnParams, GcnSchedule, gcn_forward, propagate
from opendomain.losses import ClassifierHead, LossWeights, total_loss
from opendomain.model import Encoder, ModelState, PretrainSchedule
from opendomain.numkit import make_rng
from opendomain import trainer
from opendomain.trainer import (
    ABLATION_VARIANTS,
    DA_VARIANTS,
    ConfigError,
    ExperimentConfig,
    NonFiniteLossError,
    apply_flags,
    config_to_text,
    experiment_hash,
    format_ablation_table,
    joint_terms,
    parse_config,
    run_ablation,
    run_pipeline,
)

from gradcheck import grad_check


def _small_cfg(**overrides):
    base = dict(
        synth=synth.SynthConfig(known_classes=3, total_classes=5,
                                input_dim=6, word_dim=12,
                                source_per_class=10, target_per_class=10,
                                seed=0),
        pretrain=PretrainSchedule(epochs=3),
        gcn_schedule=GcnSchedule(steps=300),
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
    assert cfg.loss_weights.w == pytest.approx(0.4)
    cfg = parse_config(MINIMAL + "loss.w = 0.25\n")
    assert cfg.loss_weights.w == 0.25


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
    assert cfg.loss_weights.tau == 0.7
    assert cfg.gcn_schedule.slope == 0.1
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
])
def test_parse_rejects_bad_configs(text):
    with pytest.raises(ConfigError):
        parse_config(text)


def test_experiment_config_rejects_infinite_learning_rate():
    with pytest.raises(ConfigError):
        ExperimentConfig(learning_rate=float("inf"))


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


def test_apply_flags():
    cfg = apply_flags(_small_cfg(), ("sgmd", "vanilla"))
    assert (cfg.enable_lb, cfg.enable_sgmd, cfg.enable_gcn,
            cfg.vanilla_balance) == (False, True, False, True)
    with pytest.raises(ConfigError, match=r"unknown flag tokens: \['bogus'\]"):
        apply_flags(cfg, ("lb", "bogus"))


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
    assert np.array_equal(s1.encoder.weight, s2.encoder.weight)
    assert np.array_equal(s1.head.weights, s2.head.weights)
    assert np.array_equal(s1.gcn.theta, s2.gcn.theta)
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
    assert np.array_equal(short.gcn.theta, long.gcn.theta)
    short_g, _ = run_pipeline(_small_cfg(epochs=1))
    long_g, _ = run_pipeline(_small_cfg(epochs=3))
    assert not np.array_equal(short_g.gcn.theta, long_g.gcn.theta)


def test_unknown_rows_move_only_under_balance_or_graph():
    # with balance and graph off, nothing routes gradient to the
    # unknown-class classifiers, so those rows stay at their propagated init
    ls = 3
    base = dict(enable_lb=False, enable_sgmd=False, enable_gcn=False)
    short, _ = run_pipeline(_small_cfg(epochs=1, **base))
    long, _ = run_pipeline(_small_cfg(epochs=3, **base))
    assert np.array_equal(short.head.weights[ls:], long.head.weights[ls:])
    assert not np.array_equal(short.head.weights[:ls], long.head.weights[:ls])
    short_b, _ = run_pipeline(_small_cfg(epochs=1, enable_sgmd=False,
                                         enable_gcn=False))
    long_b, _ = run_pipeline(_small_cfg(epochs=3, enable_sgmd=False,
                                        enable_gcn=False))
    assert not np.array_equal(short_b.head.weights[ls:],
                              long_b.head.weights[ls:])


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
    assert np.array_equal(s1.head.weights, s2.head.weights)
    assert np.array_equal(s1.encoder.weight, s2.encoder.weight)
    assert np.array_equal(s1.gcn.theta, s2.gcn.theta)
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
    for counts in ((2, 5), (3, 6)):
        other = replace(cfg.synth, known_classes=counts[0], total_classes=counts[1])
        with pytest.raises(ConfigError, match="classes"):
            trainer.prepare(replace(cfg, synth=other), data)
    # without a graph: the source labels and the word-vector rows
    sym = replace(cfg.synth, known_classes=3, total_classes=3)
    sym_cfg = replace(cfg, synth=sym, enable_lb=False, enable_gcn=False)
    sym_data = synth.generate(sym)
    trainer.prepare(sym_cfg, sym_data)
    wider = replace(sym, known_classes=4, total_classes=4)
    with pytest.raises(ConfigError, match="classes"):
        trainer.prepare(replace(sym_cfg, synth=wider), sym_data)


def test_sgmd_sees_only_matched_sources(monkeypatch):
    # 45 sources against 30 targets: a third of the sources stay unmatched
    sizes = replace(_small_cfg().synth, source_per_class=15, target_per_class=6)
    cfg = _small_cfg(synth=sizes, epochs=2)
    seen = []
    original = trainer.sgmd_loss

    def spy(f_ms, f_mt, *rest):
        seen.append(len(f_ms))
        return original(f_ms, f_mt, *rest)

    monkeypatch.setattr(trainer, "sgmd_loss", spy)
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
    cfg = ExperimentConfig(loss_weights=LossWeights(
        lambda_d=0.7, lambda_b=0.3, lambda_g=0.9, tau=0.0, w=0.4, epsilon=1e-12))

    def objective(enc_w, enc_b, head_w, theta):
        state = ModelState(Encoder(enc_w, enc_b.ravel()),
                           ClassifierHead(head_w, ls), GcnParams(theta, 0.2))
        components, _ = joint_terms(state, z_class, cfg, raw_s, labels, raw_t,
                                    raw_s, raw_mt)
        assert set(components) == {"cls", "balance", "sgmd", "gcn"}
        return total_loss(components, cfg.loss_weights)

    enc_w = rng.standard_normal((m_in, m))
    enc_b = rng.standard_normal((1, m))
    head_w = rng.standard_normal((lt, m))
    theta = rng.standard_normal((c, m))
    assert float(np.min(np.abs(p_norm @ words @ theta))) > 1e-3
    _, grads = objective(enc_w, enc_b, head_w, theta)
    checks = [
        (lambda v: objective(v, enc_b, head_w, theta)[0], enc_w,
         grads["encoder.weight"]),
        (lambda v: objective(enc_w, v, head_w, theta)[0], enc_b,
         grads["encoder.bias"].reshape(1, -1)),
        (lambda v: objective(enc_w, enc_b, v, theta)[0], head_w,
         grads["head.weights"]),
        (lambda v: objective(enc_w, enc_b, head_w, v)[0], theta,
         grads["gcn.theta"]),
    ]
    for fn, x, analytic in checks:
        assert grad_check(fn, x, analytic, eps=1e-6) <= 1e-4


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_loss_raises():
    cfg = _small_cfg(learning_rate=1e12, epochs=10)
    with pytest.raises(NonFiniteLossError) as exc:
        run_pipeline(cfg)
    assert exc.value.component in ("cls", "sgmd", "balance", "gcn")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("term, attr", [
    ("cls", "cls_loss"),
    ("balance", "limited_balance_loss"),
    ("sgmd", "sgmd_loss"),
    ("gcn", "gcn_reg_loss"),
])
def test_non_finite_gradient_names_its_term(monkeypatch, term, attr):
    # a finite value with a NaN gradient: only the gradient check can catch it
    real = getattr(trainer, attr)

    def poisoned(*args):
        out = real(*args)
        return (out[0], np.full_like(out[1], np.nan)) + tuple(out[2:])

    monkeypatch.setattr(trainer, attr, poisoned)
    # tau 0 gates every matched pair, so the sgmd term is always present
    cfg = _small_cfg(epochs=1, loss_weights=LossWeights(tau=0.0, w=0.4))
    with pytest.raises(NonFiniteLossError) as exc:
        run_pipeline(cfg)
    assert exc.value.component == term


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
    # rematching draws from the prepared rng_match, so each variant must
    # start from its own copy of it
    cfg = _small_cfg(epochs=2, rematch_interval=1)
    results = run_ablation(cfg, seeds=[cfg.seed])
    for variant, tokens in ABLATION_VARIANTS.items():
        _, history = run_pipeline(apply_flags(cfg, tokens))
        final = history[-1]
        assert results[variant]["runs"] == [
            {k: final[k] for k in ("known", "unknown", "all")}], variant
        assert results[variant]["all_std"] == 0.0


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


def test_prepare_trains_gcn_init_under_the_configured_slope(monkeypatch):
    seen = set()
    real = gcn.init_loss

    def spy(z, params, w):
        seen.add(params.activation_slope)
        return real(z, params, w)

    monkeypatch.setattr(gcn, "init_loss", spy)
    cfg = parse_config(MINIMAL + "gcn.slope = 0.05\ngcn.steps = 20\n"
                       "synth.known_classes = 3\nsynth.total_classes = 5\n"
                       "synth.source_per_class = 10\nsynth.target_per_class = 10\n"
                       "pretrain.epochs = 2\n")
    prepared = trainer.prepare(cfg, synth.generate(cfg.synth))
    assert seen == {0.05}
    assert prepared.state.gcn.activation_slope == 0.05
    assert np.array_equal(prepared.state.head.weights,
                          gcn_forward(prepared.z_class, prepared.state.gcn))


def test_unlabeled_target_records_absent_accuracies():
    cfg = _small_cfg(epochs=2)
    source, target, graph, words = synth.generate(cfg.synth)
    unlabeled = replace(target, eval_labels=np.full(target.n, -1))
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


def test_da_mode_returns_both_accuracies():
    out = _da(_sym_cfg())
    assert set(out) == {"source_only", "sgmd"}
    for v in out.values():
        assert 0.0 <= v <= 1.0


def test_da_mode_equals_two_pipeline_runs():
    cfg = replace(_sym_cfg(), rematch_interval=1)
    expected = {name: run_pipeline(apply_flags(cfg, tokens))[1][-1]["all"]
                for name, tokens in (("source_only", ()), ("sgmd", ("sgmd",)))}
    assert _da(cfg) == expected


def test_da_mode_closed_gate_matches_source_only():
    cfg = replace(_sym_cfg(), loss_weights=LossWeights(tau=1.0))
    out = _da(cfg)
    assert out["sgmd"] == out["source_only"]


def test_format_ablation_table_prints_the_da_variants():
    results = run_ablation(replace(_sym_cfg(), epochs=1), seeds=[0])
    lines = format_ablation_table(results).strip().splitlines()
    assert [line.split()[0] for line in lines[1:]] == list(DA_VARIANTS)
    # no unknown instances: the unknown column reads 0
    assert all(line.split()[2] == "0.000±0.000" for line in lines[1:])
