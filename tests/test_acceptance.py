"""Exit criteria for the whole package: one test per criterion.

These run the library end to end at its default configuration; the
per-module suites cover the same ground in finer grain.
"""
import itertools
import time
from dataclasses import replace

import numpy as np
import pytest

from opendomain.cli import main
from opendomain.gcn import (
    GcnParams,
    GcnSchedule,
    gcn_reg_loss,
    init_loss,
    propagate,
    train_gcn_init,
)
from opendomain.graph import KnowledgeGraph, normalized_adjacency
from opendomain.losses import (
    ClassifierHead,
    LossWeights,
    balance_loss_vanilla,
    cls_loss,
    limited_balance_loss,
    limited_balance_terms,
    sgmd_loss,
    total_loss,
)
from opendomain.matching import hungarian
from opendomain.model import (
    Encoder,
    ModelState,
    encode,
    encode_backward,
    pretrain_source,
)
from opendomain.numkit import make_rng, softmax_rows
from opendomain.synth import SynthConfig, generate
from opendomain.trainer import (
    ExperimentConfig,
    joint_terms,
    run_ablation,
    run_pipeline,
)

from gradcheck import grad_check


# ----------------------------------------------------- 1: matcher optimality

def _brute_force(costs):
    n, m = costs.shape
    if n > m:
        return _brute_force(costs.T)
    return min(sum(costs[i, j] for i, j in enumerate(cols))
               for cols in itertools.permutations(range(m), n))


def test_criterion_1_hungarian_matches_exhaustive_search():
    rng = make_rng(101)
    start = time.perf_counter()
    for _ in range(200):
        n = int(rng.integers(1, 8))
        costs = rng.random((n, n)) * 10
        assert hungarian(costs).total_cost == pytest.approx(
            _brute_force(costs), abs=1e-9)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        costs = rng.random((n, m)) * 10
        assert hungarian(costs).total_cost == pytest.approx(
            _brute_force(costs), abs=1e-9)
    assert time.perf_counter() - start < 1.0


# ------------------------------------------------------- 2: gradient suite

def _check(fn, x, analytic, tol=1e-5):
    assert grad_check(fn, x, analytic, eps=1e-6) <= tol


def _usable(*grads):
    # coordinates that are themselves ~0 are dominated by roundoff in the
    # finite difference, and huge gradients signal curvature large enough
    # to break the central-difference estimate; such draws are resampled,
    # not excused
    return (min(float(np.min(np.abs(g))) for g in grads) >= 1e-5
            and max(float(np.max(np.abs(g))) for g in grads) <= 100.0)


def test_criterion_2_gradient_suite():
    start = time.perf_counter()
    rng = make_rng(102)

    checked = 0  # source cross-entropy
    while checked < 100:
        head = ClassifierHead(rng.standard_normal((4, 3)), 3)
        f = rng.standard_normal((5, 3))
        labels = rng.integers(0, 3, 5)
        _, d_f, d_w = cls_loss(f, head, labels)
        if not _usable(d_f, d_w):
            continue
        _check(lambda a: cls_loss(a, head, labels)[0], f, d_f)
        _check(lambda a: cls_loss(f, ClassifierHead(a, 3), labels)[0],
               head.weights, d_w)
        checked += 1

    checked = 0  # matched-pair discrepancy
    while checked < 100:
        fs = rng.standard_normal((4, 3))
        ft = rng.standard_normal((4, 3))
        ps = softmax_rows(rng.standard_normal((4, 5)))
        pt = softmax_rows(rng.standard_normal((4, 5)))
        _, d_fs, d_ft, gate = sgmd_loss(fs, ft, ps, pt, 0.2)
        if not gate.any() or not _usable(d_fs[gate], d_ft[gate]):
            continue
        _check(lambda a: sgmd_loss(a, ft, ps, pt, 0.2)[0], fs, d_fs)
        _check(lambda a: sgmd_loss(fs, a, ps, pt, 0.2)[0], ft, d_ft)
        checked += 1

    checked = 0  # balance constraints, vanilla and limited
    while checked < 100:
        head = ClassifierHead(rng.standard_normal((5, 3)), 3)
        f = rng.standard_normal((4, 3))
        w = float(rng.uniform(0.1, 0.9))
        _, vd_f, vd_w = balance_loss_vanilla(f, head, 1e-12)
        _, ld_f, ld_w = limited_balance_loss(f, head, w, 1e-12)
        if not _usable(vd_f, vd_w, ld_f, ld_w):
            continue
        _check(lambda a: balance_loss_vanilla(a, head, 1e-12)[0], f, vd_f)
        _check(lambda a: balance_loss_vanilla(
            f, ClassifierHead(a, 3), 1e-12)[0], head.weights, vd_w)
        _check(lambda a: limited_balance_loss(a, head, w, 1e-12)[0], f, ld_f)
        _check(lambda a: limited_balance_loss(
            f, ClassifierHead(a, 3), w, 1e-12)[0], head.weights, ld_w)
        checked += 1

    checked = 0  # graph-convolution fit and regularizer
    while checked < 100:
        n = 5
        p = rng.random((n, n)) + 0.1
        p /= p.sum(axis=1, keepdims=True)
        x = rng.standard_normal((n, 4))
        theta = rng.standard_normal((4, 3))
        if float(np.min(np.abs(p @ x @ theta))) < 1e-4:
            continue
        w = rng.standard_normal((3, 3))
        z_known = propagate(p, x, [0, 1, 2])
        _, d_theta = init_loss(z_known, GcnParams(theta, 0.2), w)
        w_hat = rng.standard_normal((4, 3))
        z_class = propagate(p, x, [0, 1, 2, 4])
        _, rd_theta, rd_w = gcn_reg_loss(z_class, GcnParams(theta, 0.2), w_hat)
        if not _usable(d_theta, rd_theta, rd_w):
            continue
        _check(lambda t: init_loss(z_known, GcnParams(t, 0.2), w)[0],
               theta, d_theta)
        _check(lambda t: gcn_reg_loss(z_class, GcnParams(t, 0.2), w_hat)[0],
               theta, rd_theta)
        _check(lambda a: gcn_reg_loss(z_class, GcnParams(theta, 0.2), a)[0],
               w_hat, rd_w)
        checked += 1

    checked = 0  # encoder backward
    while checked < 100:
        raw = rng.standard_normal((4, 3))
        enc = Encoder(rng.standard_normal((3, 2)), rng.standard_normal(2))
        target = rng.standard_normal((4, 2))
        d_out = encode(raw, enc) - target
        d_w, d_b = encode_backward(raw, d_out)
        if not _usable(d_w, d_b):
            continue
        obj = lambda e: 0.5 * float(np.sum((encode(raw, e) - target) ** 2))
        _check(lambda a: obj(Encoder(a, enc.bias)), enc.weight, d_w)
        _check(lambda a: obj(Encoder(enc.weight, a.ravel())),
               enc.bias.reshape(1, -1), d_b.reshape(1, -1))
        checked += 1

    checked = 0  # composite objective: one joint-loop step, all four terms
    cfg = ExperimentConfig(loss_weights=LossWeights(
        lambda_d=0.7, lambda_b=0.3, lambda_g=0.9, tau=0.0, w=0.4, epsilon=1e-12))
    while checked < 100:
        raw_s = rng.standard_normal((3, 3))
        raw_t = rng.standard_normal((3, 3))
        raw_mt = rng.standard_normal((3, 3))
        labels = rng.integers(0, 2, 3)
        p = rng.random((5, 5)) + 0.1
        p /= p.sum(axis=1, keepdims=True)
        words = rng.standard_normal((5, 4))
        z_class = propagate(p, words, [0, 1, 2, 4])

        def objective(enc_w, enc_b, head_w, theta):
            state = ModelState(Encoder(enc_w, enc_b.ravel()),
                               ClassifierHead(head_w, 2), GcnParams(theta, 0.2))
            comp, _ = joint_terms(state, z_class, cfg, raw_s, labels, raw_t,
                                  raw_s, raw_mt)
            return total_loss(comp, cfg.loss_weights)

        enc_w = rng.standard_normal((3, 3))
        enc_b = rng.standard_normal((1, 3))
        head_w = rng.standard_normal((4, 3))
        theta = rng.standard_normal((4, 3))
        if float(np.min(np.abs(p @ words @ theta))) < 1e-4:
            continue
        _, grads = objective(enc_w, enc_b, head_w, theta)
        if not _usable(*grads.values()):
            continue
        _check(lambda v: objective(v, enc_b, head_w, theta)[0], enc_w,
               grads["encoder.weight"])
        _check(lambda v: objective(enc_w, v, head_w, theta)[0], enc_b,
               grads["encoder.bias"].reshape(1, -1))
        _check(lambda v: objective(enc_w, enc_b, v, theta)[0], head_w,
               grads["head.weights"])
        _check(lambda v: objective(enc_w, enc_b, head_w, v)[0], theta,
               grads["gcn.theta"])
        checked += 1

    assert time.perf_counter() - start < 30.0


# -------------------------------------------------- 3: normalization rules

def test_criterion_3_row_normalization():
    rng = make_rng(103)
    for _ in range(100):
        n = int(rng.integers(1, 12))
        edges = set()
        for _ in range(int(rng.integers(0, 2 * n))):
            i, j = rng.integers(0, n, 2)
            if i != j:
                edges.add((min(i, j), max(i, j)))
        lt = int(rng.integers(1, n + 1))
        g = KnowledgeGraph(
            node_names=tuple(f"n{i}" for i in range(n)),
            edges=tuple(sorted((int(i), int(j)) for i, j in edges)),
            class_to_node=tuple(int(v) for v in rng.permutation(n)[:lt]),
            known_class_count=int(rng.integers(0, lt)),
        )
        p = normalized_adjacency(g)
        assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-12
    probs = softmax_rows(rng.standard_normal((200, 7)) * 10)
    assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-12


# --------------------------------------------- 4: limited-balance minimum

def test_criterion_4_limited_balance_minimum():
    for w in (0.1, 1.0 / 3.0, 0.5, 0.8):
        values, derivs = limited_balance_terms(np.array([w]), w)
        assert abs(values[0] - 2 * w) < 1e-12
        assert abs(derivs[0]) < 1e-12
        for r in (w / 2, 2 * w):
            off, _ = limited_balance_terms(np.array([r]), w)
            assert off[0] > 2 * w


# ------------------------------------------------ 5: propagation fidelity

def test_criterion_5_gcn_initialization_fidelity():
    start = time.perf_counter()
    cfg = ExperimentConfig()
    source, _, graph, words = generate(cfg.synth)
    rng_pre = make_rng(np.random.SeedSequence(cfg.seed).spawn(4)[0])
    _, w_src, _ = pretrain_source(source.features, source.labels,
                                  cfg.synth.known_classes, cfg.feature_dim,
                                  cfg.pretrain, rng_pre)
    z_class = propagate(normalized_adjacency(graph), words, graph.class_to_node)
    _, emb, _ = train_gcn_init(z_class, w_src, GcnSchedule(), make_rng(0))
    mse = float(np.mean((emb[: cfg.synth.known_classes] - w_src) ** 2))
    assert mse <= 1e-3
    assert time.perf_counter() - start < 10.0


# ----------------------------------------------------- 6+10: ablation trend

@pytest.fixture(scope="module")
def ablation_results():
    return run_ablation(ExperimentConfig(), seeds=range(5))


def test_criterion_6_ablation_trend(ablation_results):
    start = time.perf_counter()
    r = ablation_results
    assert r["lb"]["unknown_mean"] >= r["baseline"]["unknown_mean"] + 0.05
    assert r["lb+sgmd+gcn"]["all_mean"] >= r["baseline"]["all_mean"] + 0.05
    assert r["lb+sgmd+gcn"]["all_mean"] >= r["lb"]["all_mean"]
    assert time.perf_counter() - start < 300.0


def test_criterion_10_mode_collapse_exhibit(ablation_results):
    r = ablation_results
    assert r["baseline"]["unknown_mean"] < r["lb"]["unknown_mean"]


# -------------------------------------------------------- 7: da-mode trend

def test_criterion_7_da_mode_trend():
    def mean_gap(translation_scale):
        sym = SynthConfig(known_classes=8, total_classes=8,
                          translation_scale=translation_scale)
        cfg = ExperimentConfig(synth=sym, enable_lb=False, enable_gcn=False)
        # each seed regenerates the benchmark with synth seed = train seed
        out = run_ablation(cfg, seeds=range(5))
        return out["sgmd"]["all_mean"] - out["source_only"]["all_mean"]

    default_gap = mean_gap(SynthConfig().translation_scale)
    assert default_gap >= 0.02
    zero_gap = mean_gap(0.0)
    assert zero_gap < 0.02


# -------------------------------------------------------- 8: gate behavior

def test_criterion_8_closed_gate_reduces_to_no_sgmd():
    cfg = ExperimentConfig(loss_weights=LossWeights(tau=1.0), epochs=10)
    with_sgmd_state, with_hist = run_pipeline(cfg)
    without_state, without_hist = run_pipeline(replace(cfg, enable_sgmd=False))
    assert np.array_equal(with_sgmd_state.encoder.weight,
                          without_state.encoder.weight)
    assert np.array_equal(with_sgmd_state.encoder.bias,
                          without_state.encoder.bias)
    assert np.array_equal(with_sgmd_state.head.weights,
                          without_state.head.weights)
    assert np.array_equal(with_sgmd_state.gcn.theta, without_state.gcn.theta)
    for a, b in zip(with_hist, without_hist):
        assert a["loss_sgmd"] == 0.0
        assert a["loss_total"] == b["loss_total"]


# ---------------------------------------------------------- 9: determinism

def test_criterion_9_byte_identical_runs(tmp_path):
    config_text = "train.seed = 3\nsynth.seed = 3\ntrain.epochs = 10\n"
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(config_text)
    data = tmp_path / "data"
    assert main(["synth", "--config", str(cfg_path), "--out", str(data)]) == 0
    outputs = []
    for run in ("run_a", "run_b"):
        out = tmp_path / run
        assert main(["train", "--config", str(cfg_path), "--data", str(data),
                     "--out", str(out)]) == 0
        outputs.append(out)
    a, b = outputs
    for name in ("metrics.json", "history.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    ckpt_files = sorted(p.name for p in (a / "checkpoint").iterdir())
    assert ckpt_files == sorted(p.name for p in (b / "checkpoint").iterdir())
    for name in ckpt_files:
        assert (a / "checkpoint" / name).read_bytes() == \
            (b / "checkpoint" / name).read_bytes(), name
