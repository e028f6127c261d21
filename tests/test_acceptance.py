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
from opendomain.config import ExperimentConfig, GcnSchedule, LossWeights, SynthConfig
from opendomain.gcn import (
    gcn_reg_core,
    propagate,
    train_gcn_init,
)
from opendomain.graph import KnowledgeGraph, normalized_adjacency
from opendomain.losses import (
    balance_core,
    cls_core,
    sgmd_core,
)
from opendomain.matching import hungarian
from opendomain.model import ModelState, encode
from opendomain.numkit import make_rng, softmax_rows
from opendomain.synth import generate
from opendomain.trainer import (
    joint_terms,
    pretrain_source,
    run_ablation,
    run_pipeline,
)

from gradcheck import grad_check, through_head
from joint_reference import encode_backward, gradient_arrays, on_copy


# ----------------------------------------------------- 1: matcher optimality

def _brute_force(costs):
    """Least total over every injective row-to-column map: each row of
    ``cols`` is one permutation, and one ``min`` takes the best row sum."""
    n, m = costs.shape
    if n > m:
        return _brute_force(costs.T)
    cols = np.array(list(itertools.permutations(range(m), n)))
    return float(costs[np.arange(n), cols].sum(axis=1).min())


def test_criterion_1_hungarian_matches_exhaustive_search():
    rng = make_rng(101)
    start = time.perf_counter()
    for _ in range(200):
        n = int(rng.integers(1, 8))
        costs = rng.random((n, n)) * 10
        assert costs[hungarian(costs)].sum() == pytest.approx(
            _brute_force(costs), abs=1e-9)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        costs = rng.random((n, m)) * 10
        assert costs[hungarian(costs)].sum() == pytest.approx(
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
        head = rng.standard_normal((4, 3))
        f = rng.standard_normal((5, 3))
        labels = rng.integers(0, 3, 5)
        term = lambda p: on_copy(cls_core, p, labels)
        _, d_f, d_w = through_head(term, f, head)
        if not _usable(d_f, d_w):
            continue
        _check(lambda a: through_head(term, a, head)[0], f, d_f)
        _check(lambda a: through_head(term, f, a)[0], head, d_w)
        checked += 1

    checked = 0  # matched-pair discrepancy
    while checked < 100:
        fs = rng.standard_normal((4, 3))
        ft = rng.standard_normal((4, 3))
        ps = softmax_rows(rng.standard_normal((4, 5)))
        pt = softmax_rows(rng.standard_normal((4, 5)))
        d_fs = np.empty_like(fs)
        _, gate = sgmd_core(fs, ft, ps, pt, 0.2, d_fs)
        d_ft = -d_fs
        if not gate.any() or not _usable(d_fs[gate], d_ft[gate]):
            continue
        _check(lambda a: sgmd_core(a, ft, ps, pt, 0.2, np.empty_like(a))[0], fs, d_fs)
        _check(lambda a: sgmd_core(fs, a, ps, pt, 0.2, np.empty_like(a))[0], ft, d_ft)
        checked += 1

    checked = 0  # balance constraints, vanilla and limited
    while checked < 100:
        head = rng.standard_normal((5, 3))
        f = rng.standard_normal((4, 3))
        w = float(rng.uniform(0.1, 0.9))
        vanilla = lambda p: on_copy(balance_core, p, 3, w, 1e-12, vanilla=True)
        limited = lambda p: on_copy(balance_core, p, 3, w, 1e-12, vanilla=False)
        _, vd_f, vd_w = through_head(vanilla, f, head)
        _, ld_f, ld_w = through_head(limited, f, head)
        if not _usable(vd_f, vd_w, ld_f, ld_w):
            continue
        _check(lambda a: through_head(vanilla, a, head)[0], f, vd_f)
        _check(lambda a: through_head(vanilla, f, a)[0], head, vd_w)
        _check(lambda a: through_head(limited, a, head)[0], f, ld_f)
        _check(lambda a: through_head(limited, f, a)[0], head, ld_w)
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
        d_theta = np.empty(theta.shape)  # the fit: the tie against W
        gcn_reg_core(z_known, theta, 0.2, w, d_theta)
        w_hat = rng.standard_normal((4, 3))
        z_class = propagate(p, x, [0, 1, 2, 4])
        rd_theta = np.empty(theta.shape)
        _, d_o = gcn_reg_core(z_class, theta, 0.2, w_hat, rd_theta)
        rd_w = -d_o
        if not _usable(d_theta, rd_theta, rd_w):
            continue
        _check(lambda t: gcn_reg_core(z_known, t, 0.2, w, np.empty(t.shape))[0],
               theta, d_theta)
        _check(lambda t: gcn_reg_core(z_class, t, 0.2, w_hat, np.empty(t.shape))[0],
               theta, rd_theta)
        _check(lambda a: gcn_reg_core(z_class, theta, 0.2, a, np.empty(theta.shape))[0],
               w_hat, rd_w)
        checked += 1

    checked = 0  # encoder backward
    while checked < 100:
        raw = rng.standard_normal((4, 3))
        enc = ModelState(rng.standard_normal((3, 2)), rng.standard_normal(2),
                         np.zeros((1, 2)), 1, np.zeros((1, 2)))
        target = rng.standard_normal((4, 2))
        d_out = encode(raw, enc) - target
        d_w, d_b = encode_backward(raw, d_out)
        if not _usable(d_w, d_b):
            continue
        obj = lambda e: 0.5 * float(np.sum((encode(raw, e) - target) ** 2))
        _check(lambda a: obj(replace(enc, weight=a)), enc.weight, d_w)
        _check(lambda a: obj(replace(enc, bias=a.ravel())),
               enc.bias.reshape(1, -1), d_b.reshape(1, -1))
        checked += 1

    checked = 0  # composite objective: one joint-loop step, all four terms
    cfg = ExperimentConfig(loss=LossWeights(
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
            state = ModelState(enc_w, enc_b.ravel(), head_w, 2, theta)
            opt = gradient_arrays(state, cfg)
            _, total, _ = joint_terms(opt, 2, z_class, cfg, raw_s, labels,
                                      raw_t, raw_s, raw_mt)
            return total, opt.grads

        enc_w = rng.standard_normal((3, 3))
        enc_b = rng.standard_normal((1, 3))
        head_w = rng.standard_normal((4, 3))
        theta = rng.standard_normal((4, 3))
        if float(np.min(np.abs(p @ words @ theta))) < 1e-4:
            continue
        _, grads = objective(enc_w, enc_b, head_w, theta)
        if not _usable(*grads):
            continue
        d_enc_w, d_enc_b, d_head_w, d_theta = grads
        _check(lambda v: objective(v, enc_b, head_w, theta)[0], enc_w, d_enc_w)
        _check(lambda v: objective(enc_w, v, head_w, theta)[0], enc_b, d_enc_b.reshape(1, -1))
        _check(lambda v: objective(enc_w, enc_b, v, theta)[0], head_w, d_head_w)
        _check(lambda v: objective(enc_w, enc_b, head_w, v)[0], theta, d_theta)
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
    def limited(mass, w):
        # one row of responses: a known class, and two unknown ones holding `mass`
        return on_copy(balance_core, np.array([[1.0 - mass, mass / 2, mass / 2]]), 1, w,
                       1e-12, vanilla=False)

    for w in (0.1, 1.0 / 3.0, 0.5, 0.8):
        value, d_logits = limited(w, w)
        assert abs(value - 2 * w) < 1e-12
        assert np.max(np.abs(d_logits)) < 1e-12
        for r in (w / 2, (1 + w) / 2):
            assert limited(r, w)[0] > 2 * w


# ------------------------------------------------ 5: propagation fidelity

def test_criterion_5_gcn_initialization_fidelity():
    start = time.perf_counter()
    cfg = ExperimentConfig()
    source, _, graph, words = generate(cfg.synth)
    rng_pre = make_rng(np.random.SeedSequence(cfg.seed).spawn(4)[0])
    (_, _, w_src), _ = pretrain_source(source.features, source.labels, cfg, rng_pre)
    z_class = propagate(normalized_adjacency(graph), words, graph.class_to_node)
    _, emb = train_gcn_init(z_class, w_src, GcnSchedule(), make_rng(0))
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
    cfg = ExperimentConfig(loss=LossWeights(tau=1.0), epochs=10)
    with_sgmd_state, with_hist = run_pipeline(cfg)
    without_state, without_hist = run_pipeline(replace(cfg, enable_sgmd=False))
    assert np.array_equal(with_sgmd_state.weight, without_state.weight)
    assert np.array_equal(with_sgmd_state.bias, without_state.bias)
    assert np.array_equal(with_sgmd_state.head, without_state.head)
    assert np.array_equal(with_sgmd_state.theta, without_state.theta)
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
