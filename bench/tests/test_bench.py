"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench/tests
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from opendomain import cli, trainer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_CONFIG = ("gcn.steps = 100", "train.epochs = 2", "pretrain.epochs = 2",
               "synth.source_per_class = 10", "synth.target_per_class = 10")


def tiny(name, seed=0):
    if name == "match":
        return workloads.Match(seed, pool=2, per_class=10)
    return workloads.WORKLOADS[name](seed, pool=2, config_lines=TINY_CONFIG)


def units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_metric_names_match_spec(name, trace):
    result = run.run(tiny(name), seconds=0, trace=trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == units("per_layer" if trace else "end_to_end")
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_spec_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


def test_counts_per_operation():
    layer = {name: run.run(tiny(name), seconds=0, trace=1)["metrics"]
             for name in workloads.WORKLOADS}

    def count(name, key):
        return layer[name][key]["value"]

    assert count("train", "trainer.pipeline_calls") == 1
    assert count("train", "model.pretrain_calls") == 1
    assert count("ablation", "trainer.pipeline_calls") == 10
    assert count("ablation", "model.pretrain_calls") == 10
    assert count("train", "gcn.init_loss_calls") == 100
    assert count("ablation", "gcn.init_loss_calls") == 10 * 100
    assert count("train", "matching.solve_calls") == 5
    assert count("match", "matching.solve_calls") == 1
    assert count("match", "gcn.init_calls") == 0
    assert count("match", "matching.l1_bytes") == 80 * 120 * 16 * 8


def test_wrong_pairs_are_counted_as_failed(monkeypatch):
    original = cli.save_pairs

    def swapped(path, mp, costs=None):
        pairs = list(mp.pairs)
        (s0, t0), (s1, t1) = pairs[0], pairs[1]
        pairs[0], pairs[1] = (s0, t1), (s1, t0)
        original(path, type(mp)(pairs=tuple(pairs), total_cost=mp.total_cost))

    monkeypatch.setattr(cli, "save_pairs", swapped)
    result = run.run(tiny("match"), seconds=0, trace=0)
    # the peak-memory operation runs in a fresh process, unpatched
    assert not result["correct"]
    assert result["failed"] == result["attempted"] - 1


def test_pairs_check_rejects_bad_files(tmp_path):
    wl = tiny("match")
    wl.setup(tmp_path / "in")
    wl.prepare()
    out = tmp_path / "out"
    out.mkdir()
    code, _ = wl.cli(wl.commands(0, out)[0])
    assert code == 0
    good = (out / "pairs.txt").read_text().splitlines()
    assert wl.check_pairs(0, out / "pairs.txt")[0] == []

    def problems(lines):
        path = tmp_path / "bad.txt"
        path.write_text("\n".join(lines) + "\n")
        return wl.check_pairs(0, path)[0]

    first, second = good[1].split(), good[2].split()
    duplicate = [good[0], good[1], " ".join([second[0], first[1], second[2]]),
                 *good[3:]]
    assert any("twice" in p for p in problems(duplicate))
    assert any("pairs" in p for p in problems(good[:-1]))
    swapped = [good[0], " ".join([first[0], second[1], "0"]),
               " ".join([second[0], first[1], "0"]), *good[3:]]
    assert any("optimum" in p for p in problems(swapped))


def test_wrong_accuracy_is_counted_as_failed(monkeypatch):
    original = trainer.accuracy_triple

    def inflated(preds, labels, known_count):
        triple = original(preds, labels, known_count)
        return type(triple)(**{**triple.as_dict(), "all": triple.all + 0.01})

    # the same wrong number from train and eval: only the benchmark's own
    # recomputation from the checkpoint can catch it
    monkeypatch.setattr(trainer, "accuracy_triple", inflated)
    monkeypatch.setattr(cli, "accuracy_triple", inflated)
    result = run.run(tiny("train"), seconds=0, trace=0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] - 1


def test_bare_directory_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", "train", "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
