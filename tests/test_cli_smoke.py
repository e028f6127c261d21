"""CLI smoke runs of all five subcommands, each a ``python -m opendomain.cli``
subprocess on the package source under PYTHONWARNINGS=error, so a warning
fails a valid run as an error would. The same input and seed give
byte-identical outputs: each train, ablate and match run goes once at
OPENBLAS_NUM_THREADS=1 and once at 2, and the two must write the same bytes.
Each train run records the hash of its config file, and its checkpoint's
eval scores what it scored. A refused input exits 1 with one stderr line
that names the key or the files at fault.
And numpy is the only runtime dependency: all five subcommands run with
scipy, hypothesis and pytest blocked, and a 1000 x 1500 match stays under a
memory bound."""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_CONFIG = ("train.seed = 0\nsynth.seed = 0\ngcn.steps = 100\ntrain.epochs = 2\n"
           "pretrain.epochs = 2\n")
_CONFIGS = {
    # GCN init solves in closed form where the condition number of Z_k Z_k^T
    # is within slope^2*lr*steps/(1-momentum): on this data at the default
    # 8000 steps (closed), not at 100 (exp), which runs the gcn.steps loop
    "exp": _CONFIG,
    "closed": _CONFIG.replace("gcn.steps = 100\n", ""),
    # slope 0 makes that limit zero: the loop with a zero negative slope
    "loop": _CONFIG + "gcn.slope = 0\n",
    # 160 sources against 120 targets: batches carry partly matched rows,
    # rematched every epoch
    "partial": _CONFIG + ("synth.source_per_class = 20\nsynth.target_per_class = 10\n"
                          "train.rematch_interval = 1\n"),
    # known == total: ablate compares source-only with SGMD
    "sym": _CONFIG + ("synth.total_classes = 8\nflags.enable_lb = false\n"
                      "flags.enable_gcn = false\n"),
    # the smallest stack, source rows only, and an unusual one, SGMD with the
    # vanilla balance
    "none": _CONFIG + ("flags.enable_lb = false\nflags.enable_sgmd = false\n"
                       "flags.enable_gcn = false\n"),
    "vanilla": _CONFIG + ("flags.enable_lb = false\nflags.enable_gcn = false\n"
                          "flags.vanilla_balance = true\n"),
}
# name: (config, data). GCN init's loop (exp, loop) and closed form
# (closed), the none and vanilla stacks, and partial pairs (partial), where
# a last-bit difference would flip the exact assignment
_TRAIN_RUNS = {
    "exp": ("exp", "data"),
    "closed": ("closed", "data"),
    "loop": ("loop", "data"),
    "none": ("none", "data"),
    "vanilla": ("vanilla", "data"),
    "partial": ("partial", "partial"),
}
_TRAIN_FILES = ("metrics.json", "history.json", "checkpoint/encoder.weight",
                "checkpoint/encoder.bias", "checkpoint/head.weights", "checkpoint/gcn.theta")


def _python(args, threads=1, code=0):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONWARNINGS": "error",
           "OPENBLAS_NUM_THREADS": str(threads)}
    done = subprocess.run([sys.executable, *map(str, args)], env=env, capture_output=True,
                          text=True)
    assert done.returncode == code, (args, threads, done.stderr)
    return done


def _cli(argv, threads=1, code=0):
    return _python(["-m", "opendomain.cli", *argv], threads, code)


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """The smoke configs, the synth data of exp (data) and of partial
    (partial), and few.mat: the first 10 rows of data's wordvec.mat."""
    work = tmp_path_factory.mktemp("smoke")
    for name, text in _CONFIGS.items():
        (work / f"{name}.cfg").write_text(text)
    for cfg, out in (("exp", "data"), ("partial", "partial")):
        _cli(["synth", "--config", work / f"{cfg}.cfg", "--out", work / out])
    header, *lines = (work / "data" / "wordvec.mat").read_text().splitlines()
    (work / "few.mat").write_text("\n".join([f"10 {header.split()[1]}", *lines[:10]]) + "\n")
    return work


@pytest.fixture(scope="module", params=sorted(_TRAIN_RUNS))
def trained(work, request):
    """One of _TRAIN_RUNS, trained into <name>1 on one OpenBLAS thread and
    into <name>2 on two: (the work directory, its name)."""
    name = request.param
    cfg, data = _TRAIN_RUNS[name]
    for threads in (1, 2):
        _cli(["train", "--config", work / f"{cfg}.cfg", "--data", work / data,
              "--out", work / f"{name}{threads}"], threads)
    return work, name


def test_train_writes_the_same_bytes_on_one_and_two_threads(trained):
    work, name = trained
    one, two = work / f"{name}1", work / f"{name}2"
    for file in _TRAIN_FILES:
        assert (one / file).read_bytes() == (two / file).read_bytes(), file


def test_train_records_the_hash_of_its_config_file(trained):
    # imported here: tools/identity.py reads this module's tables without
    # the package on its path
    from opendomain.config import experiment_hash, parse_config

    work, name = trained
    cfg = parse_config((work / f"{_TRAIN_RUNS[name][0]}.cfg").read_text())
    metrics = json.loads((work / f"{name}1" / "metrics.json").read_text())
    assert metrics["config_hash"] == experiment_hash(cfg)


def test_eval_scores_what_train_scored_in_its_last_epoch(trained):
    work, name = trained
    data = _TRAIN_RUNS[name][1]
    scored = json.loads(_cli(["eval", "--checkpoint", work / f"{name}1" / "checkpoint",
                              "--data", work / data]).stdout)
    trained_metrics = json.loads((work / f"{name}1" / "metrics.json").read_text())
    for key in ("known", "unknown", "all", "n_known", "n_unknown"):
        assert scored[key] == trained_metrics[key], key


def test_ablate_writes_the_same_bytes_on_one_and_two_threads(work):
    # the two seeds' variants share each seed's prefix
    for threads in (1, 2):
        _cli(["ablate", "--config", work / "exp.cfg", "--data", work / "data", "--seeds", "2",
              "--out", work / f"ablate{threads}"], threads)
    one, two = work / "ablate1", work / "ablate2"
    for file in ("ablation.json", "table.txt"):
        assert (one / file).read_bytes() == (two / file).read_bytes(), file


def test_ablate_compares_source_only_with_sgmd_when_every_class_is_known(work):
    _cli(["synth", "--config", work / "sym.cfg", "--out", work / "sym"])
    _cli(["ablate", "--config", work / "sym.cfg", "--data", work / "sym", "--seeds", "2",
          "--out", work / "sym-ablation"])
    ablation = json.loads((work / "sym-ablation" / "ablation.json").read_text())
    assert sorted(ablation["variants"]) == ["sgmd", "source_only"]


# all five subcommands in one process in which every import of scipy,
# hypothesis or pytest raises ImportError; then a 1000 x 1500 match in a child
# process, whose peak resident MB and wall seconds are printed
_NUMPY_ONLY = """
import resource
import subprocess
import sys
import time

for name in ("scipy", "hypothesis", "pytest"):
    sys.modules[name] = None
import numpy as np
from opendomain.cli import main

work = sys.argv[1]
for argv in (["synth", "--config", f"{work}/exp.cfg", "--out", f"{work}/data"],
             ["train", "--config", f"{work}/exp.cfg", "--data", f"{work}/data",
              "--out", f"{work}/run"],
             ["eval", "--checkpoint", f"{work}/run/checkpoint", "--data", f"{work}/data"],
             ["ablate", "--config", f"{work}/exp.cfg", "--data", f"{work}/data", "--seeds", "1",
              "--out", f"{work}/ablation"],
             ["match", "--source", f"{work}/data/wordvec.mat", "--target",
              f"{work}/data/wordvec.mat", "--out", f"{work}/pairs.txt"]):
    assert main(argv) == 0, argv
rng = np.random.default_rng(0)
for name, rows in (("big_source", 1000), ("big_target", 1500)):
    np.savetxt(f"{work}/{name}.mat", rng.standard_normal((rows, 16)), fmt="%.17g",
               header=f"{rows} 16", comments="")
start = time.perf_counter()
subprocess.run([sys.executable, "-m", "opendomain.cli", "match", "--source",
                f"{work}/big_source.mat", "--target", f"{work}/big_target.mat", "--folds", "1",
                "--out", f"{work}/big_pairs.txt"], check=True)
wall_s = time.perf_counter() - start
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, wall_s)
"""


def test_numpy_is_the_only_runtime_dependency(tmp_path):
    # the L1 cost's temporary is built in row blocks, not as one 384 MB
    # n x m x d array; the wall seconds gate nothing
    (tmp_path / "exp.cfg").write_text(_CONFIG)
    peak_mb, wall_s = map(float, _python(["-c", _NUMPY_ONLY, tmp_path]).stdout.split()[-2:])
    assert peak_mb < 150, f"1000 x 1500 match peaked at {peak_mb:.0f} MB in {wall_s:.2f} s"


# pairs: a square assignment; swapped: more sources than targets, so the
# solver runs on the transposed cost
@pytest.mark.parametrize("name, target", [("pairs", "data/wordvec.mat"), ("swapped", "few.mat")],
                         ids=["pairs", "swapped"])
def test_match_writes_the_same_bytes_on_one_and_two_threads(work, name, target):
    written = []
    for threads in (1, 2):
        out = work / f"{name}{threads}.txt"
        _cli(["match", "--source", work / "data" / "wordvec.mat", "--target", work / target,
              "--folds", "2", "--out", out], threads)
        written.append(out.read_bytes())
    assert written[0] == written[1]


def _learning_rate_of_zero(work):
    """synth on the smoke config with a key out of its range."""
    (work / "bad.cfg").write_text(_CONFIG + "pretrain.learning_rate = 0\n")
    return (["synth", "--config", work / "bad.cfg", "--out", work / "bad"],
            ["pretrain.learning_rate"])


def _wordvec_without_columns(work):
    """train on a copy of the data whose wordvec.mat keeps its rows but has no
    columns: a header of ``<rows> 0``, then one empty line per row."""
    shutil.copytree(work / "data", work / "narrow")
    rows = int((work / "data" / "wordvec.mat").read_text().split()[0])
    (work / "narrow" / "wordvec.mat").write_text(f"{rows} 0\n" + "\n" * rows)
    return (["train", "--config", work / "exp.cfg", "--data", work / "narrow",
             "--out", work / "narrow-run"], ["wordvec.mat"])


def _costs_past_float64(work):
    """match on finite entries whose L1 cost overflows float64: two rows of
    1e308 against two of -1e308, in the first of 16 columns."""
    for name, value in (("plus", "1e308"), ("minus", "-1e308")):
        row = " ".join([value] + ["0"] * 15)
        (work / f"{name}.mat").write_text(f"2 16\n{row}\n{row}\n")
    return (["match", "--source", work / "plus.mat", "--target", work / "minus.mat",
             "--out", work / "overflow.txt"],
            ["plus.mat", "minus.mat", "an L1 cost overflows float64"])


@pytest.mark.parametrize("refused", [_learning_rate_of_zero, _wordvec_without_columns,
                                     _costs_past_float64],
                         ids=["synth: a key out of range", "train: wordvec.mat with no columns",
                              "match: L1 costs past float64"])
def test_a_refusal_is_one_stderr_line_naming_its_cause(work, refused):
    argv, names = refused(work)
    stderr = _cli(argv, code=1).stderr
    assert len(stderr.splitlines()) == 1, stderr
    for name in names:
        assert name in stderr, (name, stderr)
