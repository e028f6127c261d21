"""CLI smoke runs, each a ``python -m opendomain.cli`` subprocess on the
package source under PYTHONWARNINGS=error, so a warning fails a valid run as
an error would. The same input and seed give byte-identical outputs: each
run goes once at OPENBLAS_NUM_THREADS=1 and once at 2, and the two must
write the same bytes. A refused input exits 1 with one stderr line that
names the key or the files at fault."""
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_CONFIG = ("train.seed = 0\nsynth.seed = 0\ngcn.steps = 100\ntrain.epochs = 2\n"
           "pretrain.epochs = 2\n")


def _cli(argv, threads=1, code=0):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONWARNINGS": "error",
           "OPENBLAS_NUM_THREADS": str(threads)}
    done = subprocess.run([sys.executable, "-m", "opendomain.cli", *map(str, argv)],
                          env=env, capture_output=True, text=True)
    assert done.returncode == code, (argv, threads, done.stderr)
    return done


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """The smoke config's synth data, and few.mat: the first 10 rows of its
    wordvec.mat."""
    work = tmp_path_factory.mktemp("smoke")
    (work / "exp.cfg").write_text(_CONFIG)
    _cli(["synth", "--config", work / "exp.cfg", "--out", work / "data"])
    header, *lines = (work / "data" / "wordvec.mat").read_text().splitlines()
    (work / "few.mat").write_text("\n".join([f"10 {header.split()[1]}", *lines[:10]]) + "\n")
    return work


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
             "--out", work / "overflow.txt"], ["plus.mat", "minus.mat"])


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
