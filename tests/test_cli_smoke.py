"""CLI smoke runs, each a ``python -m opendomain.cli`` subprocess on the
package source under PYTHONWARNINGS=error, so a warning fails a valid run as
an error would. The same input and seed give byte-identical outputs: each
run goes once at OPENBLAS_NUM_THREADS=1 and once at 2, and the two must
write the same bytes."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_CONFIG = ("train.seed = 0\nsynth.seed = 0\ngcn.steps = 100\ntrain.epochs = 2\n"
           "pretrain.epochs = 2\n")


def _cli(argv, threads=1):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONWARNINGS": "error",
           "OPENBLAS_NUM_THREADS": str(threads)}
    done = subprocess.run([sys.executable, "-m", "opendomain.cli", *map(str, argv)],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, (argv, threads, done.stderr)


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
