"""Byte-identity of the CLI's outputs, as a manifest of file -> sha256.

``write`` runs a fixed list of ``python -m opendomain.cli`` cases, each a
child process on one OpenBLAS thread under PYTHONWARNINGS=error, with the
work directory as its working directory and relative paths, so that no
output depends on where it was written. The cases:

- ``synth``, ``train`` and ``eval`` on the default config at synth seeds
  0-15 (``train.seed`` equal to ``synth.seed``), the benchmark's 16
  ``train`` items;
- every ``train`` run of ``tests/test_cli_smoke.py``, with ``eval``, its
  ``ablate`` of the symmetric config, and its ``match`` of the word vectors
  on themselves and against their first 10 rows;
- ``train`` on a copy of the smoke ``data`` directory without
  ``target.ds.eval``, whose ``history.json`` and ``metrics.json`` hold null
  accuracies;
- ``ablate --seeds 2`` on the default config, with and without ``--data``;
- ``match --folds 1``, ``--folds 3`` and the swapped case (more sources
  than targets) on seeded 1000 x 1500 standard normal rows of 16 columns.

It writes them under DIR, every file of which, inputs included, goes into
DIR/manifest.json. ``compare`` lists the files that differ between two
manifests, or that only one has, and exits 1 if there is any. To check a
change against its parent, write both on the same machine, the parent's
package given by ``--src``, the directory that holds
``opendomain/__init__.py`` (``write`` refuses one that does not, which would
run an installed ``opendomain`` instead)::

    git archive <parent> | tar -x -C /tmp/parent
    python3 tools/identity.py write /tmp/id-parent --src /tmp/parent/src
    python3 tools/identity.py write /tmp/id-head
    python3 tools/identity.py compare /tmp/id-parent/manifest.json /tmp/id-head/manifest.json
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = "manifest.json"


def _head_rows(matrix: Path, out: Path, rows: int) -> None:
    header, *lines = matrix.read_text().splitlines()
    out.write_text("\n".join([f"{rows} {header.split()[1]}", *lines[:rows]]) + "\n")


def _steps(work: Path) -> list:
    """The cases in the order they run in ``work``: each a CLI argument list,
    or a callable that writes an input from an earlier case's output. An
    ``eval``'s stdout goes to eval.json in its checkpoint's run directory.
    Writes the configs and the 1000 x 1500 inputs first."""
    sys.path.insert(0, str(ROOT / "tests"))
    from test_cli_smoke import _CONFIGS, _TRAIN_RUNS

    runs = []
    for seed in range(16):
        (work / f"item{seed}.cfg").write_text(f"train.seed = {seed}\nsynth.seed = {seed}\n")
        runs += [["synth", "--config", f"item{seed}.cfg", "--out", f"item{seed}"],
                 ["train", "--config", f"item{seed}.cfg", "--data", f"item{seed}",
                  "--out", f"run{seed}"],
                 ["eval", "--checkpoint", f"run{seed}/checkpoint", "--data", f"item{seed}"]]
    runs += [["ablate", "--config", "item0.cfg", "--data", "item0", "--seeds", "2",
              "--out", "ablate-data"],
             ["ablate", "--config", "item0.cfg", "--seeds", "2", "--out", "ablate-synth"]]

    for name, text in _CONFIGS.items():
        (work / f"smoke-{name}.cfg").write_text(text)
    runs += [["synth", "--config", f"smoke-{cfg}.cfg", "--out", f"smoke-{out}"]
             for cfg, out in (("exp", "data"), ("partial", "partial"), ("sym", "sym"))]
    words = "smoke-data/wordvec.mat"
    # more sources than targets: the word vectors against their first 10 rows
    runs.append(lambda: _head_rows(work / words, work / "smoke-few.mat", 10))
    for name, (cfg, flags, data) in sorted(_TRAIN_RUNS.items()):
        runs += [["train", "--config", f"smoke-{cfg}.cfg", "--data", f"smoke-{data}",
                  *(["--flags", flags] if flags else []), "--out", f"smoke-run-{name}"],
                 ["eval", "--checkpoint", f"smoke-run-{name}/checkpoint",
                  "--data", f"smoke-{data}"]]
    runs.append(lambda: shutil.copytree(work / "smoke-data", work / "smoke-unlabeled",
                                        ignore=shutil.ignore_patterns("target.ds.eval")))
    runs.append(["train", "--config", "smoke-exp.cfg", "--data", "smoke-unlabeled",
                 "--out", "smoke-run-unlabeled"])
    runs.append(["ablate", "--config", "smoke-sym.cfg", "--data", "smoke-sym", "--seeds", "2",
                 "--out", "smoke-ablate-sym"])
    runs += [["match", "--source", words, "--target", target, "--folds", "2", "--out", out]
             for target, out in ((words, "smoke-pairs.txt"), ("smoke-few.mat",
                                                               "smoke-swapped.txt"))]

    rng = np.random.default_rng(0)
    for name, rows in (("big-source.mat", 1000), ("big-target.mat", 1500)):
        np.savetxt(work / name, rng.standard_normal((rows, 16)), fmt="%.17g",
                   header=f"{rows} 16", comments="")
    runs += [["match", "--source", source, "--target", target, "--folds", folds, "--out", out]
             for source, target, folds, out in (
                 ("big-source.mat", "big-target.mat", "1", "big-folds1.txt"),
                 ("big-source.mat", "big-target.mat", "3", "big-folds3.txt"),
                 ("big-target.mat", "big-source.mat", "1", "big-swapped.txt"))]
    return runs


def _run(work: Path, argv: list, src: Path) -> None:
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1",
           "PYTHONWARNINGS": "error"}
    done = subprocess.run([sys.executable, "-m", "opendomain.cli", *argv], cwd=work, env=env,
                          capture_output=True, text=True)
    if done.returncode:
        sys.exit(f"opendomain {' '.join(argv)} exited {done.returncode}: {done.stderr.strip()}")
    if argv[0] == "eval":
        (work / Path(argv[2]).parent / "eval.json").write_text(done.stdout)


def write(work: Path, src: Path) -> dict:
    """Runs every case in ``work``, which must be empty or absent, and
    returns and writes its manifest."""
    if not (src / "opendomain" / "__init__.py").is_file():
        sys.exit(f"--src {src} does not hold the opendomain package (opendomain/__init__.py)")
    work.mkdir(parents=True, exist_ok=True)
    if any(work.iterdir()):
        sys.exit(f"{work} is not empty")
    for step in _steps(work):
        if callable(step):
            step()
        else:
            _run(work, step, src)
    manifest = {path.relative_to(work).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted(work.rglob("*")) if path.is_file()}
    (work / MANIFEST).write_text(json.dumps(manifest, indent=1) + "\n")
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("write", help="run the cases into DIR and write DIR/manifest.json")
    p.add_argument("dir", type=Path)
    p.add_argument("--src", type=Path, default=ROOT / "src",
                   help="the directory holding the opendomain package (default: this checkout's)")
    p = sub.add_parser("compare", help="list the files that differ between two manifests")
    p.add_argument("old", type=Path)
    p.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    if args.mode == "write":
        manifest = write(args.dir, args.src.resolve())
        print(f"{len(manifest)} files: {args.dir / MANIFEST}")
        return 0
    old, new = (json.loads(path.read_text()) for path in (args.old, args.new))
    differ = sorted(path for path in old.keys() | new.keys() if old.get(path) != new.get(path))
    for path in differ:
        print(path)
    print(f"{len(differ)} of {len(old.keys() | new.keys())} files differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
