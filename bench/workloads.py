"""The benchmark's workloads: what each writes during set-up, the CLI
commands one operation runs, and the checks on every operation's outputs.

Each workload has a pool of input items, a fixed suite of synthetic data
sets (synth seeds 0, 1, ...). Accuracy varies across random taxonomies and
training seeds far more than any bound can absorb (IQR/median of acc_unknown
is about 0.5 over single data sets and 0.08 still over the mean of 16 with
seeded training), so the items themselves do not depend on the workload
seed. The seed sets the order in which operations visit the items and, for
``match``, the seed of the CLI's fold permutation, which changes the order
in which the solver meets rows but not the optimum.

Outputs of an item must be byte-identical every time it runs. The accuracy
triple a workload reports is the mean over its items.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

from tracing import CLI_SPAN

VARIANTS = ("baseline", "lb", "lb+sgmd", "lb+sgmd+gcn", "vanilla-balance")
TRIPLE = ("known", "unknown", "all", "n_known", "n_unknown")


def seeds_from(seed: int, count: int) -> list:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def digest(directory: Path, extra: str = "") -> str:
    h = hashlib.sha256(extra.encode())
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _read_matrix(path: Path) -> np.ndarray:
    return np.loadtxt(path, skiprows=1, ndmin=2)


class Workload:
    """Set-up, commands and checks shared by every workload. Subclasses fill
    in ``write_item``, ``commands`` and ``check_item``."""

    name = ""

    def __init__(self, seed: int, pool: int):
        self.seed = seed
        self.pool = pool
        self.order = [int(i) for i in np.random.default_rng(seed).permutation(pool)]
        self.root = None
        self.tracer = None  # a tracing.Tracer while a traced run records
        self.reference = {}  # item -> digest of its first outputs
        self.quality = {}  # item -> (known, unknown, all) of its first outputs

    def cli(self, argv) -> tuple:
        """Run ``opendomain.cli.main`` in-process; returns (exit code, stdout)."""
        from opendomain import cli

        span = (self.tracer.span(CLI_SPAN) if self.tracer
                else contextlib.nullcontext())
        out = io.StringIO()
        with span, contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
        return code, out.getvalue()

    def setup(self, root: Path) -> None:
        """Write every input item under ``root`` (timed as set-up)."""
        root.mkdir(parents=True)
        for item in range(self.pool):
            self.write_item(root, item)
        self.root = root

    def prepare(self) -> None:
        """Oracle work for the checks; runs after set-up, untimed."""

    def check(self, item: int, out: Path, results) -> list:
        """Problems found in one operation's outputs; empty when correct."""
        problems = [f"command {n} exited {code}"
                    for n, (code, _) in enumerate(results) if code != 0]
        if problems:
            return problems
        problems, key, triple = self.check_item(item, out, results)
        if problems:
            return problems
        if self.reference.setdefault(item, key) != key:
            return [f"outputs of item {item} differ from its first run"]
        self.quality.setdefault(item, triple)
        return []

    def accuracy(self) -> dict:
        """Mean triple over the items with checked outputs (all of them
        unless an operation failed); zeros when there are none."""
        triples = list(self.quality.values()) or [(0.0, 0.0, 0.0)]
        known, unknown, all_ = (float(v) for v in np.mean(triples, axis=0))
        return {"acc_all": all_, "acc_known": known, "acc_unknown": unknown}


class _Suite(Workload):
    """Config files and data directories of the fixed synthetic suite."""

    def __init__(self, seed: int, pool: int, config_lines=()):
        super().__init__(seed, pool)
        self.config_lines = tuple(config_lines)

    def config(self, item) -> Path:
        return self.root / f"exp{item}.cfg"

    def data(self, item) -> Path:
        return self.root / f"data{item}"

    def write_item(self, root, item):
        lines = [f"train.seed = {item}", f"synth.seed = {item}", *self.config_lines]
        cfg = root / f"exp{item}.cfg"
        cfg.write_text("\n".join(lines) + "\n")
        code, _ = self.cli(["synth", "--config", str(cfg),
                           "--out", str(root / f"data{item}")])
        if code != 0:
            raise RuntimeError(f"opendomain synth exited {code}")


class Train(_Suite):
    """``opendomain train`` then ``opendomain eval`` on one data directory."""

    name = "train"

    def __init__(self, seed: int, pool: int = 16, config_lines=()):
        super().__init__(seed, pool, config_lines)
        self.targets = {}

    def prepare(self):
        for item in range(self.pool):
            data = self.data(item)
            features = np.loadtxt(data / "target.ds", skiprows=1, ndmin=2,
                                  converters={0: lambda _: 0.0})[:, 1:]
            labels = np.loadtxt(data / "target.ds.eval", dtype=int, ndmin=1)
            self.targets[item] = (features, labels)

    def commands(self, item, out):
        return [
            ["train", "--config", str(self.config(item)),
             "--data", str(self.data(item)), "--out", str(out)],
            ["eval", "--checkpoint", str(out / "checkpoint"),
             "--data", str(self.data(item))],
        ]

    def recompute_triple(self, item, checkpoint: Path) -> dict:
        """Accuracy of the saved checkpoint, from its text files alone."""
        features, labels = self.targets[item]
        weight = _read_matrix(checkpoint / "encoder.weight")
        bias = _read_matrix(checkpoint / "encoder.bias")
        head = _read_matrix(checkpoint / "head.weights")
        known_count = json.loads((checkpoint / "manifest.json").read_text())[
            "known_classes"]
        preds = np.argmax((features @ weight + bias) @ head.T, axis=1)
        correct = preds == labels
        known = labels < known_count
        return {"known": correct[known].mean(), "unknown": correct[~known].mean(),
                "all": correct.mean(), "n_known": int(known.sum()),
                "n_unknown": int((~known).sum())}

    def check_item(self, item, out, results):
        metrics = json.loads((out / "metrics.json").read_text())
        evaluated = json.loads(results[1][1])
        problems = [f"eval {k}={evaluated.get(k)} but metrics.json {k}={metrics.get(k)}"
                    for k in TRIPLE if evaluated.get(k) != metrics.get(k)]
        expected = self.recompute_triple(item, out / "checkpoint")
        problems += [f"metrics.json {k}={metrics.get(k)}, recomputed {v}"
                     for k, v in expected.items()
                     if not math.isclose(metrics.get(k, math.nan), v,
                                         rel_tol=0, abs_tol=1e-12)]
        key = digest(out, results[1][1])
        return problems, key, (metrics["known"], metrics["unknown"], metrics["all"])


class Ablation(_Suite):
    """``opendomain ablate --seeds 2``: five variants on two training seeds,
    i.e. ten pipelines, on one data directory."""

    name = "ablation"
    seeds_per_op = 2

    def __init__(self, seed: int, pool: int = 4, config_lines=()):
        super().__init__(seed, pool, config_lines)

    def commands(self, item, out):
        return [["ablate", "--config", str(self.config(item)),
                 "--data", str(self.data(item)),
                 "--seeds", str(self.seeds_per_op), "--out", str(out)]]

    def check_item(self, item, out, results):
        report = json.loads((out / "ablation.json").read_text())
        variants = report.get("variants", {})
        problems = []
        if tuple(sorted(variants)) != tuple(sorted(VARIANTS)):
            problems.append(f"variants {sorted(variants)} != {sorted(VARIANTS)}")

        def walk(value, where):
            if isinstance(value, dict):
                for k, v in value.items():
                    walk(v, f"{where}.{k}")
            elif isinstance(value, list):
                for n, v in enumerate(value):
                    walk(v, f"{where}[{n}]")
            elif isinstance(value, float) and not math.isfinite(value):
                problems.append(f"{where} is {value}")

        walk(variants, "variants")
        for name, entry in variants.items():
            if entry.get("seeds") != self.seeds_per_op:
                problems.append(f"{name} ran {entry.get('seeds')} seeds")
        if results[0][1] != (out / "table.txt").read_text():
            problems.append("printed table differs from table.txt")
        if problems:
            return problems, None, None
        full = variants["lb+sgmd+gcn"]
        return [], digest(out), (full["known_mean"], full["unknown_mean"],
                                 full["all_mean"])


class Match(Workload):
    """``opendomain match --folds 1`` on synthetic source and target
    features: one exact assignment of the whole source onto the target."""

    name = "match"

    def __init__(self, seed: int, pool: int = 1, per_class: int = 125):
        super().__init__(seed, pool)
        self.per_class = per_class
        self.fold_seeds = seeds_from(seed, pool)
        self.labels = {}
        self.oracle = {}  # item -> (L1 cost matrix, optimal total cost)

    def write_item(self, root, item):
        from opendomain import numkit, synth

        cfg = synth.SynthConfig(source_per_class=self.per_class,
                                target_per_class=self.per_class,
                                seed=item)
        source, target, _, _ = synth.generate(cfg)
        numkit.save_matrix(root / f"source{item}.mat", source.features)
        numkit.save_matrix(root / f"target{item}.mat", target.features)
        self.labels[item] = (source.labels, target.eval_labels, cfg.known_classes)

    def prepare(self):
        from scipy.optimize import linear_sum_assignment

        for item in range(self.pool):
            fs = _read_matrix(self.root / f"source{item}.mat")
            ft = _read_matrix(self.root / f"target{item}.mat")
            cost = np.empty((fs.shape[0], ft.shape[0]))
            for start in range(0, fs.shape[0], 64):
                block = fs[start:start + 64, None, :] - ft[None, :, :]
                cost[start:start + 64] = np.abs(block).sum(axis=2)
            rows, cols = linear_sum_assignment(cost)
            self.oracle[item] = (cost, math.fsum(cost[rows, cols]))

    def commands(self, item, out):
        return [["match", "--source", str(self.root / f"source{item}.mat"),
                 "--target", str(self.root / f"target{item}.mat"),
                 "--folds", "1", "--seed", str(self.fold_seeds[item]),
                 "--out", str(out / "pairs.txt")]]

    def check_pairs(self, item, path: Path) -> tuple:
        """(problems, pairs) for a pairs file against the item's oracle."""
        cost, optimum = self.oracle[item]
        n_s, n_t = cost.shape
        lines = path.read_text().splitlines()
        header = lines[0].split()
        if len(header) != 4 or header[0] != "pairs" or header[2] != "total":
            return [f"malformed header {lines[0]!r}"], None
        count, total = int(header[1]), float(header[3])
        pairs = np.array([line.split()[:2] for line in lines[1:]], dtype=int)
        problems = []
        if count != min(n_s, n_t) or len(pairs) != count:
            problems.append(f"{len(pairs)} pairs (header {count}), "
                            f"expected {min(n_s, n_t)}")
        if len(pairs):
            src, tgt = pairs[:, 0], pairs[:, 1]
            if (src.min() < 0 or src.max() >= n_s or tgt.min() < 0
                    or tgt.max() >= n_t):
                return problems + ["pair index out of range"], None
            if len(set(src)) != len(src) or len(set(tgt)) != len(tgt):
                problems.append("an index is matched twice")
            matched = math.fsum(cost[src, tgt])
            for what, value in (("matched cost", matched), ("header total", total)):
                if not math.isclose(value, optimum, rel_tol=1e-9):
                    problems.append(f"{what} {value!r} != optimum {optimum!r}")
        return problems, pairs

    def check_item(self, item, out, results):
        problems, pairs = self.check_pairs(item, out / "pairs.txt")
        if problems:
            return problems, None, None
        return [], digest(out), self.matched_triple(item, pairs)

    def matched_triple(self, item, pairs) -> tuple:
        """Open-set matching accuracy: a known-class target row is right when
        matched to a source row of its class, an unknown-class target row
        when left unmatched (the source has no row of its class)."""
        src_labels, tgt_labels, known_count = self.labels[item]
        matched_class = np.full(len(tgt_labels), -1)
        matched_class[pairs[:, 1]] = src_labels[pairs[:, 0]]
        known = tgt_labels < known_count
        right = np.where(known, matched_class == tgt_labels, matched_class == -1)
        return right[known].mean(), right[~known].mean(), right.mean()


WORKLOADS = {"train": Train, "ablation": Ablation, "match": Match}
