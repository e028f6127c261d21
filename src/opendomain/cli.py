"""Batch command-line entry point.

Subcommands: ``synth`` (write a benchmark to disk), ``train`` (run the full
pipeline on a data directory), ``ablate`` (variant comparison), ``match``
(standalone cross-domain matching) and ``eval`` (score a checkpoint).
Hyperparameters live in a config file; flags carry only paths, seeds and
variant selection. Exit statuses: 0 success, 1 usage/config error,
2 numeric failure, 3 I/O error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import synth
from .config import apply_flags, experiment_hash, parse_config
from .evaluate import accuracy_triple, predict
from .graph import load_graph, save_graph
from .losses import NonFiniteLossError
from .matching import MatchedPairs, match_domains, save_pairs
from .model import load_checkpoint, save_checkpoint
from .numkit import load_matrix, make_rng, save_matrix, size, write_json
from .trainer import check_data, format_ablation_table, run_ablation, run_pipeline

_DATA_FILES = {
    "source": "source.ds",
    "target": "target.ds",
    "graph": "graph.txt",
    "wordvec": "wordvec.mat",
}


def _read_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse_config(fh.read())
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _load_dataset(directory, name, classes):
    """Load a data file, rejecting one that declares other than ``classes``
    classes, has no rows, or is unlabeled as the source (labeled as the
    target)."""
    path = os.path.join(directory, _DATA_FILES[name])
    dataset, declared = synth.load_dataset(path)
    if isinstance(dataset, synth.LabeledDataset) != (name == "source"):
        raise ValueError(f"{path}: the {name} data must be "
                         f"{'labeled' if name == 'source' else 'unlabeled'}")
    if declared != classes:
        raise ValueError(f"{path}: declares {declared} classes, expected {classes}")
    if not dataset.n:
        raise ValueError(f"{path}: no rows")
    return dataset


def _load_data_dir(directory, cfg):
    """The data tuple of ``directory``, refused by :func:`check_data` with
    its file paths where it does not fit ``cfg`` or itself."""
    path = {name: os.path.join(directory, file) for name, file in _DATA_FILES.items()}
    source = _load_dataset(directory, "source", cfg.synth.known_classes)
    target = _load_dataset(directory, "target", cfg.synth.total_classes)
    word_vectors = load_matrix(path["wordvec"])
    graph = None  # with known == total nothing is propagated, so no graph.txt is read
    if cfg.synth.known_classes != cfg.synth.total_classes:
        if not os.path.exists(path["graph"]):
            raise ValueError(f"{path['graph']} not found: unknown classes need a taxonomy graph")
        graph = load_graph(path["graph"])
    data = source, target, graph, word_vectors
    check_data(cfg, data, names=tuple(path.values()))
    return data


def _require_eval_labels(target, directory) -> None:
    if target.eval_labels is None:
        path = os.path.join(directory, _DATA_FILES["target"])
        raise ValueError(f"{path}.eval not found: no labels to score against")


def cmd_synth(args) -> int:
    cfg = _read_config(args.config)
    source, target, graph, word_vectors = synth.generate(cfg.synth)
    os.makedirs(args.out, exist_ok=True)
    synth.save_dataset(os.path.join(args.out, _DATA_FILES["source"]), source,
                       cfg.synth.known_classes)
    synth.save_dataset(os.path.join(args.out, _DATA_FILES["target"]), target,
                       cfg.synth.total_classes)
    written = [_DATA_FILES[name] for name in ("source", "target", "wordvec")]
    if graph is not None:
        save_graph(os.path.join(args.out, _DATA_FILES["graph"]), graph)
        written.append(_DATA_FILES["graph"])
    save_matrix(os.path.join(args.out, _DATA_FILES["wordvec"]), word_vectors)
    write_json(os.path.join(args.out, "manifest.json"), {
        "config_hash": experiment_hash(cfg),
        "known_classes": cfg.synth.known_classes,
        "total_classes": cfg.synth.total_classes,
        "input_dim": cfg.synth.input_dim,
        "word_dim": cfg.synth.word_dim,
        "seed": cfg.synth.seed,
        "files": sorted(written) + [_DATA_FILES["target"] + ".eval"],
    })
    return 0


def cmd_train(args) -> int:
    cfg = _read_config(args.config)
    if args.flags is not None:
        tokens = [] if args.flags == "none" else args.flags.split(",")
        cfg = apply_flags(cfg, tokens)
    data = _load_data_dir(args.data, cfg)
    state, history = run_pipeline(cfg, data=data)
    os.makedirs(args.out, exist_ok=True)
    save_checkpoint(os.path.join(args.out, "checkpoint"), state,
                    config_hash=experiment_hash(cfg))
    write_json(os.path.join(args.out, "history.json"), {"epochs": history})
    keys = ("known", "unknown", "all", "n_known", "n_unknown")
    write_json(os.path.join(args.out, "metrics.json"), {**{k: history[-1][k] for k in keys},
               "config_hash": experiment_hash(cfg), "seed": cfg.seed})
    return 0


def cmd_ablate(args) -> int:
    cfg = _read_config(args.config)
    data = None
    if args.data:
        data = _load_data_dir(args.data, cfg)
        _require_eval_labels(data[1], args.data)
    seeds = [cfg.seed + i for i in range(args.seeds)]
    results = run_ablation(cfg, seeds, data=data)
    os.makedirs(args.out, exist_ok=True)
    write_json(os.path.join(args.out, "ablation.json"), {
        "config_hash": experiment_hash(cfg),
        "seeds": seeds,
        "variants": results,
    })
    table = format_ablation_table(results)
    with open(os.path.join(args.out, "table.txt"), "w", encoding="utf-8") as fh:
        fh.write(table)
    sys.stdout.write(table)
    return 0


def cmd_match(args) -> int:
    fs = load_matrix(args.source)
    ft = load_matrix(args.target)
    try:  # other widths, more folds than rows, or L1 costs or their total past float64
        src, tgt, costs, total = match_domains(fs, ft, args.folds, make_rng(args.seed))
    except ValueError as exc:
        raise ValueError(f"matching {args.source} against {args.target}: {exc}") from None
    save_pairs(args.out, MatchedPairs(pairs=tuple(zip(src.tolist(), tgt.tolist())),
                                      total_cost=total, costs=tuple(costs.tolist())))
    return 0


def cmd_eval(args) -> int:
    state, manifest = load_checkpoint(args.checkpoint)
    target = _load_dataset(args.data, "target", len(state.head))
    if target.features.shape[1] != manifest["input_dim"]:
        raise ValueError(f"{os.path.join(args.data, _DATA_FILES['target'])} and "
                         f"{os.path.join(args.checkpoint, 'manifest.json')} disagree on the "
                         f"input dim: {target.features.shape[1]} != {manifest['input_dim']}")
    _require_eval_labels(target, args.data)
    preds = predict(state, target.features)
    triple = accuracy_triple(preds, target.eval_labels, state.known_count)
    sys.stdout.write(json.dumps(triple.as_dict(), indent=2, sort_keys=True) + "\n")
    return 0


def count(token) -> int:
    """The value of a count flag (--seeds, --folds): an integer >= 1."""
    value = int(token)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    """Raises a usage error (a bad or missing flag) as a ValueError, which
    ``main`` reports in one line with exit 1, in place of argparse's usage
    message and exit 2. The subcommand parsers are of this class too."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="opendomain", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a benchmark into a directory")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("train", help="run the training pipeline")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--flags", default=None,
                   help="comma list of lb,sgmd,gcn,vanilla or 'none'")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("ablate", help="run the variant comparison")
    p.add_argument("--config", required=True)
    p.add_argument("--data", default=None)
    p.add_argument("--seeds", type=count, default=5)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("match", help="match two feature matrices")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--folds", type=count, default=1)
    p.add_argument("--seed", type=size, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_match)

    p = sub.add_parser("eval", help="score a checkpoint on a data directory")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(fn=cmd_eval)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except NonFiniteLossError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
