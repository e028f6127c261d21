import json
import os
import shutil
from dataclasses import replace

import numpy as np
import pytest

from opendomain.cli import main
from opendomain.config import apply_flags, parse_config
from opendomain.numkit import load_matrix, make_rng, save_matrix
from opendomain.synth import load_dataset, save_dataset
from opendomain.trainer import DA_VARIANTS, run_pipeline
from pairs_file import load_pairs

SMALL_CONFIG = """
train.seed = 0
synth.seed = 0
synth.known_classes = 3
synth.total_classes = 5
synth.input_dim = 6
synth.word_dim = 12
synth.source_per_class = 10
synth.target_per_class = 10
train.feature_dim = 5
train.epochs = 3
train.batch_size = 8
train.folds = 2
pretrain.epochs = 3
gcn.steps = 300
"""


# known == total: synth writes no graph, and lb and gcn must be off
SYM_CONFIG = (SMALL_CONFIG.replace("total_classes = 5", "total_classes = 3")
              + "flags.enable_lb = false\nflags.enable_gcn = false\n")


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(SMALL_CONFIG)
    return str(path)


def _synth(config_path, out):
    assert main(["synth", "--config", config_path, "--out", str(out)]) == 0


def test_synth_writes_expected_files(tmp_path, config_path):
    out = tmp_path / "data"
    _synth(config_path, out)
    for name in ("source.ds", "target.ds", "target.ds.eval", "graph.txt",
                 "wordvec.mat", "manifest.json"):
        assert (out / name).exists(), name
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["files"] == ["graph.txt", "source.ds", "target.ds", "wordvec.mat",
                                 "target.ds.eval"]
    assert manifest["known_classes"] == 3
    assert manifest["total_classes"] == 5
    assert manifest["seed"] == 0
    assert len(manifest["config_hash"]) == 16


def test_synth_reruns_byte_identical(tmp_path, config_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    _synth(config_path, a)
    _synth(config_path, b)
    for name in ("source.ds", "target.ds", "target.ds.eval", "graph.txt",
                 "wordvec.mat", "manifest.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_synth_bad_config_exits_one(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("train.seed = 0\n")  # missing synth.seed
    assert main(["synth", "--config", str(path), "--out",
                 str(tmp_path / "out")]) == 1


@pytest.mark.parametrize("line", ["gcn.momentum = -3.0", "pretrain.batch_size = 0"])
def test_bad_schedule_key_exits_one(tmp_path, line):
    path = tmp_path / "bad.cfg"
    path.write_text(SMALL_CONFIG + line + "\n")
    assert main(["synth", "--config", str(path), "--out",
                 str(tmp_path / "out")]) == 1


def test_missing_config_file_exits_three(tmp_path):
    assert main(["synth", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path / "out")]) == 3


def test_train_and_eval_agree(tmp_path, config_path, capsys):
    data = tmp_path / "data"
    run = tmp_path / "run"
    _synth(config_path, data)
    assert main(["train", "--config", config_path, "--data", str(data),
                 "--out", str(run)]) == 0
    metrics = json.loads((run / "metrics.json").read_text())
    for key in ("known", "unknown", "all"):
        assert 0.0 <= metrics[key] <= 1.0
    history = json.loads((run / "history.json").read_text())
    assert len(history["epochs"]) == 3
    assert history["epochs"][-1]["all"] == metrics["all"]
    assert (run / "checkpoint" / "manifest.json").exists()

    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(run / "checkpoint"),
                 "--data", str(data)]) == 0
    out = capsys.readouterr().out
    assert out.startswith('{\n  "all": ') and out.endswith("\n}\n")  # sorted, indent 2
    scored = json.loads(out)
    for key in ("known", "unknown", "all", "n_known", "n_unknown"):
        assert scored[key] == metrics[key]


def test_train_and_eval_without_a_graph(tmp_path, capsys):
    """With known == total (lb and gcn off) synth writes no graph, and
    train and eval run on the data directory without one."""
    config = tmp_path / "sym.cfg"
    config.write_text(SYM_CONFIG)
    data = tmp_path / "data"
    run = tmp_path / "run"
    _synth(str(config), data)
    assert not (data / "graph.txt").exists()
    # the manifest lists the files synth wrote, and only those
    assert json.loads((data / "manifest.json").read_text())["files"] == [
        "source.ds", "target.ds", "wordvec.mat", "target.ds.eval"]
    assert main(["train", "--config", str(config), "--data", str(data),
                 "--out", str(run)]) == 0
    metrics = json.loads((run / "metrics.json").read_text())
    assert metrics["n_unknown"] == 0
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(run / "checkpoint"),
                 "--data", str(data)]) == 0
    scored = json.loads(capsys.readouterr().out)
    for key in ("known", "unknown", "all", "n_known", "n_unknown"):
        assert scored[key] == metrics[key]


@pytest.mark.parametrize("header", ["known 3 classes 5", "known 5 classes 5"])
def test_train_without_unknown_classes_never_reads_a_graph(tmp_path, config_path,
                                                           header):
    """A known == total data directory that carries a graph.txt, taken from
    an open-set synth output with its header as given, trains exactly as
    without the file: with no unknown classes the graph is never read."""
    config = tmp_path / "sym.cfg"
    config.write_text(SYM_CONFIG)
    data = tmp_path / "data"
    _synth(str(config), data)
    _synth(config_path, tmp_path / "open")

    def train(out):
        assert main(["train", "--config", str(config), "--data", str(data),
                     "--out", str(out)]) == 0
        return {str(p.relative_to(out)): p.read_bytes()
                for p in sorted(out.rglob("*")) if p.is_file()}

    without = train(tmp_path / "without")
    text = (tmp_path / "open" / "graph.txt").read_text()
    (data / "graph.txt").write_text(text.replace("known 3 classes 5", header))
    assert "metrics.json" in without
    assert train(tmp_path / "with") == without


def test_train_flags_select_variant(tmp_path, config_path):
    """The config's flags.* keys are the terms a run trains: all on by
    default, and none with the three switches off."""
    data = tmp_path / "data"
    _synth(config_path, data)
    base_config = tmp_path / "base.cfg"
    base_config.write_text(SMALL_CONFIG + "flags.enable_lb = false\n"
                           "flags.enable_sgmd = false\nflags.enable_gcn = false\n")
    for config, out in ((config_path, "full"), (base_config, "base")):
        assert main(["train", "--config", str(config), "--data", str(data),
                     "--out", str(tmp_path / out)]) == 0
    h_base = json.loads((tmp_path / "base" / "history.json").read_text())
    assert all(rec["loss_balance"] == 0.0 for rec in h_base["epochs"])
    h_full = json.loads((tmp_path / "full" / "history.json").read_text())
    assert any(rec["loss_balance"] != 0.0 for rec in h_full["epochs"])


def test_train_missing_data_exits_three(tmp_path, config_path):
    assert main(["train", "--config", config_path,
                 "--data", str(tmp_path / "nothing"),
                 "--out", str(tmp_path / "run")]) == 3


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_numeric_failure_exits_two(tmp_path, config_path):
    data = tmp_path / "data"
    _synth(config_path, data)
    blowup = tmp_path / "blowup.cfg"
    blowup.write_text(SMALL_CONFIG.replace("train.epochs = 3",
                                           "train.epochs = 10")
                      + "train.learning_rate = 1e12\n")
    assert main(["train", "--config", str(blowup), "--data", str(data),
                 "--out", str(tmp_path / "run")]) == 2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_blames_pretraining_for_a_huge_source_value(tmp_path, config_path, capsys):
    # one finite but huge token overflows the first pretraining step: the
    # step's own check names pretraining, before matching meets NaN costs
    data = tmp_path / "data"
    _synth(config_path, data)
    lines = (data / "source.ds").read_text().splitlines(keepends=True)
    lines[1] = " ".join(lines[1].split()[:-1] + ["1e300"]) + "\n"
    (data / "source.ds").write_text("".join(lines))
    capsys.readouterr()
    assert main(["train", "--config", config_path, "--data", str(data),
                 "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: non-finite loss in component 'pretrain'")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("name, line, changed", [
    pytest.param("exp.cfg", "synth.known_classes = 3", "synth.known_classes = 2",
                 id="synth.known_classes = 3-synth.known_classes = 2"),
    pytest.param("exp.cfg", "synth.total_classes = 5", "synth.total_classes = 6",
                 id="synth.total_classes = 5-synth.total_classes = 6"),
    # a source row labeled 9 under a declared 12 classes, but 3 known
    pytest.param("data/source.ds", "labeled 1 classes 3\n0 ", "labeled 1 classes 12\n9 ",
                 id="source.ds declares 12 classes"),
    pytest.param("data/target.ds", "labeled 0 classes 5", "labeled 0 classes 8",
                 id="target.ds declares 8 classes"),
])
def test_train_class_counts_other_than_the_data_exit_one(tmp_path, config_path,
                                                          capsys, name, line, changed):
    data = tmp_path / "data"
    _synth(config_path, data)
    edited = tmp_path / name
    text = edited.read_text()
    assert line in text
    edited.write_text(text.replace(line, changed, 1))
    capsys.readouterr()
    assert main(["train", "--config", config_path, "--data", str(data),
                 "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert not (tmp_path / "run").exists()


def test_eval_target_class_count_other_than_the_head_exits_one(tmp_path, config_path,
                                                                capsys):
    data = tmp_path / "data"
    run = tmp_path / "run"
    _synth(config_path, data)
    assert main(["train", "--config", config_path, "--data", str(data),
                 "--out", str(run)]) == 0
    target = data / "target.ds"
    target.write_text(target.read_text().replace("classes 5", "classes 7", 1))
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(run / "checkpoint"),
                 "--data", str(data)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and "target.ds" in captured.err


def test_ablate_writes_table_and_json(tmp_path, config_path, capsys):
    data = tmp_path / "data"
    out = tmp_path / "ablation"
    _synth(config_path, data)
    assert main(["ablate", "--config", config_path, "--data", str(data),
                 "--seeds", "1", "--out", str(out)]) == 0
    table = (out / "table.txt").read_text()
    assert capsys.readouterr().out == table
    assert len(table.strip().splitlines()) == 6
    payload = json.loads((out / "ablation.json").read_text())
    assert payload["seeds"] == [0]
    assert set(payload["variants"]) == {
        "baseline", "lb", "lb+sgmd", "lb+sgmd+gcn", "vanilla-balance"}


def test_ablate_on_a_symmetric_config_compares_source_only_with_sgmd(tmp_path, capsys):
    """With known == total, ablate runs the DA variants, each the run that
    train gives for its flags."""
    config = tmp_path / "sym.cfg"
    config.write_text(SYM_CONFIG)
    data = tmp_path / "data"
    out = tmp_path / "ablation"
    _synth(str(config), data)
    capsys.readouterr()
    assert main(["ablate", "--config", str(config), "--data", str(data),
                 "--seeds", "1", "--out", str(out)]) == 0
    variants = json.loads((out / "ablation.json").read_text())["variants"]
    assert set(variants) == set(DA_VARIANTS)
    table = (out / "table.txt").read_text()
    assert len(table.splitlines()) == 3
    assert capsys.readouterr().out == table
    cfg = parse_config(SYM_CONFIG)
    for name, on in DA_VARIANTS.items():
        final = run_pipeline(apply_flags(cfg, on))[1][-1]
        assert variants[name]["runs"] == [
            {k: final[k] for k in ("known", "unknown", "all")}], name


def test_match_command(tmp_path):
    rng = make_rng(0)
    src = tmp_path / "fs.mat"
    tgt = tmp_path / "ft.mat"
    fs = rng.standard_normal((6, 3))
    ft = rng.standard_normal((8, 3))
    save_matrix(src, fs)
    save_matrix(tgt, ft)
    out = tmp_path / "pairs.txt"
    assert main(["match", "--source", str(src), "--target", str(tgt),
                 "--folds", "2", "--seed", "1", "--out", str(out)]) == 0
    pairs = load_pairs(out)
    assert len(pairs.pairs) == 6
    # the third column is each pair's L1 cost
    for line in out.read_text().splitlines()[1:]:
        s, t, cost = line.split()
        assert float(cost) == pytest.approx(
            np.abs(fs[int(s)] - ft[int(t)]).sum(), rel=1e-12)
    assert sum(pairs.costs) == pytest.approx(pairs.total_cost, rel=1e-12)
    out2 = tmp_path / "pairs2.txt"
    assert main(["match", "--source", str(src), "--target", str(tgt),
                 "--folds", "2", "--seed", "1", "--out", str(out2)]) == 0
    assert out.read_bytes() == out2.read_bytes()
    # the default is one fold, one assignment over all rows, whose pairs
    # here differ from those of two folds
    out1, default = tmp_path / "pairs1.txt", tmp_path / "default.txt"
    for folds, path in ((["--folds", "1"], out1), ([], default)):
        assert main(["match", "--source", str(src), "--target", str(tgt), *folds,
                     "--seed", "1", "--out", str(path)]) == 0
    assert default.read_bytes() == out1.read_bytes() != out.read_bytes()


@pytest.mark.parametrize("fs_column, ft_column", [
    ((1e308, 0.0), (-1e308, 0.0)), ((1e308, 1e308), (0.0, 0.0)),
], ids=["difference", "sum"])
def test_match_overflowing_costs_exit_one(tmp_path, capsys, fs_column, ft_column):
    """Finite entries whose L1 cost overflows float64, in one column's
    difference or in the sum over columns: exit 1 with one stderr line that
    names both files and the overflow, and no overflow warning (which pytest
    makes an error)."""
    src, tgt, out = tmp_path / "fs.mat", tmp_path / "ft.mat", tmp_path / "pairs.txt"
    for path, rows, column in ((src, 3, fs_column), (tgt, 4, ft_column)):
        features = np.zeros((rows, 16))
        features[:, 5:7] = column
        save_matrix(path, features)
    capsys.readouterr()
    assert main(["match", "--source", str(src), "--target", str(tgt), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1, captured.err
    assert captured.err == f"error: matching {src} against {tgt}: an L1 cost overflows float64\n"
    assert not out.exists()


def test_eval_corrupted_manifest_exits_one(tmp_path, config_path, capsys):
    data = tmp_path / "data"
    run = tmp_path / "run"
    _synth(config_path, data)
    assert main(["train", "--config", config_path, "--data", str(data),
                 "--out", str(run)]) == 0
    manifest_path = run / "checkpoint" / "manifest.json"
    original = json.loads(manifest_path.read_text())
    corruptions = [
        ("feature_dim", {**original, "feature_dim": 99}),
        ("known_classes", {k: v for k, v in original.items() if k != "known_classes"}),
        ("known_classes", {**original, "known_classes": None}),
        ("known_classes", {**original, "known_classes": 3.9}),
        ("known_classes", {**original, "known_classes": True}),
        ("known_classes", {**original, "known_classes": 0}),
        ("manifest.json", [1, 2]),
    ]
    for key, manifest in corruptions:
        manifest_path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(run / "checkpoint"),
                     "--data", str(data)]) == 1, key
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and key in err, err


def test_eval_reads_a_manifest_with_the_slope_key(tmp_path, config_path, capsys):
    # checkpoints once wrote the GCN's leaky-ReLU slope into the manifest;
    # eval ignores the key and prints the triple it prints without it
    data = tmp_path / "data"
    run = tmp_path / "run"
    _synth(config_path, data)
    assert main(["train", "--config", config_path, "--data", str(data),
                 "--out", str(run)]) == 0
    argv = ["eval", "--checkpoint", str(run / "checkpoint"), "--data", str(data)]
    capsys.readouterr()
    assert main(argv) == 0
    fresh = capsys.readouterr().out
    manifest_path = run / "checkpoint" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest_path.write_text(json.dumps({**manifest, "activation_slope": 0.2}))
    assert main(argv) == 0
    assert capsys.readouterr().out == fresh
    assert json.loads(fresh)["all"] is not None


def test_eval_without_eval_labels_exits_one(tmp_path, config_path, capsys):
    data = tmp_path / "data"
    run = tmp_path / "run"
    _synth(config_path, data)
    assert main(["train", "--config", config_path, "--data", str(data),
                 "--out", str(run)]) == 0
    os.remove(data / "target.ds.eval")
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(run / "checkpoint"),
                 "--data", str(data)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "target.ds.eval" in captured.err


def _drop_eval_labels(config_path, data):
    _synth(config_path, data)
    os.remove(data / "target.ds.eval")


def test_train_without_eval_labels_writes_null_accuracies(tmp_path, config_path):
    data = tmp_path / "data"
    run = tmp_path / "run"
    _drop_eval_labels(config_path, data)
    assert main(["train", "--config", config_path, "--data", str(data),
                 "--out", str(run)]) == 0
    absent = ("known", "unknown", "all", "n_known", "n_unknown")
    metrics = json.loads((run / "metrics.json").read_text())
    assert all(metrics[key] is None for key in absent), metrics
    epochs = json.loads((run / "history.json").read_text())["epochs"]
    assert epochs and all(epoch[key] is None for epoch in epochs for key in absent)


def test_ablate_without_eval_labels_exits_one(tmp_path, config_path, capsys):
    data = tmp_path / "data"
    _drop_eval_labels(config_path, data)
    capsys.readouterr()
    assert main(["ablate", "--config", config_path, "--data", str(data),
                 "--seeds", "1", "--out", str(tmp_path / "ablation")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "target.ds.eval" in captured.err
    assert not (tmp_path / "ablation").exists()


@pytest.mark.parametrize("seeds", ["0", "-2"])
def test_ablate_without_seeds_exits_one(tmp_path, config_path, capsys, seeds):
    capsys.readouterr()
    assert main(["ablate", "--config", config_path, "--seeds", seeds,
                 "--out", str(tmp_path / "ablation")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "--seeds" in captured.err
    assert not (tmp_path / "ablation").exists()


# ---------------------------------------------------------------- exit codes

@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A config, a data directory, a checkpoint trained on it and two
    feature matrices; each exit-code case edits its own copy."""
    root = tmp_path_factory.mktemp("trained")
    (root / "exp.cfg").write_text(SMALL_CONFIG)
    _synth(str(root / "exp.cfg"), root / "data")
    assert main(["train", "--config", str(root / "exp.cfg"), "--data",
                 str(root / "data"), "--out", str(root / "run")]) == 0
    rng = make_rng(0)
    save_matrix(root / "fs.mat", rng.standard_normal((6, 3)))
    save_matrix(root / "ft.mat", rng.standard_normal((8, 3)))
    return root


_COMMANDS = {
    "synth": "synth --config {r}/exp.cfg --out {r}/out",
    "train": "train --config {r}/exp.cfg --data {r}/data --out {r}/out",
    "ablate": "ablate --config {r}/exp.cfg --data {r}/data --seeds 1 --out {r}/out",
    "match": "match --source {r}/fs.mat --target {r}/ft.mat --out {r}/out",
    "eval": "eval --checkpoint {r}/run/checkpoint --data {r}/data",
}


def _remove(name):
    return lambda root: os.remove(root / name)


def _append(name, text):
    def edit(root):
        with open(root / name, "a", encoding="utf-8") as fh:
            fh.write(text)
    return edit


def _replace(name, old, new):
    def edit(root):
        text = (root / name).read_text()
        assert old in text, (name, old)
        (root / name).write_text(text.replace(old, new, 1))
    return edit


def _edit_row(name, change, index=1):
    """Apply ``change`` to the tokens of line ``index`` (0-based; the
    default is the first row after the header)."""
    def edit(root):
        lines = (root / name).read_text().splitlines(keepends=True)
        lines[index] = " ".join(change(lines[index].split())) + "\n"
        (root / name).write_text("".join(lines))
    return edit


def _no_rows(name):
    """Rewrite a dataset as its header declaring 0 rows, and empty its
    .eval sidecar if it has one."""
    def edit(root):
        header = (root / name).read_text().split("\n", 1)[0].split()
        (root / name).write_text(" ".join(["0"] + header[1:]) + "\n")
        if (root / f"{name}.eval").exists():
            (root / f"{name}.eval").write_text("")
    return edit


def _drop_column(name):
    """Rewrite a matrix file without its last column."""
    return lambda root: save_matrix(root / name, load_matrix(root / name)[:, :-1])


def _drop_last_row(name):
    """Rewrite a matrix file without its last row."""
    return lambda root: save_matrix(root / name, load_matrix(root / name)[:-1])


def _no_columns(name):
    """Rewrite a matrix file as its rows with no columns."""
    return lambda root: save_matrix(root / name, load_matrix(root / name)[:, :0])


def _opposite_extremes(value):
    """Rewrite fs.mat and ft.mat as rows of ``value`` and ``-value``: finite
    entries, each pair of rows costing 2 * |value| per column."""
    def edit(root):
        for name, sign in (("fs.mat", 1.0), ("ft.mat", -1.0)):
            save_matrix(root / name, np.full(load_matrix(root / name).shape, sign * value))
    return edit


def _no_features(*names):
    """Rewrite datasets as their rows with no feature columns."""
    def edit(root):
        for name in names:
            dataset, classes = load_dataset(root / name)
            save_dataset(root / name, replace(dataset, features=dataset.features[:, :0]),
                         classes)
    return edit


def _narrow(name):
    """Rewrite a dataset without its last feature column."""
    def edit(root):
        header, *rows = (root / name).read_text().splitlines()
        n, width, *rest = header.split()
        lines = [" ".join([n, str(int(width) - 1), *rest])]
        (root / name).write_text("\n".join(lines + [row.rsplit(" ", 1)[0] for row in rows])
                                 + "\n")
    return edit


def _swap_role(name, labeled, tag):
    """Rewrite a dataset as ``labeled 0`` or ``labeled 1`` with ``tag`` as
    every row's first token."""
    def edit(root):
        header, *rows = (root / name).read_text().splitlines()
        header = header.replace(f"labeled {1 - labeled}", f"labeled {labeled}")
        rows = [" ".join([tag] + row.split()[1:]) for row in rows]
        (root / name).write_text("\n".join([header] + rows) + "\n")
    return edit


def _symmetric(edit):
    """Rewrite the config and the data directory as known == total, which
    has no graph.txt, then apply ``edit``."""
    def apply(root):
        (root / "exp.cfg").write_text(SYM_CONFIG)
        shutil.rmtree(root / "data")
        _synth(str(root / "exp.cfg"), root / "data")
        edit(root)
    return apply


def _garble(name):
    """Put a byte that no UTF-8 text holds before the file's first line."""
    return lambda root: (root / name).write_bytes(b"\xff" + (root / name).read_bytes())


def _short(tokens):
    return tokens[:-1]


def _last(value):
    return lambda tokens: tokens[:-1] + [value]


def _first(value):
    return lambda tokens: [value] + tokens[1:]


# (subcommand, case, edit of the copy, extra flags or the whole argument
# list (or a tuple of an edit and flags), exit code, text the one stderr
# line must contain, or a tuple of them)
_EXIT_CASES = [
    ("synth", "missing config", _remove("exp.cfg"), 3, "exp.cfg"),
    ("synth", "malformed config line",
     _replace("exp.cfg", "gcn.steps =", "gcn.steps"), 1, "line 15"),
    ("synth", "non-finite config value",
     _append("exp.cfg", "train.learning_rate = nan\n"), 1, "learning_rate"),
    ("synth", "unknown config key",
     _append("exp.cfg", "train.bogus = 1\n"), 1, "exp.cfg: line 16"),
    ("synth", "zero pretrain.learning_rate",
     _append("exp.cfg", "pretrain.learning_rate = 0\n"), 1,
     "exp.cfg: pretrain.learning_rate must be > 0, got 0.0"),
    ("synth", "zero pretrain.epochs",
     _replace("exp.cfg", "pretrain.epochs = 3", "pretrain.epochs = 0"), 1,
     "exp.cfg: pretrain.epochs must be >= 1, got 0"),
    ("synth", "negative synth.seed",
     _replace("exp.cfg", "synth.seed = 0", "synth.seed = -1"), 1, "exp.cfg: synth.seed"),
    ("train", "config value out of range",
     _append("exp.cfg", "gcn.momentum = 1.5\n"), 1, "exp.cfg: gcn.momentum"),
    ("train", "negative train.seed",
     _replace("exp.cfg", "train.seed = 0", "train.seed = -1"), 1, "exp.cfg: train.seed"),
    ("train", "missing source.ds", _remove("data/source.ds"), 3, "source.ds"),
    ("train", "malformed target.ds header",
     _replace("data/target.ds", "labeled 0 classes", "labeled 0 kinds"), 1, "target.ds"),
    ("train", "malformed graph header",
     _replace("data/graph.txt", "known", "knwon"), 1, "graph.txt"),
    ("train", "extra token in a graph edge",
     _replace("data/graph.txt", "edge 0 6\n", "edge 0 6 99\n"), 1, "graph.txt: line 15"),
    ("train", "second graph header",
     _append("data/graph.txt", "nodes 8 known 0 classes 5\n"), 1, "graph.txt: line 22"),
    ("train", "negative graph node index",
     _replace("data/graph.txt", "node 0 ", "node -1 "), 1, "graph.txt: line 2"),
    ("train", "graph edge out of range",
     _replace("data/graph.txt", "edge 6 7", "edge 6 70"), 1, "graph.txt: edge (6, 70)"),
    ("train", "graph self-loop out of range",
     _append("data/graph.txt", "edge 99 99\n"), 1, "graph.txt: line 22"),
    ("train", "unknown graph record",
     _append("data/graph.txt", "vertex 1 2\n"), 1, "graph.txt: line 22: unknown record 'vertex'"),
    ("train", "duplicate graph node",
     _replace("data/graph.txt", "node 1 ", "node 0 "), 1, "graph.txt: line 3: duplicate node 0"),
    ("train", "duplicate graph class mapping",
     _replace("data/graph.txt", "class 1 1\n", "class 0 1\n"), 1,
     "graph.txt: line 11: duplicate class mapping for 0"),
    ("train", "graph without its header",
     _replace("data/graph.txt", "nodes 8 known 3 classes 5\n", ""), 1,
     "graph.txt: missing header line"),
    ("train", "graph node indices short of the header",
     _replace("data/graph.txt", "node 7 group_02\n", ""), 1,
     "graph.txt: node indices must cover 0..7"),
    ("train", "graph class indices short of the header",
     _replace("data/graph.txt", "class 4 4\n", ""), 1,
     "graph.txt: class indices must cover 0..4"),
    ("train", "graph with no nodes",
     lambda root: (root / "data/graph.txt").write_text("nodes 0 known 0 classes 0\n"), 1,
     "graph.txt: graph must have at least one node"),
    ("train", "duplicate graph edge",
     _append("data/graph.txt", "edge 6 0\n"), 1, "graph.txt: duplicate edge (0, 6)"),
    ("train", "graph class mapped past the nodes",
     _replace("data/graph.txt", "class 4 4\n", "class 4 40\n"), 1,
     "graph.txt: class 4 mapped to out-of-range node 40"),
    ("train", "source.ds with no rows", _no_rows("data/source.ds"), 1,
     "source.ds: no rows"),
    ("train", "target.ds with no rows", _no_rows("data/target.ds"), 1,
     "target.ds: no rows"),
    ("train", "short source.ds row", _edit_row("data/source.ds", _short), 1, "source.ds"),
    ("train", "trailing wordvec.mat rows",
     _append("data/wordvec.mat", "1 2\n"), 1, "wordvec.mat"),
    ("train", "nan in target.ds",
     _edit_row("data/target.ds", _last("nan")), 1, "target.ds"),
    ("train", "nan in wordvec.mat",
     _edit_row("data/wordvec.mat", _last("nan")), 1, "wordvec.mat"),
    ("train", "non-integer wordvec.mat header",
     _edit_row("data/wordvec.mat", _first("x"), 0), 1, "wordvec.mat: line 1"),
    ("train", "non-integer source.ds label",
     _edit_row("data/source.ds", _first("x"), 3), 1, "source.ds: line 4"),
    ("train", "source.ds label past int64",
     _edit_row("data/source.ds", _first("9" * 20), 3), 1, "source.ds: line 4"),
    ("train", "missing --data flag",
     ["train", "--config", "{r}/exp.cfg", "--out", "{r}/out"], 1, "--data"),
    ("train", "source.ds class count",
     _replace("data/source.ds", "classes 3", "classes 12"), 1, "source.ds"),
    # a run's terms are its config's flags.* keys, which no option overrides
    ("train", "--flags, which train does not have", "--flags none", 1,
     "opendomain: unrecognized arguments: --flags none"),
    # slope 0 takes GCN init's loop, whose first loss squares past float64
    ("train", "GCN init overflowing its loop",
     _append("exp.cfg", "gcn.slope = 0\ngcn.init_scale = 1e200\n"), 2,
     "numeric failure: non-finite loss in component 'gcn init' (inf)"),
    # one loop step, whose loss is finite; its update leaves theta near
    # 1e298, whose residual squares past float64
    ("train", "GCN init overflowing its last update",
     (_replace("exp.cfg", "gcn.steps = 300", "gcn.steps = 1"),
      _append("exp.cfg", "gcn.slope = 0\ngcn.learning_rate = 1e300\n")), 2,
     "numeric failure: non-finite loss in component 'gcn init' (inf)"),
    # the default 8000 steps take the closed form, whose theta0 of scale
    # 1e200 leaves the known rows' residual past float64
    ("train", "GCN init's closed form from a theta0 of scale 1e200",
     (_replace("exp.cfg", "gcn.steps = 300\n", ""),
      _append("exp.cfg", "gcn.init_scale = 1e200\n")),
     2, "numeric failure: non-finite loss in component 'gcn init' (inf)"),
    # at 1e100 the known rows' residual is finite, rounding at that scale,
    # and the run trained on to exit 0; a fit that misses W by more than 100
    # times W's RMS is refused
    ("train", "GCN init's closed form from a theta0 of scale 1e100",
     (_replace("exp.cfg", "gcn.steps = 300\n", ""),
      _append("exp.cfg", "gcn.init_scale = 1e100\n")),
     2, "numeric failure: loss past its bound in component 'gcn init' ("),
    # the known rows fit W to rounding, but the unknown rows keep theta0's
    # part outside the row space of Z_k: 7.2e7 times max|W|, and the run
    # trained on to exit 0
    ("train", "GCN init's closed form from a theta0 of scale 1e8",
     (_replace("exp.cfg", "gcn.steps = 300\n", ""),
      _append("exp.cfg", "gcn.init_scale = 1e8\n")),
     2, "numeric failure: loss past its bound in component 'gcn init' (71858546."),
    # slope 0 from a theta0 of scale 1e4: the loop leaves every known output
    # at 0 (a residual of exactly sum(W^2), inside its rule) and the unknown
    # rows at 2.2e3 times max|W|; the run trained on to exit 0
    ("train", "GCN init's slope-0 loop from a theta0 of scale 1e4",
     (_replace("exp.cfg", "train.seed = 0", "train.seed = 4"),
      _append("exp.cfg", "gcn.slope = 0\ngcn.init_scale = 1e4\n")),
     2, "numeric failure: loss past its bound in component 'gcn init' (2190."),
    # the same config at train seed 0 leaves every output row at 0, a fit no
    # better than theta = 0 inside both rules above; the run trained on to
    # exit 0 with unknown accuracy 0
    ("train", "GCN init's slope-0 loop leaving every unit dead",
     _append("exp.cfg", "gcn.slope = 0\ngcn.init_scale = 1e4\n"),
     2, "numeric failure: loss past its bound in component 'gcn init' (1.0)"),
    ("train", "source.ds not UTF-8", _garble("data/source.ds"), 1,
     "source.ds: 'utf-8' codec can't decode byte 0xff"),
    ("train", "target.ds not UTF-8", _garble("data/target.ds"), 1,
     "target.ds: 'utf-8' codec can't decode byte 0xff"),
    ("train", "wordvec.mat not UTF-8", _garble("data/wordvec.mat"), 1,
     "wordvec.mat: 'utf-8' codec can't decode byte 0xff"),
    ("train", "graph.txt not UTF-8", _garble("data/graph.txt"), 1,
     "graph.txt: 'utf-8' codec can't decode byte 0xff"),
    ("train", "unlabeled source.ds", _swap_role("data/source.ds", 0, "?"), 1,
     "source.ds: the source data must be labeled"),
    ("train", "labeled target.ds", _swap_role("data/target.ds", 1, "0"), 1,
     "target.ds: the target data must be unlabeled"),
    ("train", "target.ds row without its '?'", _edit_row("data/target.ds", _first("0")), 1,
     "target.ds: line 2: an unlabeled row does not start with '?'"),
    ("train", "source.ds labeled field of 7",
     _replace("data/source.ds", "labeled 1", "labeled 7"), 1, "source.ds: line 1"),
    ("train", "target.ds a column narrower than source.ds", _narrow("data/target.ds"), 1,
     ("target.ds has 5 feature columns and /",
      "source.ds 6, not the same number of at least one")),
    ("train", "wordvec.mat a row short of the graph", _drop_last_row("data/wordvec.mat"), 1,
     ("wordvec.mat: 7 x 12, not 8 rows (one per node of /",
      "graph.txt) of at least one column")),
    ("train", "graph.txt known count below source.ds",
     _replace("data/graph.txt", "known 3", "known 2"), 1,
     ("graph.txt: 2 known classes, not the synth.known_classes = 3 of /", "source.ds")),
    ("train", "graph.txt class count above target.ds",
     _replace("data/graph.txt", "classes 5\n", "classes 6\nclass 5 5\n"), 1,
     ("graph.txt: 6 classes, not the synth.total_classes = 5 of /", "target.ds")),
    ("train", "known == total, wordvec.mat a row short",
     _symmetric(_drop_last_row("data/wordvec.mat")), 1,
     ("wordvec.mat: 2 rows, not the synth.total_classes = 3 of /", "target.ds")),
    ("train", "wordvec.mat with no columns", _no_columns("data/wordvec.mat"), 1,
     ("wordvec.mat: 8 x 0, not 8 rows (one per node of /",
      "graph.txt) of at least one column")),
    ("train", "known == total, wordvec.mat with no columns",
     _symmetric(_no_columns("data/wordvec.mat")), 1,
     "wordvec.mat: 3 x 0, not 3 rows (one per class) of at least one column"),
    ("train", "source.ds and target.ds with no feature columns",
     _no_features("data/source.ds", "data/target.ds"), 1,
     ("target.ds has 0 feature columns and /",
      "source.ds 0, not the same number of at least one")),
    ("train", "missing graph.txt with unknown classes", _remove("data/graph.txt"), 1,
     "graph.txt not found"),
    ("train", "train.folds past the source rows",
     _replace("exp.cfg", "train.folds = 2", "train.folds = 500"), 1,
     ("train.folds = 500 exceeds the rows of /", "source.ds (30) or /", "target.ds (50)")),
    ("ablate", "missing wordvec.mat", _remove("data/wordvec.mat"), 3, "wordvec.mat"),
    ("ablate", "inf in source.ds",
     _edit_row("data/source.ds", _last("inf")), 1, "source.ds"),
    ("ablate", "non-integer target.ds header",
     _edit_row("data/target.ds", _first("x"), 0), 1, "target.ds: line 1"),
    ("ablate", "non-integer --seeds", "--seeds abc", 1, "--seeds"),
    ("ablate", "unlabeled source.ds", _swap_role("data/source.ds", 0, "?"), 1,
     "source.ds: the source data must be labeled"),
    ("ablate", "trailing target.ds rows",
     _append("data/target.ds", "? 1 2 3 4 5 6\n"), 1, "target.ds"),
    ("ablate", "target.ds class count",
     _replace("data/target.ds", "classes 5", "classes 20"), 1, "target.ds"),
    ("ablate", "target.ds a column narrower than source.ds", _narrow("data/target.ds"), 1,
     ("target.ds has 5 feature columns and /",
      "source.ds 6, not the same number of at least one")),
    ("match", "missing source matrix", _remove("fs.mat"), 3, "fs.mat"),
    ("match", "malformed matrix header", _replace("ft.mat", "8 3\n", "8 3 1\n"), 1, "ft.mat"),
    ("match", "short matrix row", _edit_row("fs.mat", _short), 1, "fs.mat"),
    ("match", "header declaring 10**12 rows",
     _replace("ft.mat", "8 3\n", f"{10**12} 3\n"), 1, "ft.mat: line 10"),
    ("match", "header declaring 10**12 rows of no columns",
     lambda root: (root / "ft.mat").write_text(f"{10**12} 0\n"), 1,
     "ft.mat: line 2 is missing: the header declares 1000000000000 rows"),
    ("match", "trailing matrix rows", _append("ft.mat", "0 0 0\n"), 1, "ft.mat"),
    ("match", "-inf in matrix", _edit_row("fs.mat", _last("-inf")), 1, "fs.mat"),
    ("match", "non-numeric matrix entry",
     _edit_row("ft.mat", _last("abc"), 2), 1, "ft.mat: line 3"),
    ("match", "non-integer --folds", "--folds x", 1, "--folds"),
    ("match", "matrix not UTF-8", _garble("ft.mat"), 1,
     "ft.mat: 'utf-8' codec can't decode byte 0xff"),
    ("match", "zero --folds", "--folds 0", 1, "--folds"),
    ("match", "--folds past the source rows", "--folds 7", 1,
     ("matching /", "fs.mat against /", "ft.mat: fold count 7 out of range for sizes 6, 8")),
    ("match", "negative --seed", "--seed -1", 1, "--seed"),
    # each pair costs about 1.6e308 over its 3 columns, finite; the total of 6 is not
    ("match", "total matched cost past float64", _opposite_extremes(8e307 / 3), 1,
     ("matching /", "fs.mat against /", "ft.mat: the total matched cost overflows float64")),
    ("match", "matrices of different widths", _drop_column("ft.mat"), 1,
     ("matching /", "fs.mat against /", "ft.mat: pairwise_l1: shapes (6, 3), (8, 2)")),
    # the shapes are the matrices', not those of a fold
    ("match", "matrices of different widths, two folds", (_drop_column("ft.mat"), "--folds 2"),
     1, ("matching /", "fs.mat against /", "ft.mat: pairwise_l1: shapes (6, 3), (8, 2)")),
    ("eval", "missing manifest",
     _remove("run/checkpoint/manifest.json"), 3, "manifest.json"),
    ("eval", "non-object manifest",
     lambda root: (root / "run/checkpoint/manifest.json").write_text("[1, 2]"), 1,
     "manifest.json"),
    ("eval", "truncated manifest",
     lambda root: (root / "run/checkpoint/manifest.json").write_text('{\n  "config_hash'), 1,
     "manifest.json: Unterminated string starting at: line 2 column 3"),
    ("eval", "manifest not UTF-8", _garble("run/checkpoint/manifest.json"), 1,
     "manifest.json: 'utf-8' codec can't decode byte 0xff"),
    ("eval", "head.weights not UTF-8", _garble("run/checkpoint/head.weights"), 1,
     "head.weights: 'utf-8' codec can't decode byte 0xff"),
    ("eval", "target.ds.eval not UTF-8", _garble("data/target.ds.eval"), 1,
     "target.ds.eval: 'utf-8' codec can't decode byte 0xff"),
    ("eval", "malformed head.weights header",
     _replace("run/checkpoint/head.weights", "5 5\n", "5\n"), 1, "head.weights"),
    ("eval", "short head.weights row",
     _edit_row("run/checkpoint/head.weights", _short), 1, "head.weights"),
    ("eval", "1x1 encoder.bias",
     lambda root: save_matrix(root / "run/checkpoint/encoder.bias", np.ones((1, 1))), 1,
     "encoder.bias: checkpoint manifest mismatch for feature_dim"),
    ("eval", "head.weights a column short", _drop_column("run/checkpoint/head.weights"), 1,
     "head.weights: checkpoint manifest mismatch for feature_dim"),
    ("eval", "gcn.theta a column short", _drop_column("run/checkpoint/gcn.theta"), 1,
     "gcn.theta: checkpoint manifest mismatch for feature_dim"),
    ("eval", "labeled target.ds", _swap_role("data/target.ds", 1, "0"), 1,
     "target.ds: the target data must be unlabeled"),
    ("eval", "nan in target.ds",
     _edit_row("data/target.ds", _last("nan")), 1, "target.ds"),
    ("eval", "non-numeric target.ds feature",
     _edit_row("data/target.ds", _last("abc"), 5), 1, "target.ds: line 6"),
    ("eval", "non-integer target.ds.eval label",
     _edit_row("data/target.ds.eval", _first("2.5"), 1), 1, "target.ds.eval: line 2"),
    ("eval", "target.ds.eval label past int64",
     _edit_row("data/target.ds.eval", _first("9" * 20), 1), 1, "target.ds.eval: line 2"),
    ("eval", "extra target.ds.eval label",
     _append("data/target.ds.eval", "0\n"), 1, "target.ds.eval"),
    ("eval", "target.ds class count",
     _replace("data/target.ds", "classes 5", "classes 6"), 1, "target.ds"),
    ("eval", "target.ds with no rows", _no_rows("data/target.ds"), 1,
     "target.ds: no rows"),
    ("eval", "target.ds with no feature columns", _no_features("data/target.ds"), 1,
     ("target.ds and /", "manifest.json disagree on the input dim: 0 != 6")),
    ("eval", "missing target.ds", _remove("data/target.ds"), 3, "target.ds"),
    ("eval", "target.ds a column narrower than the checkpoint", _narrow("data/target.ds"),
     1, ("target.ds and /", "manifest.json disagree on the input dim: 5 != 6")),
]


@pytest.mark.parametrize("command, case, edit, code, needle", _EXIT_CASES,
                         ids=[f"{c[0]}: {c[1]}" for c in _EXIT_CASES])
def test_bad_input_exit_code_table(tmp_path, trained, capsys, command, case, edit, code,
                                   needle):
    """Every subcommand answers each class of bad input with its documented
    exit code (1 usage/config/data, 2 numeric failure, 3 i/o), one stderr
    line and no output."""
    root = tmp_path / "w"
    shutil.copytree(trained, root)
    argv = [token.format(r=root) for token in _COMMANDS[command].split()]
    for step in edit if isinstance(edit, tuple) else (edit,):
        if isinstance(step, list):
            argv = [token.format(r=root) for token in step]
        elif isinstance(step, str):
            argv += step.split()
        else:
            step(root)
    capsys.readouterr()
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1, captured.err
    assert "Traceback" not in captured.err
    assert captured.err.startswith({1: "error: ", 2: "numeric failure: ", 3: "i/o error: "}[code])
    for text in needle if isinstance(needle, tuple) else (needle,):
        assert text in captured.err
    assert not (root / "out").exists()


@pytest.mark.parametrize("argv", [["--help"], ["ablate", "--help"]])
def test_help_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "usage: opendomain" in out
    if argv == ["--help"]:  # described by the first line of the module docstring
        assert "\n\nBatch command-line entry point.\n\n" in out
