import json
import os

import numpy as np
import pytest

from opendomain.cli import main
from opendomain.matching import load_pairs
from opendomain.numkit import make_rng, save_matrix

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
    scored = json.loads(capsys.readouterr().out)
    for key in ("known", "unknown", "all", "n_known", "n_unknown"):
        assert scored[key] == metrics[key]


def test_train_flags_select_variant(tmp_path, config_path):
    data = tmp_path / "data"
    _synth(config_path, data)
    out_full = tmp_path / "full"
    out_base = tmp_path / "base"
    assert main(["train", "--config", config_path, "--data", str(data),
                 "--out", str(out_full), "--flags", "lb,sgmd,gcn"]) == 0
    assert main(["train", "--config", config_path, "--data", str(data),
                 "--out", str(out_base), "--flags", "none"]) == 0
    h_base = json.loads((out_base / "history.json").read_text())
    assert all(rec["loss_balance"] == 0.0 for rec in h_base["epochs"])
    h_full = json.loads((out_full / "history.json").read_text())
    assert any(rec["loss_balance"] != 0.0 for rec in h_full["epochs"])


def test_train_unknown_flag_exits_one(tmp_path, config_path):
    data = tmp_path / "data"
    _synth(config_path, data)
    assert main(["train", "--config", config_path, "--data", str(data),
                 "--out", str(tmp_path / "run"), "--flags", "bogus"]) == 1


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


@pytest.mark.parametrize("line, changed", [
    ("synth.known_classes = 3", "synth.known_classes = 2"),
    ("synth.total_classes = 5", "synth.total_classes = 6"),
])
def test_train_class_counts_other_than_the_data_exit_one(tmp_path, config_path,
                                                          capsys, line, changed):
    data = tmp_path / "data"
    _synth(config_path, data)
    bad = tmp_path / "bad.cfg"
    bad.write_text(SMALL_CONFIG.replace(line, changed))
    capsys.readouterr()
    assert main(["train", "--config", str(bad), "--data", str(data),
                 "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert not (tmp_path / "run").exists()


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
        ("activation_slope",
         {k: v for k, v in original.items() if k != "activation_slope"}),
        ("known_classes", {**original, "known_classes": None}),
    ]
    for key, manifest in corruptions:
        manifest_path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(run / "checkpoint"),
                     "--data", str(data)]) == 1, key
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and key in err, err


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
    assert not (tmp_path / "ablation").exists()
