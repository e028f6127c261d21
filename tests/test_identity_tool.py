"""``tools/identity.py``: ``compare`` lists each file whose hash differs or
that only one manifest has, and exits 1 exactly when it lists one; ``write``
refuses a ``--src`` that does not hold the package."""
import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "identity.py"
_SPEC = importlib.util.spec_from_file_location("identity", _PATH)
identity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(identity)


def test_compare_lists_changed_removed_and_added_files(tmp_path, capsys):
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps({"run0/metrics.json": "aa", "run0/history.json": "bb",
                               "gone.txt": "cc"}))
    new.write_text(json.dumps({"run0/metrics.json": "aa", "run0/history.json": "bd",
                               "added.txt": "ee"}))
    assert identity.main(["compare", str(old), str(new)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "added.txt", "gone.txt", "run0/history.json", "3 of 4 files differ"]
    assert identity.main(["compare", str(old), str(old)]) == 0
    assert capsys.readouterr().out.splitlines() == ["0 of 3 files differ"]


def test_write_refuses_a_src_without_the_package(tmp_path):
    # PYTHONPATH=<src> over an empty directory would run an installed
    # opendomain, so a parent/head compare would compare the head with itself
    (tmp_path / "src").mkdir()
    with pytest.raises(SystemExit, match=r"^--src .*src does not hold the opendomain package"):
        identity.main(["write", str(tmp_path / "out"), "--src", str(tmp_path / "src")])
    assert not (tmp_path / "out").exists()  # refused before the first case
