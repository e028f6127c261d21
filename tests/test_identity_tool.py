"""``tools/identity.py compare``: it lists each file whose hash differs or
that only one manifest has, and exits 1 exactly when it lists one."""
import importlib.util
import json
from pathlib import Path

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
