"""Each demo runs to the end as ``python -W error demos/<name>.py`` on the
package source: a warning fails it as an error would."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs_without_a_warning(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-W", "error", str(ROOT / "demos" / demo)],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
