"""Run one ``opendomain`` command in a fresh process and report its peak
resident memory.

    python3 bench/peak.py <opendomain arguments...>

The command's own output goes to stdout and stderr as usual; the last line
of stderr is ``VmHWM_kB <n>``, the process's resident high-water mark. A
fresh process is needed because the high-water mark cannot be reset, and
the kernel's ``ru_maxrss`` of a spawned child starts from its parent's.
"""
from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from opendomain.cli import main  # noqa: E402


def high_water_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


if __name__ == "__main__":
    code = main(sys.argv[1:])
    sys.stdout.flush()
    sys.stderr.write(f"\nVmHWM_kB {high_water_kb()}\n")
    sys.exit(code)
