"""Benchmark of the opendomain command-line toolkit.

    python3 bench/run.py --workload train --seed 0 --seconds 30 --trace 0

One client runs operations back to back in this process (a closed loop)
for ``--seconds`` and checks the outputs of every operation. With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced operations and reports per-layer metrics
from the traced ones, plus the tracing overhead. A summary goes to stdout
first; the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. See bench/README.md for the workloads.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = 1
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
PEAK_TIMEOUT_S = 150


def import_program() -> float:
    """Import numpy and opendomain from this checkout's ``src``; returns the
    seconds the imports took, with BLAS limited to one thread first. Raises
    ImportError when the package is not there."""
    for var in _BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import numpy  # noqa: F401
    import opendomain.cli
    elapsed = time.perf_counter() - start
    if ROOT / "src" not in Path(opendomain.cli.__file__).resolve().parents:
        raise ImportError(f"opendomain imported from {opendomain.cli.__file__}, "
                          f"not from {ROOT / 'src'}")
    return elapsed


def child_import_s() -> float:
    """The imports of ``import_program`` timed again in a fresh process."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import numpy, opendomain.cli; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                          capture_output=True, text=True, check=True,
                          timeout=PEAK_TIMEOUT_S)
    return float(proc.stdout)


def machine_facts(seed: int) -> dict:
    import numpy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS, "seed": seed}


class Runner:
    """Runs operations of one workload in a scratch directory and counts
    attempts and failures."""

    def __init__(self, workload, work: Path):
        self.workload = workload
        self.work = work
        self.attempted = 0
        self.failed = 0
        self._next = 0

    def _outcome(self, item, out, results) -> None:
        problems = self.workload.check(item, out, results)
        if problems:
            self.failed += 1
            print(f"op {self._next} (item {item}) failed: " + "; ".join(problems),
                  file=sys.stderr)

    def op(self, item: int, tracer=None):
        """One in-process operation; returns its wall seconds, or None when
        it raised."""
        out = self.work / f"op{self._next}"
        out.mkdir()
        self.attempted += 1
        elapsed = None
        try:
            commands = self.workload.commands(item, out)
            gc.collect()
            if tracer is not None:
                tracer.install()
                self.workload.tracer = tracer
            try:
                start = time.perf_counter()
                results = [self.workload.cli(argv) for argv in commands]
                elapsed = time.perf_counter() - start
            finally:
                if tracer is not None:
                    tracer.remove()
                    self.workload.tracer = None
            self._outcome(item, out, results)
        except Exception:
            self.failed += 1
            traceback.print_exc()
        finally:
            shutil.rmtree(out, ignore_errors=True)
            self._next += 1
        return elapsed

    def peak_op(self, item: int):
        """The operation run as fresh processes, one per CLI command, outside
        the timed loop; returns the largest resident high-water mark in MB,
        or None when it failed."""
        out = self.work / f"op{self._next}"
        out.mkdir()
        self.attempted += 1
        peak_kb = None
        try:
            results = []
            for argv in self.workload.commands(item, out):
                proc = subprocess.run(
                    [sys.executable, str(HERE / "peak.py"), *argv], cwd=ROOT,
                    capture_output=True, text=True, timeout=PEAK_TIMEOUT_S)
                stderr, _, last = proc.stderr.rstrip("\n").rpartition("\n")
                if stderr.strip():
                    print(stderr.strip(), file=sys.stderr)
                label, kb = last.split()
                if label != "VmHWM_kB":
                    raise RuntimeError(f"peak.py printed {last!r}")
                peak_kb = max(peak_kb or 0, int(kb))
                results.append((proc.returncode, proc.stdout))
            self._outcome(item, out, results)
        except Exception:
            self.failed += 1
            peak_kb = None
            traceback.print_exc()
        finally:
            shutil.rmtree(out, ignore_errors=True)
            self._next += 1
        return None if peak_kb is None else peak_kb * 1024 / 1e6


def reference_kernel() -> float:
    """Seconds taken by a fixed amount of small-matrix numpy work, the mix of
    interpreter and BLAS calls of the program's training loops.

    Changing this function rescales every op_ref value.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    p = rng.random((40, 40))
    p /= p.sum(axis=1, keepdims=True)
    x = rng.standard_normal((40, 32))
    theta = 0.1 * rng.standard_normal((32, 16))
    target = rng.standard_normal((12, 16))
    velocity = np.zeros_like(theta)
    start = time.perf_counter()
    for _ in range(3000):
        z = p @ x
        h = z @ theta
        out = np.where(h > 0, h, 0.2 * h)
        d_out = np.zeros_like(out)
        d_out[:12] = (out[:12] - target) / 16
        velocity = 0.9 * velocity + z.T @ (d_out * np.where(h > 0, 1.0, 0.2))
        theta -= 0.5 * velocity
    return time.perf_counter() - start


def measure(workload, seconds: float, work: Path, import_s: float):
    """End-to-end metrics of one run; returns (runner, metrics, notes).

    An operation's reference ratio is its wall time over the mean of the
    reference kernel's times just before and just after it; op_ref is the
    mean over input items of each item's median ratio. On a shared machine
    the whole CPU's speed drifts for seconds to minutes: on ``train``,
    25-second runs spread by 23% (IQR/median) in median wall time and by
    3-5% in op_ref.
    """
    import_times = [import_s] + [child_import_s() for _ in range(SETUP_REPEATS - 1)]
    setup_times = []
    for rep in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup(work / f"setup{rep}")
        setup_times.append(time.perf_counter() - start)
        if rep:
            shutil.rmtree(work / f"setup{rep - 1}")
    workload.prepare()

    runner = Runner(workload, work)
    peak_mb = runner.peak_op(workload.order[0])
    # the timed loop runs every item at least once, so that op_ref and the
    # accuracy triple cover the whole pool
    wall = []
    ratios = {item: [] for item in workload.order}
    ref_before = reference_kernel()
    index = 1
    start = time.perf_counter()
    while index <= workload.pool or time.perf_counter() - start < seconds:
        item = workload.order[index % workload.pool]
        elapsed = runner.op(item)
        ref_after = reference_kernel()
        if elapsed is not None:
            wall.append(elapsed)
            ratios[item].append(2 * elapsed / (ref_before + ref_after))
        ref_before = ref_after
        index += 1
    if not all(ratios.values()) or peak_mb is None:
        raise RuntimeError("an input item never completed an operation")
    # items differ in cost (by 15% on ablation), so each weighs the same
    # whatever the number of times a run happened to visit it
    op_ref = statistics.fmean(statistics.median(r) for r in ratios.values())
    setup_s = statistics.median(import_times) + statistics.median(setup_times)
    metrics = {"op_ref": (op_ref, "ref"),
               "setup_s": (setup_s, "s"),
               "peak_mb": (peak_mb, "MB")}
    metrics.update({k: (v, "fraction") for k, v in workload.accuracy().items()})
    quartiles = statistics.quantiles(wall, n=4) if len(wall) > 1 else wall * 3
    notes = {"op_samples": len(wall),
             "op_wall_s": {"min": round(min(wall), 6),
                           "quartiles": [round(q, 6) for q in quartiles]},
             "setup_samples": len(setup_times),
             "import_s": [round(t, 6) for t in import_times]}
    return runner, metrics, notes


def measure_traced(workload, seconds: float, work: Path):
    """Per-layer metrics: a traced set-up, then pairs of an untraced and a
    traced operation on the same item. Each metric is the traced set-up's
    value plus the median over traced operations; the overhead is the median
    over pairs of traced minus untraced wall time."""
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    workload.tracer = tracer
    try:
        workload.setup(work / "setup")
    finally:
        tracer.remove()
        workload.tracer = None
    setup_metrics = tracer.take()
    workload.prepare()

    runner = Runner(workload, work)
    runner.peak_op(workload.order[0])
    overheads, per_op = [], []
    index = 1
    start = time.perf_counter()
    while index == 1 or time.perf_counter() - start < seconds:
        item = workload.order[index % workload.pool]
        untraced_s = runner.op(item)
        traced_s = runner.op(item, tracer)
        layer = tracer.take()
        if untraced_s is not None and traced_s is not None:
            overheads.append(traced_s - untraced_s)
            per_op.append(layer)
        index += 1
    if not per_op:
        raise RuntimeError("no operation completed")
    metrics = {}
    for key in setup_metrics:
        unit = ("s" if key.endswith("_s") else "B" if key.endswith("_bytes")
                else "ratio" if key.endswith("_ratio") else "count")
        op_value = statistics.median([m[key] for m in per_op])
        metrics[key] = (setup_metrics[key] + op_value, unit)
    metrics["trace.overhead_s"] = (statistics.median(overheads), "s")
    notes = {"op_samples": len(per_op), "missing": tracer.missing}
    return runner, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_s = import_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    result = run(workload, args.seconds, args.trace, import_s)
    print(json.dumps(result))
    return 0


def run(workload, seconds: float, trace: int, import_s: float = 0.0) -> dict:
    """Measure one workload and print the summary; returns the result
    object whose JSON form is the benchmark's last line."""
    print(f"# machine {json.dumps(machine_facts(workload.seed))}")
    work = Path(tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT))
    try:
        if trace:
            runner, metrics, notes = measure_traced(workload, seconds, work)
        else:
            runner, metrics, notes = measure(workload, seconds, work, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"# workload {workload.name} trace {trace} {json.dumps(notes)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"fail_ratio {runner.failed / runner.attempted:.6g} "
          f"({runner.failed} of {runner.attempted} ops)")
    return {"correct": runner.failed == 0, "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


if __name__ == "__main__":
    sys.exit(main())
