#!/usr/bin/env python3
"""Peak memory and wall time of each step of a benchmark workload.

The benchmark (``perfbench/run.py``) reports a workload's ``peak_rss_mb`` as
the largest of its steps' peaks, so it cannot say which step set it.  This
script writes the workload's inputs with ``perfbench/child.py setup``, then
runs every step of ``perfbench/workloads.steps`` in a fresh interpreter,
exactly as the benchmark does (same child, same arguments, ``src`` on
``PYTHONPATH``, no ``OSB_`` variables), ``REPEATS`` times in rounds, and
prints each step's median maximum resident set size of the child
(``ru_maxrss``) and its median wall time.  Only the exact workloads have
steps; ``mc`` runs in the benchmark's own process.

Usage:  python3 scripts/step_rss.py WORKLOAD SEED
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
CHILD = PERFBENCH / "child.py"
sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402

REPEATS = 3


def _env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("OSB_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def _run_child(args, cwd: Path, env: dict) -> tuple[int, float, float]:
    """(exit code, wall s, max RSS MB) of one child.py run."""
    argv = [sys.executable, str(CHILD), *map(str, args)]
    start = time.perf_counter()
    child = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    return child.returncode, wall, usage.ru_maxrss / 1024.0


def main(argv) -> int:
    if len(argv) != 2 or argv[0] not in workloads.WORKLOADS or not argv[1].isdigit():
        print(__doc__, file=sys.stderr)
        return 2
    workload, seed = argv[0], int(argv[1])
    if workload == "mc":
        print("mc has no steps: its estimator calls run in the benchmark's process",
              file=sys.stderr)
        return 2
    env = _env()
    with tempfile.TemporaryDirectory(prefix="step-rss-") as tmp:
        work = Path(tmp)
        inputs = work / "inputs"
        inputs.mkdir()
        code, _, _ = _run_child(["setup", workload, seed, inputs], inputs, env)
        if code != 0:
            print(f"set-up exited with {code}", file=sys.stderr)
            return 1
        steps = workloads.steps(workload, seed, inputs)
        rss = {s.label: [] for s in steps}
        wall = {s.label: [] for s in steps}
        codes = {s.label: set() for s in steps}
        for _ in range(REPEATS):
            for step in steps:
                args = [work / step.label if a == workloads.OUT else a for a in step.args]
                code, seconds, mb = _run_child(args, work, env)
                codes[step.label].add(code)
                rss[step.label].append(mb)
                wall[step.label].append(seconds)
    print(f"{workload} at seed {seed}: median of {REPEATS} fresh runs per step")
    print(f"{'step':<28} {'max RSS MB':>10} {'wall s':>8}  exit")
    for step in steps:
        print(f"{step.label:<28} {statistics.median(rss[step.label]):>10.2f} "
              f"{statistics.median(wall[step.label]):>8.3f}  "
              f"{','.join(map(str, sorted(codes[step.label])))}")
    top = max(steps, key=lambda s: statistics.median(rss[s.label]))
    print(f"peak: {top.label} at {statistics.median(rss[top.label]):.2f} MB")
    return 0 if all(c == {0} for c in codes.values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
