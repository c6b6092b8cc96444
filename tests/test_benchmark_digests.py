"""The byte gate of the multi-run families: every step of the benchmark's
exact-scaled workload (``sym:8``, ``sym:9``, ``map:7:8`` and an explicit 8!
family, through every campaign and the curve sweep) writes the bytes whose
SHA-256 digests ``perfbench/digests.json`` records, at each recorded seed.
The default corpus of ``test_campaign_hashes.py`` has only one-run families,
so a change to a multi-run path fails here and not there.  Nothing under
``perfbench/`` is written."""

import hashlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
RECORDED = json.loads((BENCH / "digests.json").read_text())["exact-scaled"]


def _bench_module(name):
    """perfbench/<name>.py, compiled from its text, so that no bytecode is
    written beside it."""
    path = BENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    sys.modules[module.__name__] = module  # its dataclasses look their module up
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def _child(args, cwd):
    """child.py run as the benchmark runs it: a fresh interpreter, no
    ``OSB_`` variable, ``src`` first on the path; it writes no bytecode
    under ``perfbench/``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("OSB_")}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(BENCH / "child.py"), *map(str, args)],
                          cwd=cwd, env=env, capture_output=True, text=True)


@pytest.mark.parametrize("seed", sorted(RECORDED))
def test_exact_scaled_outputs_keep_their_bytes(seed, tmp_path):
    workloads = _bench_module("workloads")
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    run = _child(["setup", "exact-scaled", seed, inputs], inputs)
    assert run.returncode == 0, run.stderr
    got = {}
    for step in workloads.steps("exact-scaled", int(seed), inputs):
        out = tmp_path / step.label
        run = _child([out if a == workloads.OUT else a for a in step.args], tmp_path)
        assert run.returncode == 0, (step.label, run.stderr)
        got[step.label] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert got == RECORDED[seed]
