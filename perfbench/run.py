#!/usr/bin/env python3
"""The osb benchmark: time to a complete, correct report, end to end and per layer.

Usage:
  python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
  python3 perfbench/run.py --workload NAME --seed N --record-digests

The shipped digests (digests.json) cover the default seed 123456789 and the
held-out seed 20141124; runs at those seeds must reproduce them byte for byte.

Workloads (see DESIGN.md for why each exists and which layer it loads):
  verify-corpus  verify-main/verify-lp on the built-in corpus plus the Orlicz sweep
  lemmas-corpus  aggregated lemmas on the built-in corpus plus per-instance runs
  exact-scaled   all three campaigns on sym:9, map:7:8 and an explicit 8! family
  mc             Monte Carlo estimators at 1e5 draws on criterion 9's 20 cases

One caller, closed loop: every attempt starts after the previous one ended.
The three exact workloads run each attempt in a fresh interpreter, as a user
does; mc calls the estimators in this process.  Inputs are generated from
--seed in set-up, which is repeated SETUP_REPEATS times in fresh interpreters.
Passes repeat until --seconds have been measured; run_s is their median.

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a traced run (tracer.py), after
an untraced half used to report the tracing overhead.  The line before it is
the run's provenance.  Exit status 0 means every correctness check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
CHILD = HERE / "child.py"
DIGESTS = HERE / "digests.json"

sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 123456789  # the built-in corpus's own seed
SETUP_REPEATS = 5
MC_DRAWS = 100_000
MC_Z = 4.0  # criterion 9: an estimate must lie within 4 standard errors
DEADLINE_S = 175


class DeadlineExceeded(Exception):
    pass


class Run:
    """State of one benchmark run: its directory, child environment and tallies."""

    def __init__(self, workload: str, seed: int, trace: bool):
        self.workload, self.seed, self.trace = workload, seed, trace
        self.dir = WORK / f"{workload}-{seed}-{os.getpid()}"
        env = {k: v for k, v in os.environ.items() if not k.startswith("OSB_")}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self.env = env
        self.child = None  # the running child process, killed on the deadline
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    # -- child processes ---------------------------------------------------

    def run_child(self, args, cwd: Path, trace_path: Path | None = None):
        """Run child.py to completion; returns (exit code, wall s, cpu s, max RSS MB)."""
        argv = [sys.executable, str(CHILD)]
        if trace_path is not None:
            argv += ["--trace", str(trace_path)]
        argv += [str(a) for a in args]
        with open(cwd / "stderr.txt", "ab") as err:
            start = time.perf_counter()
            self.child = subprocess.Popen(argv, cwd=cwd, env=self.env,
                                          stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(self.child.pid, 0)
            wall = time.perf_counter() - start
        self.child.returncode = code = os.waitstatus_to_exitcode(status)
        self.child = None
        return code, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0

    def kill_child(self):
        if self.child is not None and self.child.returncode is None:
            self.child.kill()
            self.child.wait()

    # -- set-up --------------------------------------------------------------

    def setup(self) -> tuple[Path, list[float]]:
        """Generate the inputs SETUP_REPEATS times, each in a fresh interpreter;
        every repeat must write the same bytes."""
        times, first = [], None
        for i in range(SETUP_REPEATS):
            out = self.dir / f"setup-{i}"
            out.mkdir(parents=True)
            code, wall, _, _ = self.run_child(
                ["setup", self.workload, self.seed, out], out)
            if code != 0:
                raise RuntimeError(f"set-up exited with {code}; see {out / 'stderr.txt'}")
            times.append(wall)
            digests = _tree_digests(out)
            if first is None:
                first = digests
            elif digests != first:
                self.problems.append(f"set-up repeat {i} wrote different inputs")
        return self.dir / "setup-0", times

    def traced_setup_generate_s(self) -> float:
        out = self.dir / "setup-traced"
        out.mkdir()
        spans_path = out / "spans.json"
        code, _, _, _ = self.run_child(["setup", self.workload, self.seed, out], out,
                                       spans_path)
        if code != 0:
            self.problems.append(f"traced set-up exited with {code}")
            return 0.0
        spans, _ = tracer.read_trace(spans_path)
        return tracer.layer_totals(spans).get("corpus.generate_corpus", {}).get("s", 0.0)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _tree_digests(directory: Path) -> dict[str, str]:
    return {p.name: _sha256(p) for p in sorted(directory.iterdir())
            if p.is_file() and p.name != "stderr.txt"}


def _layer_record(traces) -> dict:
    """Sum (spans, counts) pairs into per-layer s, self_s and counts."""
    totals: dict[str, dict[str, float]] = {}
    counts: Counter = Counter()
    for spans, c in traces:
        counts.update(c)
        for name, t in tracer.layer_totals(spans).items():
            slot = totals.setdefault(name, {"s": 0.0, "self_s": 0.0})
            slot["s"] += t["s"]
            slot["self_s"] += t["self_s"]
    return {"times": totals, "counts": dict(counts)}


# ---------------------------------------------------------------------------
# the exact workloads: a pass is a sequence of child steps


class StepWorkload:
    def __init__(self, run: Run, inputs: Path):
        self.run = run
        self.steps = workloads.steps(run.workload, run.seed, inputs)
        self.ctx = {"manifest": json.loads((inputs / "manifest.json").read_text())}
        if (inputs / "corpus.json").exists():
            self.ctx["corpus"] = json.loads((inputs / "corpus.json").read_text())
        self.reference: dict[str, str] | None = None  # digests of the first pass
        recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        self.recorded = recorded.get(run.workload, {}).get(str(run.seed))

    def describe(self) -> list[str]:
        return [" ".join(str(a) for a in s.args).replace(str(self.run.dir) + os.sep, "")
                .replace(workloads.OUT, s.label) for s in self.steps]

    def one_pass(self, index: int, traced: bool) -> dict:
        run = self.run
        pass_dir = run.dir / f"pass-{index}{'-traced' if traced else ''}"
        pass_dir.mkdir()
        codes, rss, cpu = [], [], 0.0
        start = time.perf_counter()
        for step in self.steps:
            args = [pass_dir / step.label if a == workloads.OUT else a for a in step.args]
            trace_path = pass_dir / f"{step.label}.spans" if traced else None
            code, _, step_cpu, step_rss = run.run_child(args, pass_dir, trace_path)
            codes.append(code)
            rss.append(step_rss)
            cpu += step_cpu
        wall = time.perf_counter() - start

        digests = {}
        for step, code in zip(self.steps, codes):
            out = pass_dir / step.label
            problems = [] if code == 0 else [f"{step.label}: exit code {code}"]
            if out.exists():
                digests[step.label] = _sha256(out)
            else:
                problems.append(f"{step.label}: no output")
            if self.reference is None and out.exists():
                problems += step.check(out, self.ctx)
            elif self.reference is not None and digests.get(step.label) != self.reference.get(step.label):
                problems.append(f"{step.label}: output differs from the first pass")
            if self.recorded is not None and digests.get(step.label) != self.recorded.get(step.label):
                problems.append(f"{step.label}: sha256 differs from the digest recorded "
                                f"for seed {run.seed}")
            run.attempted += 1
            if problems:
                run.failed += 1
                run.problems += [f"pass {index}: {p}" for p in problems]
        if self.reference is None:
            self.reference = digests
        record = {"run_s": wall, "cpu_s": cpu, "peak_rss_mb": max(rss), "outputs": digests}
        if traced:
            record["layers"] = _layer_record(
                tracer.read_trace(pass_dir / f"{step.label}.spans") for step in self.steps
                if (pass_dir / f"{step.label}.spans").exists())
        if index > 0:
            shutil.rmtree(pass_dir)
        return record

    def finish(self, passes) -> dict:
        return {"peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes)}


# ---------------------------------------------------------------------------
# mc: estimator calls in this process


class MonteCarloWorkload:
    def __init__(self, run: Run, inputs: Path):
        sys.path.insert(0, str(SRC))
        from osb.families import full_mapping_family, symmetric_group
        from osb.matrices import Matrix
        import numpy as np

        self.run = run
        doc = json.loads((inputs / "cases.json").read_text())
        self.p = doc["p"]
        self.cases = []
        for c in doc["cases"]:
            family = (symmetric_group(c["n"]) if c["kind"] == "sym"
                      else full_mapping_family(c["n"], c["N"]))
            self.cases.append({**c, "a": Matrix(np.array(c["entries"], dtype=np.float64)),
                               "family": family})
        self.estimates: dict[tuple[int, str], list] = {}
        self.tracer = tracer.Tracer()

    def describe(self) -> list[str]:
        return [f"expected_top_sum_mc and expected_lp_norm(p={self.p}) at {MC_DRAWS} draws "
                f"on {c['n']}x{c['N']} {c['kind']} {c['id']} (ell={c['ell']})"
                for c in self.cases]

    def one_pass(self, index: int, traced: bool) -> dict:
        from osb import interpolation, orderstats  # looked up per call so tracing applies

        mc_seed = self.run.seed * 1000 + index
        if traced:
            self.tracer.install()
        results = []
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        try:
            for c in self.cases:
                for kind in ("top", "lp"):
                    try:
                        if kind == "top":
                            r = orderstats.expected_top_sum_mc(
                                c["a"], c["family"], c["ell"], MC_DRAWS, mc_seed)
                        else:
                            r = interpolation.expected_lp_norm(
                                c["a"], c["family"], self.p, samples=MC_DRAWS, seed=mc_seed)
                        results.append((r.value, r.stderr))
                    except Exception as e:  # a raising estimator is a failed attempt
                        results.append((None, repr(e)))
        finally:
            wall = time.perf_counter() - start
            after = resource.getrusage(resource.RUSAGE_SELF)
            if traced:
                self.tracer.uninstall()
        record = {
            "run_s": wall,
            "cpu_s": (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime),
            "outputs": {"estimates": hashlib.sha256(repr(results).encode()).hexdigest()},
        }
        if traced:
            record["layers"] = _layer_record([self.tracer.take()])
        else:
            keys = [(i, kind) for i in range(len(self.cases)) for kind in ("top", "lp")]
            for key, value in zip(keys, results):
                self.estimates.setdefault(key, []).append(value)
        return record

    def finish(self, passes) -> dict:
        """Criterion 9's rule per case and estimator: values and standard
        errors finite, and at least 99 % of estimates within 4 standard errors
        of the exact value from set-up.  With fewer than criterion 9's 1000
        estimates per case the 1 % allowance is rounded up, so one 4-sigma
        miss (probability about 6e-5 per estimate) does not fail a run."""
        run = self.run
        for (i, kind), values in sorted(self.estimates.items()):
            c = self.cases[i]
            exact = c["exact_top"] if kind == "top" else c["exact_lp"]
            bad = misses = 0
            for value, stderr in values:
                if value is None or not (math.isfinite(value) and math.isfinite(stderr)):
                    bad += 1
                elif abs(value - exact) > MC_Z * stderr:
                    misses += 1
            allowed = math.ceil(0.01 * len(values))
            run.attempted += len(values)
            failed = bad + (misses if misses > allowed else 0)
            run.failed += failed
            if failed:
                run.problems.append(
                    f"{c['n']}x{c['N']} {c['kind']} {c['id']} {kind}: {bad} non-finite "
                    f"or raised, {misses}/{len(values)} beyond {MC_Z:g} stderr")
        return {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


# ---------------------------------------------------------------------------


def _passes(work, seconds: float, min_passes: int, traced: bool):
    """Run passes until about ``seconds`` have been measured.  A further pass
    starts only while the run would end less than half a pass past
    ``seconds``, so long passes do not overshoot by a whole pass."""
    passes, start = [], time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes:
            typical = statistics.median(p["run_s"] for p in passes)
            if elapsed > seconds - typical / 2:
                return passes
        passes.append(work.one_pass(len(passes), traced))


def _layer_metrics(traced_passes) -> tuple[dict, list[str]]:
    """Per-layer metrics as the mean over traced passes; counts must repeat."""
    problems = []
    first = traced_passes[0]["layers"]
    for p in traced_passes[1:]:
        if p["layers"]["counts"] != first["counts"]:
            problems.append("call or work counts differ between traced passes")
    k = len(traced_passes)
    metrics = {}
    for name in tracer.LAYER_NAMES:
        t = [p["layers"]["times"].get(name, {"s": 0.0, "self_s": 0.0}) for p in traced_passes]
        metrics[f"{name}.calls"] = (first["counts"].get(name + ".calls", 0), "count")
        metrics[f"{name}.s"] = (sum(x["s"] for x in t) / k, "s")
        metrics[f"{name}.self_s"] = (sum(x["self_s"] for x in t) / k, "s")
    for name in tracer.COUNT_NAMES:
        metrics[name] = (first["counts"].get(name, 0), "B" if name.endswith(".bytes") else "count")
    return metrics, problems


def _coverage_problems(workload: str, metrics: dict) -> list[str]:
    problems = []
    for name, rule in workloads.LAYER_MAP.items():
        calls = metrics[f"{name}.calls"][0]
        if workload in rule["on"] and calls == 0:
            problems.append(f"coverage: {name} recorded no call on {workload}")
        if workload in rule["zero"] and calls != 0:
            problems.append(f"coverage: {name} predicted idle on {workload}, made {calls} calls")
    return problems


def _git_state() -> dict | None:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
            return None
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10).stdout.strip()
        status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain",
                                 "--untracked-files=no"],
                                capture_output=True, text=True, timeout=10).stdout
        return {"rev": rev, "dirty": bool(status.strip())}
    except (OSError, subprocess.SubprocessError):
        return None


def _provenance(run: Run, work, manifest: dict) -> dict:
    import numpy

    source = hashlib.sha256()
    for path in sorted((SRC / "osb").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": run.workload, "seed": run.seed, "trace": int(run.trace),
        "cores": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "platform": platform.platform(),
        "git": _git_state(), "source_sha256": source.hexdigest(),
        "inputs": manifest, "attempts_per_pass": work.describe(),
        "mc_draws": MC_DRAWS if run.workload == "mc" else None,
    }


def _record_digests(run: Run, work: StepWorkload):
    record = work.one_pass(0, traced=False)
    if run.problems:
        raise RuntimeError("; ".join(run.problems))
    doc = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    doc.setdefault(run.workload, {})[str(run.seed)] = record["outputs"]
    DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(record['outputs'])} digests for {run.workload} seed {run.seed}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="write the output digests of one pass to digests.json")
    args = parser.parse_args(argv)
    if not (SRC / "osb" / "__init__.py").is_file():
        print(f"error: no osb sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if args.record_digests and args.workload == "mc":
        parser.error("mc is never gated on output bytes")

    run = Run(args.workload, args.seed, bool(args.trace))
    shutil.rmtree(run.dir, ignore_errors=True)
    run.dir.mkdir(parents=True)

    def on_deadline(signum, frame):
        raise DeadlineExceeded(f"run exceeded {DEADLINE_S} s")

    signal.signal(signal.SIGALRM, on_deadline)
    signal.alarm(DEADLINE_S)
    try:
        inputs, setup_times = run.setup()
        kind = MonteCarloWorkload if args.workload == "mc" else StepWorkload
        work = kind(run, inputs)
        if args.record_digests:
            _record_digests(run, work)
            shutil.rmtree(run.dir)
            return 0
        manifest = json.loads((inputs / "manifest.json").read_text())
        if args.trace:
            generate_s = run.traced_setup_generate_s()
            untraced = _passes(work, args.seconds / 2, 1, traced=False)
            traced = _passes(work, args.seconds / 2, 2, traced=True)
            work.finish(untraced)
            for u, t in zip(untraced, traced):
                if t["outputs"] != u["outputs"]:
                    run.problems.append("traced outputs differ from untraced outputs")
            layer, problems = _layer_metrics(traced)
            run.problems += problems + _coverage_problems(args.workload, layer)
            untraced_s = statistics.median(p["run_s"] for p in untraced)
            traced_s = statistics.median(p["run_s"] for p in traced)
            layer["trace.run_s"] = (traced_s, "s")
            layer["trace.overhead_s"] = (traced_s - untraced_s, "s")
            layer["process.cpu_s"] = (statistics.median(p["cpu_s"] for p in untraced), "s")
            layer["setup.corpus.generate_corpus.s"] = (generate_s, "s")
            metrics = layer
            passes = untraced + traced
        else:
            passes = _passes(work, args.seconds, 1, traced=False)
            extra = work.finish(passes)
            metrics = {
                "run_s": (statistics.median(p["run_s"] for p in passes), "s"),
                "setup_s": (statistics.median(setup_times), "s"),
                "peak_rss_mb": (extra["peak_rss_mb"], "MB"),
            }
        prov = _provenance(run, work, manifest)
    except DeadlineExceeded as e:
        run.kill_child()
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (RuntimeError, OSError, ValueError) as e:
        run.kill_child()
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)

    correct = not run.problems and run.failed == 0
    details = {
        "provenance": prov, "setup_s": setup_times, "problems": run.problems,
        "passes": [{k: v for k, v in p.items() if k != "layers"} for p in passes],
    }
    WORK.mkdir(exist_ok=True)
    result_path = WORK / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    result = {
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    result_path.write_text(json.dumps({**details, "result": result}, indent=1) + "\n")
    for problem in run.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    if correct:
        shutil.rmtree(run.dir)
    print(json.dumps({"provenance": prov, "passes": len(passes), "details": str(result_path.relative_to(ROOT))}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
