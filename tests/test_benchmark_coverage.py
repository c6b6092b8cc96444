"""The coverage rules of the benchmark's CLI workloads: traced as the
benchmark traces them, every step of verify-corpus, lemmas-corpus and
exact-scaled calls each layer that ``perfbench/workloads.LAYER_MAP`` marks
``on`` for the workload and no layer it marks ``zero``.  The map decides
which functions a change may merge or stop calling, and the benchmark's
untraced runs do not check it.  mc calls its estimators inside
``perfbench/run.py``'s own process, so ``run.py --trace 1`` checks it.
Nothing under ``perfbench/`` is written."""

import pytest

from test_benchmark_digests import _bench_module, _child

SEED = 123456789


@pytest.mark.parametrize("workload", ["verify-corpus", "lemmas-corpus", "exact-scaled"])
def test_traced_steps_call_the_layers_their_map_names(workload, tmp_path):
    workloads, tracer = _bench_module("workloads"), _bench_module("tracer")
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    run = _child(["setup", workload, SEED, inputs], inputs)
    assert run.returncode == 0, run.stderr
    counts = {}
    for step in workloads.steps(workload, SEED, inputs):
        spans = tmp_path / f"{step.label}.spans"
        out = tmp_path / step.label
        run = _child(["--trace", spans, *(out if a == workloads.OUT else a for a in step.args)],
                     tmp_path)
        assert run.returncode == 0, (step.label, run.stderr)
        for name, n in tracer.read_trace(spans)[1].items():
            counts[name] = counts.get(name, 0) + n
    problems = []
    for name, rule in workloads.LAYER_MAP.items():
        calls = counts.get(name + ".calls", 0)
        if workload in rule["on"] and calls == 0:
            problems.append(f"{name} recorded no call")
        if workload in rule["zero"] and calls != 0:
            problems.append(f"{name} predicted idle, made {calls} calls")
    assert problems == []
