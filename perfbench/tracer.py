"""Span tracer that wraps osb's public functions from outside the package.

The program under ``src/`` carries no timers of its own, so the benchmark
replaces each traced function at every module binding that refers to it
(``osb.campaigns.build_hit_table`` as well as ``osb.orderstats.build_hit_table``,
and so on) with a wrapper that records a span: name, start, end and the
index of the enclosing span.  Spans stay in memory and are written out when
the traced process ends; self time is derived from them afterwards.

Generator functions (``iter_member_arrays``) get one span per ``next()``, so
their ``.s`` is the time spent producing members, charged inside whichever
span consumes them.  Per-report helpers such as ``canonical_json`` and
``exact_inequality_report`` are deliberately not wrapped: they are called
hundreds of thousands of times and the wrapper would dominate what it
measures.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

# (module under osb, attribute) of every traced public function.  The metric
# prefix is "<module>.<attribute>".
TARGETS = (
    ("cli", "main"),
    ("corpus", "default_corpus"),
    ("corpus", "load_corpus"),
    ("corpus", "generate_corpus"),
    ("campaigns", "run_verify_main"),
    ("campaigns", "run_verify_lp"),
    ("campaigns", "run_lemmas"),
    ("families", "iter_member_arrays"),
    ("families", "sample_array"),
    ("families", "check_marginals"),
    ("families", "pairwise_constant"),
    ("families", "load_family"),
    ("rng", "words"),
    ("matrices", "order_map"),
    ("matrices", "Matrix.digest"),
    ("orderstats", "expected_top_sum"),
    ("orderstats", "build_hit_table"),
    ("orderstats", "lemma_suite"),
    ("orderstats", "expected_top_sum_mc"),
    ("interpolation", "verify_lp_bounds"),
    ("interpolation", "expected_lp_norm"),
    ("interpolation", "mixed_k_curve"),
    ("interpolation", "interpolation_norm_from_curve"),
    ("orlicz", "luxemburg_norm"),
    ("orlicz", "orlicz_upper_bound_check"),
    ("orlicz", "top_sum_sandwich_check"),
    ("reports", "reports_to_json"),
    ("reports", "reports_to_csv"),
    ("reports", "summarize"),
)

LAYER_NAMES = tuple(f"{mod}.{attr}" for mod, attr in TARGETS)

GENERATORS = {"families.iter_member_arrays"}


def _lemma_counts(counts, reports):
    counts["campaigns.run_lemmas.reports"] += len(reports)
    # aggregated reports carry the number of swept instances they stand for;
    # per-instance reports stand for one each
    counts["campaigns.run_lemmas.instances"] += sum(
        int(r.inputs.get("instances", 1)) for r in reports
    )


# Work counts taken from a traced call's result.
RESULT_COUNTS = {
    "families.sample_array": lambda c, r: c.update({"families.sample_array.draws": len(r)}),
    "rng.words": lambda c, r: c.update({"rng.words.words": int(r.size)}),
    "reports.reports_to_json": lambda c, r: c.update(
        {"reports.reports_to_json.bytes": len(r.encode("utf-8"))}),
    "reports.reports_to_csv": lambda c, r: c.update(
        {"reports.reports_to_csv.bytes": len(r.encode("utf-8"))}),
    "campaigns.run_lemmas": _lemma_counts,
}

COUNT_NAMES = (
    "campaigns.run_lemmas.instances",
    "campaigns.run_lemmas.reports",
    "families.iter_member_arrays.members",
    "families.sample_array.draws",
    "rng.words.words",
    "reports.reports_to_json.bytes",
    "reports.reports_to_csv.bytes",
)


class Tracer:
    """Installs span-recording wrappers around TARGETS and removes them."""

    def __init__(self):
        self.spans: list = []  # (name, start_ns, end_ns, parent index or -1)
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list = []

    def take(self) -> tuple[list, Counter]:
        """Hand over the spans and counts recorded so far and start afresh."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append((name, 0, 0, self._stack[-1] if self._stack else -1))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, start: int):
        end = time.perf_counter_ns()
        self._stack.pop()
        name, _, _, parent = self.spans[idx]
        self.spans[idx] = (name, start, end, parent)

    def _wrap_function(self, name, fn):
        count_result = RESULT_COUNTS.get(name)
        calls = name + ".calls"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.counts[calls] += 1
            idx = self._open(name)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, start)
            if count_result is not None:
                count_result(self.counts, result)
            return result

        return traced

    def _wrap_generator(self, name, fn):
        calls, members = name + ".calls", name + ".members"

        def spans_per_next(inner):
            while True:
                idx = self._open(name)
                start = time.perf_counter_ns()
                try:
                    block = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(idx, start)
                self.counts[members] += len(block)
                yield block

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.counts[calls] += 1
            return spans_per_next(fn(*args, **kwargs))

        return traced

    def install(self):
        importlib.import_module("osb.cli")  # the package __init__ skips cli
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "osb" or key.startswith("osb."))]
        for mod_name, attr in TARGETS:
            name = f"{mod_name}.{attr}"
            owner = importlib.import_module(f"osb.{mod_name}")
            wrap = self._wrap_generator if name in GENERATORS else self._wrap_function
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._undo.append((cls, method, original))
                setattr(cls, method, wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapper = wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """Inclusive and self seconds per traced name.

    A span's self time is its duration minus the durations of its direct
    child spans.  Inclusive time skips spans nested inside a span of the same
    name, so re-entrant calls are not counted twice.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    incl: dict[str, int] = defaultdict(int)
    own: dict[str, int] = defaultdict(int)
    for i, (name, start, end, parent) in enumerate(spans):
        own[name] += end - start - child_ns[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            incl[name] += end - start
    return {name: {"s": incl[name] / 1e9, "self_s": own[name] / 1e9} for name in own}


def write_trace(path: str, tracer: Tracer):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "counts": dict(tracer.counts)}, fh)


def read_trace(path) -> tuple[list, Counter]:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return [tuple(s) for s in doc["spans"]], Counter(doc["counts"])
