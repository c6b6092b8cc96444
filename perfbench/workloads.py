"""The benchmark's workloads: the steps of one pass, what their outputs must
look like, and which traced layers each workload is predicted to exercise.

A step is one attempt: a fresh interpreter running ``child.py`` (an ``osb``
command exactly as a user types it, or a library sweep), which writes one
output file.  ``mc`` is the exception: its attempts are estimator calls made
in the benchmark's own process (see run.py).
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

WORKLOADS = ("verify-corpus", "lemmas-corpus", "exact-scaled", "mc")

# checks per (matrix, ell) in a verify-main run: lower, upper, and the
# example-constant line that only the two built-in kinds have
_MAIN_PER_ELL = {"builtin": 3, "explicit": 2}
_LP_EXPONENTS = 4  # the CLI default --p 1,1.5,2,3
_LEMMA_CHECK_IDS = 8  # lemma3.1-3.6 (3.3 as a and b) and paley-zygmund
_EXPLICIT_SHAPE = (8, 8)
_ORACLE_CELLS = ((2, 3), (3, 2), (3, 3))


OUT = "{out}"  # stands for the step's output path in Step.args


@dataclass(frozen=True)
class Step:
    label: str  # the output file's name, also the key of its recorded digest
    args: tuple[str, ...]  # child.py mode and arguments, OUT among them
    check: Callable[[Path, dict], list[str]]  # (output, context) -> problems


# ---------------------------------------------------------------------------
# which corpus cells a family specifier applies to (mirrors family_for_cell)


def _applies(spec: str, n: int, N: int) -> str | None:
    """The kind of family ``spec`` puts on an (n, N) cell: "builtin",
    "explicit", or None when it skips the cell."""
    if spec == "sym":
        return "builtin" if n == N else None
    if spec == "map":
        return "builtin"
    if spec.startswith("map:"):
        _, a, b = spec.split(":")
        return "builtin" if (int(a), int(b)) == (n, N) else None
    if spec.startswith("file:"):
        return "explicit" if (n, N) == _EXPLICIT_SHAPE else None
    raise ValueError(spec)


def _cells(ctx, spec):
    for n, N, count in ctx["manifest"]["corpus_cells"]:
        kind = _applies(spec, n, N)
        if kind is not None:
            yield n, N, count, kind


def _load_reports(path: Path) -> tuple[dict | None, list[str]]:
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:
        return None, [f"{path.name}: unreadable report file ({e})"]
    summary = doc.get("summary", {})
    problems = []
    if summary.get("failed") != 0:
        problems.append(f"{path.name}: {summary.get('failed')} failed checks")
    if summary.get("total") != len(doc.get("reports", ())):
        problems.append(f"{path.name}: summary total disagrees with the report list")
    return doc, problems


def _expect_count(name: str, got: int, want: int) -> list[str]:
    return [] if got == want else [f"{name}: {got} reports, expected {want}"]


# ---------------------------------------------------------------------------
# output checks


def _brute_force_top_sum(entries, family_kind: str, ell: int) -> float:
    """E top-ell path sum by plain enumeration, independent of osb."""
    n, N = len(entries), len(entries[0])
    if family_kind == "sym":
        members = itertools.permutations(range(N))
    else:
        members = itertools.product(range(N), repeat=n)
    totals = []
    for g in members:
        path = sorted((entries[i][g[i]] for i in range(n)), reverse=True)
        totals.append(math.fsum(path[:ell]))
    return math.fsum(totals) / len(totals)


def check_verify_main(spec: str) -> Callable[[Path, dict], list[str]]:
    def check(path: Path, ctx: dict) -> list[str]:
        doc, problems = _load_reports(path)
        if doc is None:
            return problems
        want = sum(count * n * _MAIN_PER_ELL[kind] for n, N, count, kind in _cells(ctx, spec))
        problems += _expect_count(path.name, len(doc["reports"]), want)
        corpus = ctx.get("corpus")
        if corpus is None or spec not in ("map", "sym"):
            return problems
        # recompute the expectations of the small cells from the raw entries
        upper = {(r["inputs"]["cell"], r["inputs"]["id"], r["inputs"]["ell"]): r["lhs"]
                 for r in doc["reports"] if r["check_id"] == "thm1.1/upper"}
        for cell in corpus["cells"]:
            n, N = cell["n"], cell["N"]
            if (n, N) not in _ORACLE_CELLS or _applies(spec, n, N) is None:
                continue
            for item in cell["matrices"]:
                for ell in range(1, n + 1):
                    key = (f"{n}x{N}", item["id"], ell)
                    want_e = _brute_force_top_sum(item["entries"], spec, ell)
                    got_e = upper.get(key)
                    if got_e is None or not math.isclose(got_e, want_e, rel_tol=1e-12,
                                                         abs_tol=1e-15):
                        problems.append(f"{path.name}: E{key} = {got_e}, oracle {want_e}")
        return problems

    return check


def check_verify_lp(spec: str) -> Callable[[Path, dict], list[str]]:
    def check(path: Path, ctx: dict) -> list[str]:
        matrices = sum(count for _, _, count, _ in _cells(ctx, spec))
        want = matrices * _LP_EXPONENTS * 2 + _LP_EXPONENTS
        if path.suffix == ".json":
            doc, problems = _load_reports(path)
            if doc is None:
                return problems
            return problems + _expect_count(path.name, len(doc["reports"]), want)
        try:
            with path.open(encoding="utf-8", newline="") as fh:
                rows = list(csv.DictReader(fh))
        except (OSError, csv.Error) as e:
            return [f"{path.name}: unreadable CSV ({e})"]
        problems = _expect_count(path.name, len(rows), want)
        failed = sum(1 for r in rows if r.get("status") not in ("pass", "vacuous"))
        if failed:
            problems.append(f"{path.name}: {failed} rows not pass/vacuous")
        return problems

    return check


def check_lemmas(spec: str, per_instance: bool = False) -> Callable[[Path, dict], list[str]]:
    def check(path: Path, ctx: dict) -> list[str]:
        doc, problems = _load_reports(path)
        if doc is None:
            return problems
        reports = doc["reports"]
        if per_instance:
            if not reports or any("instances" in r["inputs"] for r in reports):
                problems.append(f"{path.name}: expected one report per swept instance")
            return problems
        want = sum(count * n * _LEMMA_CHECK_IDS for n, N, count, _ in _cells(ctx, spec))
        return problems + _expect_count(path.name, len(reports), want)

    return check


def check_json_rows(rows_per_matrix: Callable[[int, int], int], specs) -> Callable:
    """A child-written JSON list with no failed entries and a known length."""
    def check(path: Path, ctx: dict) -> list[str]:
        try:
            rows = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as e:
            return [f"{path.name}: unreadable ({e})"]
        want = sum(count * rows_per_matrix(n, N)
                   for spec in specs for n, N, count, _ in _cells(ctx, spec))
        problems = _expect_count(path.name, len(rows), want)
        if any(isinstance(r, dict) and r.get("status") == "fail" for r in rows):
            problems.append(f"{path.name}: failed checks")
        return problems

    return check


# ---------------------------------------------------------------------------
# the steps of one pass


def steps(workload: str, seed: int, inputs: Path) -> list[Step]:
    s = str(seed)
    if workload == "verify-corpus":
        # the README's default-corpus campaigns: main as JSON, lp as CSV
        out = []
        for fam in ("map", "sym"):
            out.append(Step(f"verify-main-{fam}.json",
                            ("osb", "verify-main", "--family", fam, "--seed", s, "--out", OUT),
                            check_verify_main(fam)))
        for fam in ("map", "sym"):
            out.append(Step(f"verify-lp-{fam}.csv",
                            ("osb", "verify-lp", "--family", fam, "--seed", s,
                             "--format", "csv", "--out", OUT),
                            check_verify_lp(fam)))
        out.append(Step("orlicz.json", ("orlicz", s, OUT),
                        check_json_rows(lambda n, N: 2 * n, ("map", "sym"))))
        return out
    if workload == "lemmas-corpus":
        out = [Step("lemmas-sym.json", ("osb", "lemmas", "--family", "sym", "--seed", s, "--out", OUT),
                    check_lemmas("sym"))]
        for mid in json.loads((inputs / "manifest.json").read_text())["per_instance_matrices"]:
            out.append(Step(f"lemmas-map-5-5-{mid}.json",
                            ("osb", "lemmas", "--family", "map:5:5",
                             "--matrix", str(inputs / f"m-{mid}.json"), "--out", OUT),
                            check_lemmas("map:5:5", per_instance=True)))
        return out
    if workload == "exact-scaled":
        corpus = str(inputs / "scaled.json")
        families = {"sym": "sym", "map-7-8": "map:7:8",
                    "file-perm8": f"file:{inputs / 'perm8.json'}"}
        checks = {"verify-main": check_verify_main, "verify-lp": check_verify_lp,
                  "lemmas": check_lemmas}
        out = [Step(f"{cmd}-{label}.json",
                    ("osb", cmd, "--family", spec, "--corpus", corpus, "--out", OUT),
                    checks[cmd](spec))
               for cmd in checks for label, spec in families.items()]
        out.append(Step("curves.json", ("curves", corpus, OUT, *families.values()),
                        check_json_rows(lambda n, N: 1, families.values())))
        return out
    raise ValueError(workload)


# ---------------------------------------------------------------------------
# predicted layer coverage, checked by every traced run.  "on" lists the
# workloads whose timed passes must record at least one call; "zero" lists
# the workloads whose timed passes must record none.  DESIGN.md gives the
# end-to-end metric each layer should move and explains each entry.

_ALL = set(WORKLOADS)
_CLI = {"verify-corpus", "lemmas-corpus", "exact-scaled"}

LAYER_MAP = {
    "cli.main": {"on": _CLI, "zero": {"mc"}},
    "corpus.default_corpus": {"on": {"verify-corpus", "lemmas-corpus"},
                              "zero": {"exact-scaled", "mc"}},
    "corpus.load_corpus": {"on": {"exact-scaled"}, "zero": {"verify-corpus", "mc"}},
    "corpus.generate_corpus": {"on": {"verify-corpus", "lemmas-corpus"},
                               "zero": {"exact-scaled", "mc"}},
    "campaigns.run_verify_main": {"on": {"verify-corpus", "exact-scaled"},
                                  "zero": {"lemmas-corpus", "mc"}},
    "campaigns.run_verify_lp": {"on": {"verify-corpus", "exact-scaled"},
                                "zero": {"lemmas-corpus", "mc"}},
    "campaigns.run_lemmas": {"on": {"lemmas-corpus", "exact-scaled"},
                             "zero": {"verify-corpus", "mc"}},
    "families.iter_member_arrays": {"on": _CLI, "zero": {"mc"}},
    "families.sample_array": {"on": {"mc"}, "zero": _CLI},
    "families.check_marginals": {"on": _CLI, "zero": {"mc"}},
    "families.pairwise_constant": {"on": _CLI, "zero": {"mc"}},
    "families.load_family": {"on": {"exact-scaled"},
                             "zero": {"verify-corpus", "lemmas-corpus", "mc"}},
    "rng.words": {"on": {"mc", "verify-corpus", "lemmas-corpus"}, "zero": {"exact-scaled"}},
    "matrices.order_map": {"on": {"lemmas-corpus", "exact-scaled"},
                           "zero": {"verify-corpus", "mc"}},
    "matrices.Matrix.digest": {"on": _CLI, "zero": {"mc"}},
    "orderstats.expected_top_sum": {"on": {"verify-corpus", "exact-scaled"},
                                    "zero": {"lemmas-corpus", "mc"}},
    "orderstats.build_hit_table": {"on": {"lemmas-corpus", "exact-scaled"},
                                   "zero": {"verify-corpus", "mc"}},
    "orderstats.lemma_suite": {"on": {"lemmas-corpus", "exact-scaled"},
                               "zero": {"verify-corpus", "mc"}},
    "orderstats.expected_top_sum_mc": {"on": {"mc"}, "zero": _CLI},
    "interpolation.verify_lp_bounds": {"on": {"verify-corpus", "exact-scaled"},
                                       "zero": {"lemmas-corpus", "mc"}},
    "interpolation.expected_lp_norm": {"on": {"verify-corpus", "exact-scaled", "mc"},
                                       "zero": {"lemmas-corpus"}},
    "interpolation.mixed_k_curve": {"on": {"exact-scaled"},
                                    "zero": {"verify-corpus", "lemmas-corpus", "mc"}},
    "interpolation.interpolation_norm_from_curve": {
        "on": {"exact-scaled"}, "zero": {"verify-corpus", "lemmas-corpus", "mc"}},
    "orlicz.luxemburg_norm": {"on": {"verify-corpus"}, "zero": _ALL - {"verify-corpus"}},
    "orlicz.orlicz_upper_bound_check": {"on": {"verify-corpus"},
                                        "zero": _ALL - {"verify-corpus"}},
    "orlicz.top_sum_sandwich_check": {"on": {"verify-corpus"},
                                      "zero": _ALL - {"verify-corpus"}},
    "reports.reports_to_json": {"on": {"verify-corpus", "lemmas-corpus", "exact-scaled"},
                                "zero": {"mc"}},
    "reports.reports_to_csv": {"on": {"verify-corpus"},
                               "zero": {"lemmas-corpus", "exact-scaled", "mc"}},
    "reports.summarize": {"on": {"verify-corpus", "lemmas-corpus", "exact-scaled"},
                          "zero": {"mc"}},
}
