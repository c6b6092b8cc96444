"""One benchmark step in a fresh interpreter.

Usage: python3 perfbench/child.py [--trace SPANS.json] MODE ARGS...

Modes:
  osb ARGS...                     the ``osb`` console script (osb.cli.main)
  setup WORKLOAD SEED DIR         generate the workload's inputs into DIR
  orlicz SEED OUT                 prop4.2/upper and lemma4.1 over the built-in
                                  corpus of SEED, for the map and sym families
  curves CORPUS OUT SPEC...       mixed K-curve and interpolation norms of
                                  every matrix under each family SPEC

With ``--trace`` the osb functions listed in tracer.TARGETS are wrapped
before the step runs and the recorded spans are written to SPANS.json when
it ends.  The exit code is the step's: 0 when every check it made passed.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import Tracer, write_trace  # noqa: E402

# Criterion 9's Monte Carlo cases: (n, N, kind), each with matrices u00, u01.
MC_SHAPES = (
    (2, 2, "sym"), (3, 3, "sym"), (4, 4, "sym"), (5, 5, "sym"),
    (2, 2, "map"), (3, 3, "map"), (2, 3, "map"), (3, 2, "map"),
    (4, 5, "map"), (5, 4, "map"),
)
MC_IDS = ("u00", "u01")
MC_LP_P = 2.0
SCALED_CELLS = ((7, 8), (8, 8), (9, 9))
SCALED_MATRICES_PER_CELL = 1
EXPLICIT_N = 8
PER_INSTANCE_IDS = ("u00", "i00", "s00")
CURVE_PS = (1.5, 2.0, 3.0)


def _write(path, text):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _cells_manifest(corpus):
    return [[c.n, c.N, len(c.matrices)] for c in corpus]


def setup(workload: str, seed: int, out: str) -> int:
    """Write every input the workload's passes read, plus a manifest of sizes."""
    from osb.corpus import (CorpusSpec, corpus_to_json, default_corpus,
                            generate_corpus)
    from osb.matrices import matrix_to_json_obj
    from osb.reports import canonical_json

    manifest = {"workload": workload, "seed": seed}
    if workload in ("verify-corpus", "lemmas-corpus"):
        corpus = default_corpus(seed=seed)
        _write(os.path.join(out, "corpus.json"), corpus_to_json(corpus))
        manifest["corpus_cells"] = _cells_manifest(corpus)
        if workload == "lemmas-corpus":
            cell = next(c for c in corpus if (c.n, c.N) == (5, 5))
            by_id = dict(cell.matrices)
            for mid in PER_INSTANCE_IDS:
                doc = canonical_json(matrix_to_json_obj(by_id[mid])) + "\n"
                _write(os.path.join(out, f"m-{mid}.json"), doc)
            manifest["per_instance_matrices"] = list(PER_INSTANCE_IDS)
    elif workload == "exact-scaled":
        corpus = generate_corpus(
            [CorpusSpec(cells=SCALED_CELLS, matrices_per_cell=SCALED_MATRICES_PER_CELL,
                        distribution="uniform", seed=seed)],
            seed=seed,
        )
        _write(os.path.join(out, "scaled.json"), corpus_to_json(corpus))
        maps = [list(p) for p in itertools.permutations(range(1, EXPLICIT_N + 1))]
        doc = {"n": EXPLICIT_N, "N": EXPLICIT_N, "maps": maps}
        _write(os.path.join(out, "perm8.json"), canonical_json(doc) + "\n")
        manifest["corpus_cells"] = _cells_manifest(corpus)
        manifest["family_sizes"] = {
            "sym:8": 40320, "sym:9": 362880, "map:7:8": 8 ** 7,
            "file:perm8.json": len(maps),
        }
    elif workload == "mc":
        from osb.families import full_mapping_family, symmetric_group
        from osb.interpolation import expected_lp_norm
        from osb.orderstats import expected_top_sum

        cells = tuple(sorted({(n, N) for n, N, _ in MC_SHAPES}))
        corpus = generate_corpus(
            [CorpusSpec(cells=cells, matrices_per_cell=len(MC_IDS),
                        distribution="uniform", seed=seed)],
            seed=seed,
        )
        by_cell = {(c.n, c.N): dict(c.matrices) for c in corpus}
        cases = []
        for n, N, kind in MC_SHAPES:
            family = symmetric_group(n) if kind == "sym" else full_mapping_family(n, N)
            for mid in MC_IDS:
                a = by_cell[(n, N)][mid]
                ell = (n + 1) // 2
                cases.append({
                    "n": n, "N": N, "kind": kind, "id": mid, "ell": ell,
                    "entries": [[float(v) for v in row] for row in a.entries],
                    "exact_top": expected_top_sum(a, family, ell).value,
                    "exact_lp": expected_lp_norm(a, family, MC_LP_P).value,
                    "family_size": family.size,
                })
        # json writes floats with repr, so they read back bit for bit
        _write(os.path.join(out, "cases.json"), json.dumps({"p": MC_LP_P, "cases": cases}))
        manifest["cases"] = len(cases)
    else:
        print(f"unknown workload {workload!r}", file=sys.stderr)
        return 2
    _write(os.path.join(out, "manifest.json"), json.dumps(manifest, sort_keys=True) + "\n")
    return 0


def orlicz(seed: int, out: str) -> int:
    from osb.corpus import default_corpus
    from osb.families import FamilySpec, family_for_cell
    from osb.orlicz import orlicz_upper_bound_check, top_sum_sandwich_check
    from osb.reports import all_passed, canonical_json

    corpus = default_corpus(seed=seed)
    reports = []
    for kind in ("map", "sym"):
        for cell in corpus:
            family = family_for_cell(FamilySpec(kind), cell.n, cell.N)
            if family is None:
                continue
            for _, a in cell.matrices:
                for ell in range(1, cell.n + 1):
                    reports.append(orlicz_upper_bound_check(a, family, ell))
                    reports.append(top_sum_sandwich_check(a.entries.ravel(), ell * cell.N))
    _write(out, canonical_json([r.to_json_obj() for r in reports]) + "\n")
    return 0 if all_passed(reports) else 1


def curves(corpus_path: str, out: str, specs) -> int:
    from osb.corpus import load_corpus
    from osb.families import family_for_cell, parse_family_spec
    from osb.interpolation import interpolation_norm_from_curve, mixed_k_curve
    from osb.reports import canonical_json

    corpus = load_corpus(corpus_path)
    rows = []
    for spec_text in specs:
        spec = parse_family_spec(spec_text)
        for cell in corpus:
            family = family_for_cell(spec, cell.n, cell.N)
            if family is None:
                continue
            for mid, a in cell.matrices:
                curve = mixed_k_curve(a, family)
                rows.append({
                    "family": family.descriptor(), "cell": f"{cell.n}x{cell.N}", "id": mid,
                    "knots": list(curve.knots),
                    "norms": [interpolation_norm_from_curve(curve, p) for p in CURVE_PS],
                })
    _write(out, canonical_json(rows) + "\n")
    ok = rows and all(all(v > 0 and v == v for v in r["norms"]) for r in rows)
    return 0 if ok else 1


def run(mode: str, args) -> int:
    if mode == "osb":
        return importlib.import_module("osb.cli").main(args)
    if mode == "setup":
        return setup(args[0], int(args[1]), args[2])
    if mode == "orlicz":
        return orlicz(int(args[0]), args[1])
    if mode == "curves":
        return curves(args[0], args[1], args[2:])
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


def main(argv) -> int:
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    importlib.import_module("osb")
    tracer = Tracer()
    if trace_path:
        tracer.install()
    try:
        return run(argv[0], argv[1:])
    finally:
        if trace_path:
            write_trace(trace_path, tracer)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
