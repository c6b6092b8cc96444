#!/usr/bin/env python3
"""Run every verification campaign on the default corpus and write reports.

Usage: python scripts/run_all_campaigns.py [--out-dir OUT] [--seed S]

Writes one JSON report file per (campaign, family kind) into OUT (default
./reports), prints a summary block and a ``sha256 <hex>  <file>`` line per
file, and exits nonzero if any non-vacuous check fails.  Two runs write the
same bytes when ``grep sha256`` of their logs match.  The orlicz jobs are the
hinge-norm sweep: prop4.2/upper and lemma4.1 for every matrix and ell.  The
``-mc`` jobs run verify-main and verify-lp by Monte Carlo at 4096 draws and
seed 5, so the hashes cover the estimators' bits too.
"""

import argparse
import hashlib
import sys
import time
from pathlib import Path

from osb.campaigns import run_lemmas, run_verify_lp, run_verify_main
from osb.corpus import DEFAULT_SEED, default_corpus
from osb.families import FamilySpec, family_for_cell
from osb.orlicz import orlicz_upper_bound_check, top_sum_sandwich_check
from osb.reports import all_passed, format_summary, reports_to_json, summarize

P_LIST = [1.0, 1.5, 2.0, 3.0]
# the Monte Carlo jobs' fixed draw count and seed
MC_SAMPLES = 4096
MC_SEED = 5


def run_orlicz(corpus, kind: str) -> list:
    """prop4.2/upper and lemma4.1 for every matrix and ell of the corpus."""
    reports = []
    for cell in corpus:
        family = family_for_cell(FamilySpec(kind), cell.n, cell.N)
        if family is None:
            continue
        for _, a in cell.matrices:
            for ell in range(1, cell.n + 1):
                reports.append(orlicz_upper_bound_check(a, family, ell))
                reports.append(top_sum_sandwich_check(a.entries.ravel(), ell * cell.N))
    return reports


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out-dir", default="reports")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    corpus = default_corpus(seed=args.seed)
    print(f"default corpus: {corpus.total_matrices()} matrices, seed {args.seed}")

    jobs = [
        ("verify-main-map", lambda: run_verify_main(corpus, FamilySpec("map"))),
        ("verify-main-sym", lambda: run_verify_main(corpus, FamilySpec("sym"))),
        ("verify-lp-map", lambda: run_verify_lp(corpus, FamilySpec("map"), P_LIST)),
        ("verify-lp-sym", lambda: run_verify_lp(corpus, FamilySpec("sym"), P_LIST)),
        ("lemmas-map", lambda: run_lemmas(corpus, FamilySpec("map"))),
        ("lemmas-sym", lambda: run_lemmas(corpus, FamilySpec("sym"))),
        ("orlicz-map", lambda: run_orlicz(corpus, "map")),
        ("orlicz-sym", lambda: run_orlicz(corpus, "sym")),
        ("verify-main-map-mc", lambda: run_verify_main(
            corpus, FamilySpec("map"), samples=MC_SAMPLES, seed=MC_SEED)),
        ("verify-main-sym-mc", lambda: run_verify_main(
            corpus, FamilySpec("sym"), samples=MC_SAMPLES, seed=MC_SEED)),
        ("verify-lp-map-mc", lambda: run_verify_lp(
            corpus, FamilySpec("map"), P_LIST, samples=MC_SAMPLES, seed=MC_SEED)),
        ("verify-lp-sym-mc", lambda: run_verify_lp(
            corpus, FamilySpec("sym"), P_LIST, samples=MC_SAMPLES, seed=MC_SEED)),
    ]
    ok = True
    for name, job in jobs:
        t0 = time.perf_counter()
        reports = job()
        path = out_dir / f"{name}.json"
        # the bytes `osb ... --out` writes, whatever the locale
        data = reports_to_json(reports).encode("utf-8")
        path.write_bytes(data)
        print(f"\n== {name} ({time.perf_counter() - t0:.1f}s) -> {path}")
        print(f"sha256 {hashlib.sha256(data).hexdigest()}  {path.name}")
        print(format_summary(summarize(reports)))
        ok = ok and all_passed(reports)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
