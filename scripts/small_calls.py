#!/usr/bin/env python3
"""Per-call times of the exact estimators on the small families of the
default corpus, measured in this process.

For each family the script walks the default-corpus matrices of its cell
with one family object, as a campaign does, and times five calls per
matrix: ``expected_top_sum`` at ell = 1, ``_top_sums`` at every ell (the
call ``verify-main`` makes), ``expected_lp_norm`` and ``verify_lp_bounds``
with the four exponents of ``verify-lp``'s default ``--p``, and the Orlicz
sweep's pair at every ell: ``orlicz_upper_bound_check``, then
``top_sum_sandwich_check`` on the flattened entries with j = ell * N.
A sixth timing, ``lemmas cell``, runs ``run_lemmas`` (aggregated, every ell)
on a corpus of that one cell, which decides all of the cell's (matrix, ell)
instances as one batch of columns.
Each walk is repeated 7 times after one untimed walk, which builds what the
family caches; every walk reads fresh copies of the matrices, made before
it is timed, so what a matrix caches (its digest, rearrangement and top-sum
records) is computed as a campaign computes it, once per matrix.  The best
walk, divided by the number of matrices, is printed in microseconds per
call (per matrix for ``lemmas cell``).

Usage:  PYTHONPATH=src python3 scripts/small_calls.py
"""

from __future__ import annotations

import sys
import time

from osb.campaigns import run_lemmas
from osb.corpus import Corpus, CorpusCell, default_corpus
from osb.families import full_mapping_family, parse_family_spec, symmetric_group
from osb.interpolation import expected_lp_norm, verify_lp_bounds
from osb.matrices import Matrix
from osb.orderstats import _top_sums, expected_top_sum
from osb.orlicz import orlicz_upper_bound_check, top_sum_sandwich_check

FAMILIES = [full_mapping_family(1, 3), full_mapping_family(3, 3),
            full_mapping_family(4, 4), full_mapping_family(5, 5),
            symmetric_group(3), symmetric_group(5)]
P_LIST = [1.0, 1.5, 2.0, 3.0]
REPEATS = 7


def each(call):
    """A walk that makes ``call`` on every matrix."""
    return lambda matrices, family: [call(a, family) for a in matrices]


def lemmas_cell(matrices, family):
    cell = CorpusCell(family.n, family.N, tuple((f"i{i:02d}", a) for i, a in enumerate(matrices)))
    return run_lemmas(Corpus(seed=0, cells=(cell,)), parse_family_spec(family.descriptor()))


CALLS = {
    "top_sum ell=1": lambda a, family: expected_top_sum(a, family, 1),
    "top_sums every ell": lambda a, family: _top_sums(
        a, family, range(1, family.n + 1), width=family.n),
    "lp 4 p": lambda a, family: expected_lp_norm(a, family, P_LIST),
    "lp bounds 4 p": lambda a, family: verify_lp_bounds(a, family, P_LIST),
    "orlicz every ell": lambda a, family: [
        (orlicz_upper_bound_check(a, family, ell),
         top_sum_sandwich_check(a.entries.ravel(), ell * family.N))
        for ell in range(1, family.n + 1)],
}
WALKS = {**{name: each(call) for name, call in CALLS.items()}, "lemmas cell": lemmas_cell}


def per_call_us(walk, family, matrices) -> float:
    """The best of REPEATS timed walks over fresh copies of ``matrices``,
    per matrix."""
    walk(matrices, family)  # builds what the family caches
    best = float("inf")
    for _ in range(REPEATS):
        copies = [Matrix(a.entries) for a in matrices]
        start = time.perf_counter()
        walk(copies, family)
        best = min(best, time.perf_counter() - start)
    return best / len(matrices) * 1e6


def main() -> int:
    cells = {(cell.n, cell.N): [a for _, a in cell.matrices] for cell in default_corpus()}
    print(f"{'family':10s} {'members':>8s}" + "".join(f" {name:>19s}" for name in WALKS))
    for family in FAMILIES:
        matrices = cells[family.n, family.N]
        times = [per_call_us(walk, family, matrices)
                 for walk in WALKS.values()]
        print(f"{family.descriptor():10s} {family.size:8d}"
              + "".join(f" {t:16.1f} us" for t in times))
    return 0


if __name__ == "__main__":
    sys.exit(main())
