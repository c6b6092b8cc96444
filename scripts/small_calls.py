#!/usr/bin/env python3
"""Per-call times of the exact estimators on the small families of the
default corpus, measured in this process.

For each family the script walks the default-corpus matrices of its cell
with one family object, as a campaign does, and times three calls per
matrix: ``expected_top_sum`` at ell = 1, ``_top_sums`` at every ell from
one width-n pass (the call ``verify-main`` makes), and ``expected_lp_norm``
with the four exponents of ``verify-lp``'s default ``--p``.  Each walk is
repeated 7 times after one untimed walk; the best walk, divided by the
number of matrices, is printed in microseconds per call.

Usage:  PYTHONPATH=src python3 scripts/small_calls.py
"""

from __future__ import annotations

import sys
import time

from osb.corpus import default_corpus
from osb.families import full_mapping_family, symmetric_group
from osb.interpolation import expected_lp_norm
from osb.orderstats import _top_sums, expected_top_sum

FAMILIES = [full_mapping_family(1, 3), full_mapping_family(3, 3),
            full_mapping_family(4, 4), full_mapping_family(5, 5),
            symmetric_group(3), symmetric_group(5)]
P_LIST = [1.0, 1.5, 2.0, 3.0]
REPEATS = 7

CALLS = {
    "top_sum ell=1": lambda a, family: expected_top_sum(a, family, 1),
    "top_sums every ell": lambda a, family: _top_sums(
        a, family, range(1, family.n + 1), width=family.n),
    "lp 4 p": lambda a, family: expected_lp_norm(a, family, P_LIST),
}


def per_call_us(call, family, matrices) -> float:
    """The best of REPEATS timed walks over ``matrices``, per call."""
    for a in matrices:  # builds what the family and the matrices cache
        call(a, family)
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        for a in matrices:
            call(a, family)
        best = min(best, time.perf_counter() - start)
    return best / len(matrices) * 1e6


def main() -> int:
    cells = {(cell.n, cell.N): [a for _, a in cell.matrices] for cell in default_corpus()}
    print(f"{'family':10s} {'members':>8s}" + "".join(f" {name:>19s}" for name in CALLS))
    for family in FAMILIES:
        matrices = cells[family.n, family.N]
        times = [per_call_us(call, family, matrices)
                 for call in CALLS.values()]
        print(f"{family.descriptor():10s} {family.size:8d}"
              + "".join(f" {t:16.1f} us" for t in times))
    return 0


if __name__ == "__main__":
    sys.exit(main())
