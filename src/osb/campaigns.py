"""Corpus-level verification campaigns behind the CLI subcommands.

Each campaign walks a corpus cell by cell, realizes the requested family for
each shape, and emits verification reports.  Families failing the uniform
marginal hypothesis abort the campaign with their certificate attached.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .families import (
    FamilySpec,
    family_for_cell,
    pairwise_constant,
    require_uniform_marginals,
)
from .corpus import Corpus
from .matrices import order_map, reduce_to_top
from .orderstats import _LemmaBatch, _top_sums, build_hit_table, lemma_suite
from .interpolation import verify_lp_bounds
from .reports import (
    STATUS_VACUOUS,
    VerificationReport,
    inequality_report,
    ratio_report,
    vacuous_report,
)

EXAMPLE_CONSTANTS = {
    "symmetric-group": 1.0 / 800.0,
    "full-mapping": 1.0 / 288.0,
}


def lower_constant(c_pair: Fraction) -> float:
    """The guaranteed lower constant 1 / (32 (1 + 2C)^2)."""
    return float(Fraction(1, 1) / (32 * (1 + 2 * c_pair) ** 2))


def _iter_cell_families(corpus: Corpus, spec: FamilySpec):
    for cell in corpus:
        family = family_for_cell(spec, cell.n, cell.N)
        if family is not None:
            yield cell, family


def _ell_values(ell_range: Optional[tuple[int, int]], n: int) -> range:
    lo, hi = ell_range or (1, n)
    return range(max(lo, 1), min(hi, n) + 1)


def run_verify_main(
    corpus: Corpus,
    spec: FamilySpec,
    ell_range: Optional[tuple[int, int]] = None,
    *,
    reduce_top: bool = False,
    cap: int | None = None,
    samples: int | None = None,
    seed: int = 0,
) -> list[VerificationReport]:
    """The two-sided bound campaign (ids thm1.1/lower, thm1.1/upper, and the
    per-kind example-constant line thm1.1/example-lower).

    For every matrix and admissible ell, checks

        c * (1/N) * top(ell*N)  <=  E top-ell path sum  <=  (2/N) * top(ell*N)

    with c = 1/(32 (1+2C)^2) for the family's exact pairwise constant C.
    Every ell of a matrix comes from one pass: an exact pass enumerates the
    family once with ell = n top blocks; a Monte Carlo pass (``samples``
    draws at ``seed``) draws once with blocks as wide as the largest ell.
    With ``reduce_top`` the lower check zeroes all entries outside the ell*N
    largest first (legitimate for lower bounds; off by default), which is
    one more pass per ell on the reduced matrix.
    """
    out: list[VerificationReport] = []
    labels = {} if samples is None else {"samples": samples, "seed": seed}
    for cell, family in _iter_cell_families(corpus, spec):
        require_uniform_marginals(family)
        c_pair = pairwise_constant(family).pairwise_bound
        c_low = lower_constant(c_pair)
        example = EXAMPLE_CONSTANTS.get(family.kind)
        N = family.N
        ells = _ell_values(ell_range, family.n)
        if not ells:
            continue
        # an exact ell = 1 is the first column of the ell = n pass
        width = family.n if samples is None else max(ells)
        for mid, a in cell.matrices:
            results = _top_sums(a, family, ells, width=width, cap=cap,
                                samples=samples, seed=seed)
            order = order_map(a) if reduce_top else None
            for ell, res in zip(ells, results):
                top_avg = a.top_sum(ell * N) / N
                inputs = {
                    "cell": f"{cell.n}x{cell.N}", "id": mid,
                    "matrix": a.digest(), "family": family.descriptor(),
                    "ell": ell, **labels,
                }
                if reduce_top:
                    low = _top_sums(reduce_to_top(a, order, ell), family, (ell,),
                                    width=ell, cap=cap, samples=samples, seed=seed)[0]
                    low_inputs = {**inputs, "reduced": True}
                else:
                    low, low_inputs = res, inputs
                out.append(inequality_report(
                    "thm1.1/lower", low_inputs,
                    lhs=c_low * top_avg, rhs=low.value,
                    constant=c_low, mode=res.mode, stderr=low.stderr,
                ))
                out.append(inequality_report(
                    "thm1.1/upper", inputs,
                    lhs=res.value, rhs=2.0 * top_avg,
                    constant=2.0, mode=res.mode, stderr=res.stderr,
                ))
                if example is not None:
                    out.append(inequality_report(
                        "thm1.1/example-lower", low_inputs,
                        lhs=example * top_avg, rhs=low.value,
                        constant=example, mode=res.mode, stderr=low.stderr,
                    ))
    return out


def run_verify_lp(
    corpus: Corpus,
    spec: FamilySpec,
    p_list: Sequence[float],
    *,
    cap: int | None = None,
    samples: int | None = None,
    seed: int = 0,
) -> list[VerificationReport]:
    """The lp campaign: upper bound with constant 1 per matrix and exponent,
    plus one aggregate minimum-lower-ratio report per exponent
    (id thm1.2/lower-min-ratio) when any matrix was checked.  Every exponent
    of a matrix comes from one pass over its family (or one stream of
    draws)."""
    out: list[VerificationReport] = []
    min_ratio: dict[float, tuple[float, dict]] = {}
    for cell, family in _iter_cell_families(corpus, spec):
        require_uniform_marginals(family)
        for mid, a in cell.matrices:
            reports = verify_lp_bounds(
                a, family, p_list, cap=cap, samples=samples, seed=seed,
                extra_inputs={"cell": f"{cell.n}x{cell.N}", "id": mid},
            )
            # (upper, lower-ratio) for each p in turn
            for p, r in zip(p_list, reports[1::2]):
                if r.status != STATUS_VACUOUS:
                    current = min_ratio.get(p)
                    if current is None or r.lhs < current[0]:
                        min_ratio[p] = (r.lhs, dict(r.inputs))
            out.extend(reports)
    if not out:  # no matrix was checked, so no aggregate either
        return out
    for p in p_list:
        if p not in min_ratio:
            out.append(vacuous_report(
                "thm1.2/lower-min-ratio", {"p": float(p)},
                "no nonzero matrix produced a ratio",
            ))
            continue
        ratio, worst_inputs = min_ratio[p]
        out.append(ratio_report("thm1.2/lower-min-ratio", {"p": float(p)}, ratio,
                                extra={"worst_case": worst_inputs}))
    return out


def run_lemmas(
    corpus: Corpus,
    spec: FamilySpec,
    ell_range: Optional[tuple[int, int]] = None,
    *,
    cap: int | None = None,
    aggregate: bool = True,
) -> list[VerificationReport]:
    """Drive the tail-inequality suite across the corpus.

    With ``aggregate`` (the default for corpus runs) the per-instance sweep
    reports of each (matrix, family, ell) group are collapsed to one
    worst-margin report per check id; every instance is still evaluated.
    Each cell's instances are decided as one batch of exact columns, which
    every ``lemma_suite`` call of the cell reads its row of.
    """
    out: list[VerificationReport] = []
    for cell, family in _iter_cell_families(corpus, spec):
        require_uniform_marginals(family)
        if not cell.matrices:
            continue
        ells = _ell_values(ell_range, family.n)
        tables = [build_hit_table(family, order_map(a), cap=cap) for _, a in cell.matrices]
        # each table's slot now holds the cell's batch, which lemma_suite reads
        _LemmaBatch(family, [a for _, a in cell.matrices], tables, ells)
        for (mid, a), table in zip(cell.matrices, tables):
            cell_inputs = {"cell": f"{cell.n}x{cell.N}", "id": mid}
            for ell in ells:
                instance = lemma_suite(
                    a, family, ell, table=table, extra_inputs=cell_inputs,
                )
                out.extend(instance.aggregate() if aggregate else instance)
    return out
