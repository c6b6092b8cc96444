"""The columnar lemma sweep against the per-instance Fraction oracle.

``lemma_suite`` decides every instance in integer arithmetic over whole
parameter columns and builds reports only when they are read; the oracle in
``oracles.py`` decides each instance with fresh Fractions.  Reports must agree
field for field, and aggregated campaign output byte for byte.
"""

from fractions import Fraction

import numpy as np
import pytest

from osb.campaigns import run_lemmas
from osb.corpus import CorpusSpec, generate_corpus
from osb.families import (
    FamilySpec,
    explicit_family,
    full_mapping_family,
    pairwise_constant,
    symmetric_group,
)
from osb import orderstats
from osb.matrices import Matrix, order_map
from osb.orderstats import (LemmaSweep, _Column, _lemma_columns, build_hit_table,
                            lemma_suite)
from osb.reports import reports_to_json

from oracles import (aggregate_oracle, all_permutations, exact_inequality_report,
                     lemma_suite_oracle)


def random_matrix(n, N, seed):
    return Matrix(np.random.default_rng(seed).uniform(0, 1, (n, N)))


@pytest.mark.parametrize("direction", ["ge", "le"])
def test_column_decides_like_exact_report(direction):
    """Margins at zero, just below it (where the 1e-12 slack once passed
    them) and just above it, and sides whose quotients need correct rounding,
    decided as the Fraction report decides them: a row fails iff its exact
    margin is negative."""
    third = Fraction(1, 3)
    eps = Fraction(1, 10**12)
    tiny = Fraction(1, 10**30)
    sign = 1 if direction == "ge" else -1
    pairs = [(third, third), (third - sign * eps, third),
             (third - sign * (eps + tiny), third),
             (third - sign * eps / 2, third), (third - sign * 2 * eps, third),
             (third - sign * tiny, third), (third + sign * tiny, third),
             (Fraction(2**60 + 1, 3 * 2**60), Fraction(1, 7))]
    col = _Column(
        "c", direction, {"i": list(range(len(pairs)))},
        (np.array([lhs.numerator for lhs, _ in pairs], dtype=object),
         np.array([lhs.denominator for lhs, _ in pairs], dtype=object)),
        (np.array([rhs.numerator for _, rhs in pairs], dtype=object),
         np.array([rhs.denominator for _, rhs in pairs], dtype=object)))
    got = [col.report(i, {}) for i in range(len(pairs))]
    want = [exact_inequality_report("c", {"i": i}, lhs, rhs, direction=direction)
            for i, (lhs, rhs) in enumerate(pairs)]
    assert got == want
    assert [r.status for r in got[:7]] == ["pass", "fail", "fail", "fail", "fail",
                                           "fail", "pass"]


def _sweep(a, family, ell):
    """What ``lemma_suite`` returns, with no hypothesis check on the family."""
    table = build_hit_table(family, order_map(a))
    c_pair = pairwise_constant(family).pairwise_bound
    base = {"id": "t", "matrix": a.digest(), "family": family.descriptor(),
            "ell": ell}
    return LemmaSweep(base, _lemma_columns(a, table, c_pair, ell))


def _assert_same_sweep(a, family, ell, *, uniform=True):
    """The sweep against the oracle; for a family that passes its hypothesis
    check (``uniform``) the sweep is ``lemma_suite``'s own."""
    sweep = _sweep(a, family, ell)
    if uniform:
        assert list(lemma_suite(a, family, ell, extra_inputs={"id": "t"})) == list(sweep)
    oracle = lemma_suite_oracle(a, family, ell, extra_inputs={"id": "t"})
    assert len(sweep) == len(oracle)
    for got, want in zip(sweep, oracle):
        assert got == want, (got, want)
    group = {"id": "t", "matrix": a.digest(), "family": family.descriptor(),
             "ell": ell}
    assert sweep.aggregate() == aggregate_oracle(oracle, group)
    return oracle


SMALL_FAMILIES = (
    [symmetric_group(n) for n in range(2, 6)]
    + [full_mapping_family(n, N) for n in range(1, 5) for N in range(1, 5)]
)


@pytest.mark.parametrize("family", SMALL_FAMILIES, ids=lambda f: f.descriptor())
def test_random_matrices_match_oracle(family):
    a = random_matrix(family.n, family.N, seed=7 * family.n + family.N)
    for ell in range(1, family.n + 1):
        _assert_same_sweep(a, family, ell)


@pytest.mark.parametrize("family", [full_mapping_family(5, 5),
                                    full_mapping_family(5, 10)],
                         ids=lambda f: f.descriptor())
def test_large_families_match_oracle(family):
    # map:5:10 has 100,000 members, so products of counts overflow int64
    a = random_matrix(family.n, family.N, seed=11)
    for ell in (1, 3, 5):
        _assert_same_sweep(a, family, ell)


def test_explicit_family_with_duplicates_and_fractional_constant():
    cyclic = [[1, 2, 3], [2, 3, 1], [3, 1, 2]]
    family = explicit_family(cyclic * 2 + all_permutations(3), 3, 3)
    c_pair = pairwise_constant(family).pairwise_bound
    assert c_pair.denominator > 1
    a = random_matrix(3, 3, seed=5)
    for ell in (1, 2, 3):
        _assert_same_sweep(a, family, ell)


def test_theta_columns_are_built_once_per_table(monkeypatch):
    """Every ell swept on one table shares lemma3.1, lemma3.2 and
    paley-zygmund; the reports are those of a fresh table per ell."""
    built = []
    real = orderstats._theta_columns
    monkeypatch.setattr(orderstats, "_theta_columns",
                        lambda *args: built.append(args) or real(*args))
    a, family = random_matrix(4, 4, seed=3), symmetric_group(4)
    table = build_hit_table(family, order_map(a))
    shared = [list(lemma_suite(a, family, ell, table=table)) for ell in range(1, 5)]
    assert len(built) == 1
    fresh = [list(lemma_suite(a, family, ell)) for ell in range(1, 5)]
    assert len(built) == 5
    assert shared == fresh
    # another C on the same table is another set of columns
    orderstats._lemma_columns(a, table, Fraction(1, 2), 2)
    assert len(built) == 6


def test_unhit_top_position_makes_paley_zygmund_vacuous():
    # no member visits (1, 1), which holds the largest entry, so X_1 = 0
    family = explicit_family([[2, 1], [2, 2], [2, 1]], 2, 2)
    a = Matrix.from_rows([[9, 1], [2, 3]])
    for ell in (1, 2):
        # the marginals are not uniform, so lemma_suite would refuse the family
        oracle = _assert_same_sweep(a, family, ell, uniform=False)
        statuses = {r.status for r in oracle if r.check_id == "paley-zygmund"}
        assert statuses >= {"vacuous", "pass"}
        assert any(r.status == "fail" for r in oracle)


def test_aggregated_campaign_matches_oracle_bytes():
    cells = ((1, 1), (2, 2), (3, 1), (3, 3), (2, 4))
    corpus = generate_corpus(
        [CorpusSpec(cells=cells, matrices_per_cell=2, distribution="uniform", seed=5),
         CorpusSpec(cells=cells, matrices_per_cell=1, distribution="sparse", seed=5)],
        seed=5,
    )
    tight = Matrix.from_rows([[1, 0], [0, 1]])
    ties = 0
    for spec in (FamilySpec("map"), FamilySpec("sym")):
        want = []
        for cell in corpus:
            family = (full_mapping_family(cell.n, cell.N) if spec.kind == "map"
                      else symmetric_group(cell.n) if cell.n == cell.N else None)
            if family is None:
                continue
            for mid, a in cell.matrices:
                inputs = {"cell": f"{cell.n}x{cell.N}", "id": mid}
                for ell in range(1, cell.n + 1):
                    oracle = lemma_suite_oracle(a, family, ell, extra_inputs=inputs)
                    pz = [r.margin for r in oracle
                          if r.check_id == "paley-zygmund" and r.status != "vacuous"]
                    ties += pz.count(min(pz)) > 1
                    group = {**inputs, "matrix": a.digest(),
                             "family": family.descriptor(), "ell": ell}
                    want.extend(aggregate_oracle(oracle, group))
        got = run_lemmas(corpus, spec)
        assert reports_to_json(got) == reports_to_json(want)
    # on an n x 1 cell every m gives Z = m, so PZ margins tie across m and
    # the first instance must be the one reported
    assert ties > 0

    # criterion 3's tight instance: lemma3.1 holds with equality at m = 1
    # and m = 2, and the aggregate names the first
    sweep = lemma_suite(tight, symmetric_group(2), 1)
    oracle = lemma_suite_oracle(tight, symmetric_group(2), 1)
    assert [r.margin for r in sweep if r.check_id == "lemma3.1"][:2] == [0.0, 0.0]
    group = {"matrix": tight.digest(), "family": "sym:2", "ell": 1}
    worst = next(r for r in sweep.aggregate() if r.check_id == "lemma3.1")
    assert worst == next(r for r in aggregate_oracle(oracle, group)
                         if r.check_id == "lemma3.1")
    assert worst.margin == 0.0 and worst.status == "pass"
    assert worst.extra["worst_case"]["m"] == 1
