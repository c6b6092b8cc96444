"""The columnar lemma sweep against the per-instance Fraction oracle.

``lemma_suite`` decides every instance in integer arithmetic over whole
parameter columns, one batch of columns for all the (matrix, ell) instances
of a corpus cell, and builds reports only when they are read; the oracle in
``oracles.py`` decides each instance with fresh Fractions.  Reports must agree
field for field, and aggregated campaign output byte for byte.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from osb.campaigns import run_lemmas
from osb.corpus import Corpus, CorpusCell, CorpusSpec, generate_corpus
from osb.families import (
    FamilySpec,
    explicit_family,
    full_mapping_family,
    pairwise_constant,
    symmetric_group,
)
from osb import cli, orderstats
from osb.matrices import Matrix, order_map
from osb.orderstats import (_Columns, _LemmaBatch, _LemmaInstance, build_hit_table,
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
    col = _Columns(
        "c", direction, {"i": list(range(len(pairs)))},
        (np.array([lhs.numerator for lhs, _ in pairs], dtype=object),
         np.array([lhs.denominator for lhs, _ in pairs], dtype=object)),
        (np.array([rhs.numerator for _, rhs in pairs], dtype=object),
         np.array([rhs.denominator for _, rhs in pairs], dtype=object)), None)
    got = col.reports(0, 0, {})
    want = [exact_inequality_report("c", {"i": i}, lhs, rhs, direction=direction)
            for i, (lhs, rhs) in enumerate(pairs)]
    assert got == want
    assert [r.status for r in got[:7]] == ["pass", "fail", "fail", "fail", "fail",
                                           "fail", "pass"]
    # the axis reduction picks the oracle's worst row and counts its failures
    assert [col.reduce().aggregate(0, 0, {})] == aggregate_oracle(want, {})


def _sweep(a, family, ell):
    """What ``lemma_suite`` returns, with no hypothesis check on the family."""
    table = build_hit_table(family, order_map(a))
    base = {"id": "t", "matrix": a.digest(), "family": family.descriptor(),
            "ell": ell}
    return _LemmaInstance(_LemmaBatch(family, [a], [table], [ell]), 0, ell, base)


def _assert_same_sweep(a, family, ell, *, uniform=True):
    """The sweep against the oracle; for a family that passes its hypothesis
    check (``uniform``) the sweep is ``lemma_suite``'s own."""
    sweep = _sweep(a, family, ell)
    if uniform:
        assert list(lemma_suite(a, family, ell, extra_inputs={"id": "t"})) == list(sweep)
    oracle = lemma_suite_oracle(a, family, ell, extra_inputs={"id": "t"})
    assert len(list(sweep)) == len(oracle)
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


def test_columns_are_built_once_per_table(monkeypatch):
    """Every ell swept on one table reads one batch of one, built by the
    first call; the reports are those of a fresh table per ell."""
    built = []
    real = orderstats._LemmaBatch._build
    monkeypatch.setattr(orderstats._LemmaBatch, "_build",
                        lambda self: built.append(self) or real(self))
    a, family = random_matrix(4, 4, seed=3), symmetric_group(4)
    table = build_hit_table(family, order_map(a))
    shared = [list(lemma_suite(a, family, ell, table=table)) for ell in range(1, 5)]
    assert len(built) == 1
    fresh = [list(lemma_suite(a, family, ell)) for ell in range(1, 5)]
    assert len(built) == 5
    assert shared == fresh
    # the aggregates are one more reading of the same batch
    for ell in range(1, 5):
        lemma_suite(a, family, ell, table=table).aggregate()
    assert len(built) == 6
    # another C on the same table is another batch, in a slot of its own
    other = full_mapping_family(4, 4)
    list(lemma_suite(a, other, 2, table=table))
    assert len(built) == 7 and len(table._lemma_rows) == 2
    list(lemma_suite(a, family, 3, table=table))
    assert len(built) == 7


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


def _cell_matrices(n, N, seed):
    """Four matrices for an n x N cell: the zero matrix, an integer grid
    with ties, entries of mixed dyadic denominators, and a uniform draw."""
    rng = np.random.default_rng(seed)
    dyadic = rng.integers(0, 64, (n, N)) / 2.0 ** rng.integers(0, 40, (n, N))
    return (("zero", Matrix(np.zeros((n, N)))),
            ("grid", Matrix(rng.integers(0, 3, (n, N)).astype(float))),
            ("dyadic", Matrix(dyadic)),
            ("uniform", random_matrix(n, N, seed)))


def _oracle_campaign(corpus, family_of, ells=None):
    """What an aggregated ``run_lemmas`` emits, from the Fraction oracle."""
    want = []
    for cell in corpus:
        family = family_of(cell.n, cell.N)
        if family is None:
            continue
        for mid, a in cell.matrices:
            inputs = {"cell": f"{cell.n}x{cell.N}", "id": mid}
            for ell in ells or range(1, cell.n + 1):
                if ell > cell.n:
                    continue
                group = {**inputs, "matrix": a.digest(),
                         "family": family.descriptor(), "ell": ell}
                want.extend(aggregate_oracle(
                    lemma_suite_oracle(a, family, ell, extra_inputs=inputs), group))
    return want


def test_cell_batches_match_oracle_bytes(tmp_path):
    """Each cell's four matrices are decided as one batch; every aggregate
    equals the oracle's, including the zero matrix, ties on the integer
    grid, mixed dyadic denominators in lemma3.5, and the vacuous lemma3.3b
    and lemma3.6 of n = 1 cells.  (Every family here has uniform marginals,
    so E Z = m/N > 0 and no Paley-Zygmund row is vacuous; see the next
    test.)"""
    shapes = ((1, 1), (1, 3), (2, 2), (2, 3), (3, 3), (3, 2))
    corpus = Corpus(seed=0, cells=tuple(
        CorpusCell(n, N, _cell_matrices(n, N, seed=10 * n + N)) for n, N in shapes))
    cyclic = [[1, 2, 3], [2, 3, 1], [3, 1, 2]]
    explicit = explicit_family(cyclic * 2 + all_permutations(3), 3, 3)
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"n": 3, "N": 3, "maps": cyclic * 2 + all_permutations(3)}))
    cases = [
        (FamilySpec("sym"), lambda n, N: symmetric_group(n) if n == N else None),
        (FamilySpec("map"), full_mapping_family),
        (FamilySpec("file", path=str(path)),
         lambda n, N: explicit if (n, N) == (3, 3) else None),
    ]
    for spec, family_of in cases:
        got = run_lemmas(corpus, spec)
        want = _oracle_campaign(corpus, family_of)
        assert got == want
        assert reports_to_json(got) == reports_to_json(want)
        statuses = {(r.check_id, r.status) for r in got}
        if spec.kind != "file":
            assert {("lemma3.3b", "vacuous"), ("lemma3.6", "vacuous")} <= statuses
    # an ell range that leaves ragged lemma3.4 and lemma3.6 rows
    got = run_lemmas(corpus, FamilySpec("map"), ell_range=(2, 3))
    assert got == _oracle_campaign(corpus, full_mapping_family, ells=(2, 3))


def test_batch_with_vacuous_paley_zygmund_rows_matches_oracle():
    """No member visits (1, 1), so a matrix whose largest entry is there has
    X_1 = 0 and vacuous Paley-Zygmund rows at m = 1, while the other matrices
    of the batch have none."""
    family = explicit_family([[2, 1], [2, 2], [2, 1]], 2, 2)
    matrices = [Matrix.from_rows([[9, 1], [2, 3]]), Matrix.from_rows([[1, 9], [2, 3]]),
                Matrix.from_rows([[5, 0.5], [0.25, 5]])]
    tables = [build_hit_table(family, order_map(a)) for a in matrices]
    batch = _LemmaBatch(family, matrices, tables, [1, 2])
    vacuous = []
    for b, a in enumerate(matrices):
        for ell in (1, 2):
            base = {"matrix": a.digest(), "family": family.descriptor(), "ell": ell}
            instance = _LemmaInstance(batch, b, ell, base)
            oracle = lemma_suite_oracle(a, family, ell)
            assert list(instance) == oracle
            assert instance.aggregate() == aggregate_oracle(oracle, base)
            vacuous += [b for r in oracle
                        if r.check_id == "paley-zygmund" and r.status == "vacuous"]
    assert set(vacuous) == {0, 2}  # the largest entry of the third ties at (1, 1)


def test_instances_read_from_a_cell_batch_match_lone_calls():
    family = full_mapping_family(3, 2)
    matrices = [a for _, a in _cell_matrices(3, 2, seed=4)]
    tables = [build_hit_table(family, order_map(a)) for a in matrices]
    batch = _LemmaBatch(family, matrices, tables, [1, 3])
    c_pair = pairwise_constant(family).pairwise_bound
    for b, (a, table) in enumerate(zip(matrices, tables)):
        assert table._lemma_rows[c_pair] == (batch, b)
        for ell in (1, 3):
            from_batch = lemma_suite(a, family, ell, table=table, extra_inputs={"id": b})
            lone = lemma_suite(a, family, ell, extra_inputs={"id": b})
            assert list(from_batch) == list(lone)
            assert from_batch.aggregate() == lone.aggregate()
        assert table._lemma_rows[c_pair] == (batch, b)
    # an ell the batch does not cover is read from a new batch of one
    assert list(lemma_suite(matrices[0], family, 2, table=tables[0])) == list(
        lemma_suite(matrices[0], family, 2))
    assert tables[0]._lemma_rows[c_pair][0] is not batch


def test_another_matrix_on_a_batched_table_reads_its_own_entries():
    """lemma3.5 reads the entries of the matrix passed in, never the row a
    batch built from the table's own matrix."""
    family = symmetric_group(3)
    a = Matrix.from_rows([[4, 2, 1], [0.5, 3, 0], [1, 1, 6]])
    b = Matrix.from_rows([[0.25, 9, 1], [7, 0.125, 2], [1, 5, 3]])
    table = build_hit_table(family, order_map(a))
    _LemmaBatch(family, [a], [table], [1, 2, 3])
    for ell in (1, 2, 3):
        got = list(lemma_suite(b, family, ell, table=table))
        assert got == lemma_suite_oracle(b, family, ell, table=table)
        own = [r for r in lemma_suite(a, family, ell, table=table) if r.check_id == "lemma3.5"]
        assert [r for r in got if r.check_id == "lemma3.5"][0].lhs != own[0].lhs


# ---------------------------------------------------------------------------
# counted map tables past 2**63: map:16:16 has 2**64 members, map:20:20 about
# 10**26, so the tails and the counts leave the int64 range


def _dyadic_matrix(n, N, seed):
    rng = np.random.default_rng(seed)
    return Matrix(rng.integers(0, 64, (n, N)) / 2.0 ** rng.integers(0, 40, (n, N)))


def _row_hits(a):
    """c[m][i]: how many of the m largest positions lie in row i, m = 0..nN."""
    pairs = order_map(a).pairs
    c = [[0] * a.rows]
    for i, _ in pairs:
        c.append(list(c[-1]))
        c[-1][i - 1] += 1
    return c


def _product_hist(a):
    """The counted table's hist from the product over rows of
    (N - c_i(m)) + c_i(m) x, coefficient by coefficient in Python ints."""
    n, N = a.rows, a.cols
    tails = []  # tails[m][k] = #(X_m >= k)
    for c in _row_hits(a):
        poly = [1]
        for ci in c:
            poly = [(N - ci) * x + ci * y for x, y in zip(poly + [0], [0] + poly)]
        tails.append([sum(poly[k:]) for k in range(n + 1)])
    return [[0] * (n * N + 1)] + [
        [0] + [tails[m][k] - tails[m - 1][k] for m in range(1, n * N + 1)]
        for k in range(1, n + 1)]


@pytest.mark.parametrize("n", [16, 20])
def test_batch_tails_past_int64_equal_the_closed_forms(n):
    """#(X_m >= 1) = N**n - prod_i (N - c_i(m)) and #(X_m >= n) = prod_i c_i(m)
    for every m, as the batch's columns read them: lemma3.1's left sides
    and the ell = n less the ell = n - 1 rows of lemma3.4's right sides."""
    family, a = full_mapping_family(n, n), _dyadic_matrix(n, n, seed=n)
    table = build_hit_table(family, order_map(a), cap=10**30)
    batch = _LemmaBatch(family, [a], [table], range(1, n + 1))
    cols = {col.check_id: col for col in batch.columns}
    assert list(cols) == sorted(cols)
    at_least_one = cols["lemma3.1"].sides[0][0, 0].tolist()
    p, q = batch.c_pair.numerator, batch.c_pair.denominator
    plain = cols["lemma3.4"].sides[2][:, 0]
    all_hit = [(x - y) // (8 * q + 16 * p) for x, y in zip(plain[n - 1], plain[n - 2])]
    c = _row_hits(a)[1:]
    assert at_least_one == [n**n - math.prod(n - ci for ci in cm) for cm in c]
    assert all_hit == [math.prod(cm) for cm in c]
    assert max(at_least_one) >= 2**63 and max(all_hit) >= 2**63


def test_counted_table_past_int64_is_the_product_formula():
    a = _dyadic_matrix(20, 20, seed=3)
    got = build_hit_table(full_mapping_family(20, 20), order_map(a), cap=10**30)
    assert all(type(x) is int for x in got.hist.flat)
    assert got.hist.tolist() == _product_hist(a)
    assert got.hist.max() >= 2**63


@pytest.mark.parametrize("n", [16, 20])
def test_lemma_cli_past_int64_fails_no_check(tmp_path, capsys, n):
    path = tmp_path / "m.csv"
    rows = _dyadic_matrix(n, n, seed=n).entries.tolist()
    path.write_text("".join(",".join(map(repr, row)) + "\n" for row in rows))
    code = cli.main(["lemmas", "--family", f"map:{n}:{n}", "--matrix", str(path),
                     "--enum-cap", str(10**30), "--summary"])
    out = capsys.readouterr().out
    assert code == 0 and " fail: 0 " in out.splitlines()[0], out
