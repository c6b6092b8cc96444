"""Work done once per call or once per (matrix, family), against the slow
paths kept in ``oracles.py``.

- Exact top sums: every ell of a (matrix, family) pair reads one record,
  made by the first exact call's width-n pass and kept on the matrix.  Each
  ell must keep the bits of its own ell-wide pass (``oracle_expected_top_sum``),
  whatever order the ells and families are asked in, and the enumeration cap
  is still checked on every call.
- The exact lp of a one-run family does its bookkeeping once for all p, and
  ``verify_lp_bounds`` takes every p's head/tail bound from one pass: each
  value must be the one its own one-p call gives.
- CSV lines are joined by the package, taking text-cell quoting from ``csv``.
"""

import gc
import itertools
import math
import warnings
import weakref

import numpy as np
import pytest

from osb import orderstats
from osb.corpus import default_corpus
from osb.errors import DomainError, ResourceError
from osb.families import (
    FamilySpec,
    explicit_family,
    family_for_cell,
    full_mapping_family,
    symmetric_group,
)
from osb.interpolation import (
    expected_lp_norm,
    head_tail_bound,
    verify_lp_bounds,
)
from osb.matrices import Matrix
from osb.orderstats import _top_sums, expected_top_sum
from osb.reports import VerificationReport, reports_to_csv

from oracles import (
    oracle_expected_lp_norm,
    oracle_expected_top_sum,
    oracle_head_tail_bound,
    oracle_reports_to_csv,
    scaled_head_tail_bound,
)


def _bits(r):
    return r.value.hex(), [v.hex() for v in r.per_k], r.mode


def _fresh(a):
    """The same entries in a new matrix object, which holds no record."""
    return Matrix(a.entries.copy())


# ---------------------------------------------------------------------------
# exact top sums from one record per (matrix, family)


def _families(n, N):
    """The default corpus's map family of an (n, N) cell, its sym family on
    a square cell, and an explicit family of the map family's first seven
    members in reverse order, so that every cell has two families or more."""
    families = [family_for_cell(FamilySpec(kind), n, N) for kind in ("map", "sym")]
    first = list(itertools.islice(itertools.product(range(1, N + 1), repeat=n), 7))
    return [f for f in families if f is not None] + [explicit_family(first[::-1], n, N)]


@pytest.fixture(scope="module")
def corpus_cases():
    """For each default-corpus matrix: its families, the oracle's ell-wide
    pass for every (family, ell), and the head of the oracle's width-n pass
    for every ell, which the campaigns' every-ell call must give."""
    cases = []
    for cell in default_corpus():
        families = _families(cell.n, cell.N)
        for _, a in cell.matrices:
            each, full = {}, {}
            for k, family in enumerate(families):
                for ell in range(1, cell.n + 1):
                    each[k, ell] = _bits(oracle_expected_top_sum(a, family, ell))
                per_k = oracle_expected_top_sum(a, family, cell.n).per_k
                full[k] = [(math.fsum(per_k[:ell]).hex(), [v.hex() for v in per_k[:ell]],
                            "exact") for ell in range(1, cell.n + 1)]
            cases.append((a, families, each, full))
    return cases


@pytest.mark.parametrize("order", ["ascending", "descending", "interleaved"])
def test_every_corpus_ell_keeps_the_bits_of_its_own_pass(order, corpus_cases):
    for a, families, each, full in corpus_cases:
        b, n = _fresh(a), a.rows
        if order == "ascending":
            calls = [(k, ell) for k in range(len(families)) for ell in range(1, n + 1)]
        elif order == "descending":
            calls = [(k, ell) for k in range(len(families)) for ell in range(n, 0, -1)]
        else:  # the families take turns, so every call meets the others' records
            calls = [(k, ell) for ell in range(n, 0, -1) for k in range(len(families))]
        for k, ell in calls:
            assert _bits(expected_top_sum(b, families[k], ell)) == each[k, ell], (k, ell)
        assert len(b._top_records) == len(families)
        for k, family in enumerate(families):  # the campaigns' call reads the same record
            got = _top_sums(b, family, range(1, n + 1), width=n)
            assert [_bits(r) for r in got] == full[k], k


def _multi_run_matrices(n, N):
    gen = np.random.default_rng(56)
    return [Matrix(gen.uniform(0, 1, (n, N))),
            Matrix(gen.integers(0, 3, (n, N)).astype(float)),
            Matrix(np.where(gen.random((n, N)) < 0.5, 1e300, 1e-300))]


@pytest.mark.parametrize("family", [full_mapping_family(5, 6), full_mapping_family(2, 70),
                                    symmetric_group(8)], ids=lambda f: f.descriptor())
def test_multi_run_families_keep_the_bits_of_each_pass(family):
    for a in _multi_run_matrices(family.n, family.N):
        want = {ell: _bits(oracle_expected_top_sum(a, family, ell))
                for ell in range(1, family.n + 1)}
        for ells in (range(family.n, 0, -1), range(1, family.n + 1)):
            b = _fresh(a)
            for ell in ells:
                assert _bits(expected_top_sum(b, family, ell)) == want[ell], ell


def test_one_pass_per_matrix_and_family(monkeypatch):
    passes = []
    real = orderstats._path_blocks

    def counted(table, family, cap):
        passes.append(family.descriptor())
        return real(table, family, cap)

    monkeypatch.setattr(orderstats, "_path_blocks", counted)
    a = Matrix(np.random.default_rng(3).uniform(0, 1, (3, 3)))
    fam, sym = full_mapping_family(3, 3), symmetric_group(3)
    for ell in (2, 1, 3):
        expected_top_sum(a, fam, ell)
        expected_top_sum(a, sym, ell)
    _top_sums(a, fam, (1, 2, 3), width=3)
    assert passes == ["map:3:3", "sym:3"]
    # an equal family object reads the same record; another matrix makes its own
    expected_top_sum(a, full_mapping_family(3, 3), 1)
    expected_top_sum(_fresh(a), fam, 1)
    assert passes == ["map:3:3", "sym:3", "map:3:3"]
    assert not any(record.flags.writeable for record in a._top_records.values())


def test_a_record_keeps_no_builtin_family_alive():
    a = Matrix(np.random.default_rng(5).uniform(0, 1, (3, 3)))
    fam = full_mapping_family(3, 3)
    expected_top_sum(a, fam, 2)
    gone = weakref.ref(fam)
    del fam
    gc.collect()
    assert gone() is None and len(a._top_records) == 1


def test_an_equal_explicit_family_shares_the_record_and_another_does_not():
    a = Matrix(np.random.default_rng(4).uniform(0, 1, (2, 3)))
    fam = explicit_family([[1, 2], [3, 3], [2, 1]], 2, 3)
    other = explicit_family([[3, 3], [1, 2], [2, 1]], 2, 3)  # same members, other order
    for f in (fam, explicit_family([[1, 2], [3, 3], [2, 1]], 2, 3), other):
        for ell in (1, 2):
            assert _bits(expected_top_sum(a, f, ell)) == _bits(oracle_expected_top_sum(a, f, ell))
    assert len(a._top_records) == 2


@pytest.mark.parametrize("family", [full_mapping_family(2, 3), symmetric_group(4),
                                    full_mapping_family(5, 6),
                                    explicit_family([[1, 2], [2, 1], [1, 1]], 2, 2)],
                         ids=lambda f: f.descriptor())
def test_a_kept_record_is_refused_below_the_cap(family, monkeypatch):
    a = _multi_run_matrices(family.n, family.N)[0]
    expected_top_sum(a, family, 1)
    assert len(a._top_records) == 1
    monkeypatch.setenv("OSB_ENUM_CAP", str(family.size - 1))
    for call in (lambda: expected_top_sum(a, family, 1),
                 lambda: expected_top_sum(a, family, family.n),
                 lambda: _top_sums(a, family, (1,), width=family.n)):
        with pytest.raises(ResourceError, match="above the enumeration cap"):
            call()
    monkeypatch.delenv("OSB_ENUM_CAP")
    with pytest.raises(ResourceError, match="above the enumeration cap"):
        _top_sums(a, family, (1,), width=1, cap=family.size - 1)
    assert _top_sums(a, family, (1,), width=1, cap=family.size)[0].value == \
        oracle_expected_top_sum(a, family, 1).value


def test_out_of_range_ells_and_shapes_are_refused_on_a_kept_record():
    a = Matrix(np.ones((2, 2)))
    fam = full_mapping_family(2, 2)
    expected_top_sum(a, fam, 2)
    for ell in (0, 3):
        with pytest.raises(DomainError, match="out of range"):
            expected_top_sum(a, fam, ell)
    with pytest.raises(DomainError, match="family maps"):
        expected_top_sum(a, full_mapping_family(2, 3), 1)


# ---------------------------------------------------------------------------
# the exact lp of a one-run family, every p from one call

LP_FAMILIES = [
    full_mapping_family(1, 3), full_mapping_family(3, 3), full_mapping_family(2, 4),
    full_mapping_family(9, 2),    # 9 positions: numpy's eight accumulators
    full_mapping_family(130, 1),  # more than 128 positions
    symmetric_group(3), symmetric_group(5),
    explicit_family([[1, 2, 3], [3, 3, 1], [2, 1, 2]], 3, 3),
    full_mapping_family(2, 70),   # walked, not one run
]

P_LISTS = [
    [1.0, 1.5, 2.0, 3.0], [1.5, 1.0, 3.0], [2.0, 3.0, 1.0], [1.0], [2.0],
    [400.0, 1.0, 2000.0], [3.0, 1.5, 2.0], [1.0, 1.0, 2.0],
]


def _lp_matrices(n, N):
    """Uniform entries; entries near 1e-160 and 1e160, whose squares leave
    the normal range; 1e300 mixed with 1e-300; a grid with zeros, so some
    paths are all zero; and the zero matrix."""
    gen = np.random.default_rng(100 * n + N)
    return [Matrix(gen.uniform(0, 1, (n, N))),
            Matrix(gen.uniform(0.5, 1, (n, N)) * 1e-160),
            Matrix(gen.uniform(0.5, 1, (n, N)) * 1e160),
            Matrix(np.where(gen.random((n, N)) < 0.5, 1e300, 1e-300)),
            Matrix(gen.integers(0, 2, (n, N)).astype(float)),
            Matrix(np.zeros((n, N)))]


@pytest.mark.parametrize("family", LP_FAMILIES, ids=lambda f: f.descriptor())
def test_every_p_of_one_call_keeps_the_bits_of_its_own_call(family):
    for a in _lp_matrices(family.n, family.N):
        one = {q: expected_lp_norm(a, family, q).value.hex()
               for q in {q for ps in P_LISTS for q in ps}}
        for q in one:
            assert one[q] == oracle_expected_lp_norm(a, family, q).value.hex(), q
        for ps in P_LISTS:
            got = [r.value.hex() for r in expected_lp_norm(a, family, ps)]
            assert got == [one[q] for q in ps], ps


def _outcome(call):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = call()
        except (FloatingPointError, OverflowError) as e:
            value = (type(e).__name__, str(e))
    return value, [str(w.message) for w in caught]


@pytest.mark.parametrize("state", ["raise", "warn"])
@pytest.mark.parametrize("family", [full_mapping_family(2, 2), full_mapping_family(9, 1)],
                         ids=lambda f: f.descriptor())
def test_an_overflowing_p1_sum_raises_or_warns_as_its_own_call(family, state):
    a = Matrix(np.full((family.n, family.N), 1e308))
    # the one-p call overflows where the oracle's sum of the gathered paths does
    with np.errstate(over=state):
        if state == "raise":
            for call in (oracle_expected_lp_norm, expected_lp_norm):
                with pytest.raises(FloatingPointError, match="overflow encountered"):
                    call(a, family, 1.0)
        else:
            with pytest.warns(RuntimeWarning, match="overflow encountered"):
                assert expected_lp_norm(a, family, 1.0).value == math.inf
    for ps in ([1.0], [1.5, 1.0], [1.0, 2.0], [3.0, 1.0, 1.5]):
        def one_by_one():
            return [expected_lp_norm(a, family, q).value for q in ps]

        def all_p():
            return [r.value for r in expected_lp_norm(a, family, ps)]

        with np.errstate(over=state, invalid=state):
            assert _outcome(all_p) == _outcome(one_by_one), ps


# ---------------------------------------------------------------------------
# the head/tail bound of every p from one pass


@pytest.mark.parametrize("shape", [(1, 3), (2, 2), (3, 4), (5, 5), (2, 1300)])
def test_every_p_head_tail_bound_keeps_the_bits_of_its_own_call(shape):
    ps = [1.0, 1.5, 2.0, 3.0, 400.0, 2000.0]
    for a in _lp_matrices(*shape):
        rows = a.entries.tolist()
        got = head_tail_bound(a, ps)
        for q, bound in zip(ps, got):
            want = oracle_head_tail_bound(a, q)
            assert bound.hex() == want.hex() == head_tail_bound(a, q).hex(), q
            # at p = 1.5 numpy's power of entries near 1e-160 puts the
            # unscaled bound about 100 ulps from the scaled oracle's
            assert bound == pytest.approx(scaled_head_tail_bound(rows, q), rel=1e-12, abs=0)
        for order in (ps[::-1], [2.0, 1.0, 3.0]):
            assert head_tail_bound(a, order) == [got[ps.index(q)] for q in order]


def test_verify_lp_bounds_keeps_the_reports_of_one_p_calls():
    family = full_mapping_family(2, 3)
    ps = [2.0, 1.0, 3.0, 1.5]
    for a in _lp_matrices(2, 3):
        want = [r for q in ps for r in verify_lp_bounds(a, family, q, extra_inputs={"id": "m"})]
        assert verify_lp_bounds(a, family, ps, extra_inputs={"id": "m"}) == want
        for q, (upper, lower) in zip(ps, zip(want[::2], want[1::2])):
            assert upper.rhs == oracle_head_tail_bound(a, q)
            assert upper.lhs == oracle_expected_lp_norm(a, family, q).value
    a = _lp_matrices(2, 3)[0]
    mc = verify_lp_bounds(a, family, ps, samples=64, seed=3)
    assert mc == [r for q in ps for r in verify_lp_bounds(a, family, q, samples=64, seed=3)]
    assert all(r.inputs["samples"] == 64 and r.inputs["seed"] == 3 for r in mc)


# ---------------------------------------------------------------------------
# CSV lines joined by the package


TEXTS = ["plain", "a,b", 'q"uote', "cr\rmid", "lf\nmid", "crlf\r\n", "\r", "", " lead",
         'all,"\r\n', "é"]


def test_csv_text_cells_are_quoted_as_csv_quotes_them():
    reports = []
    for i, text in enumerate(TEXTS):
        for j, other in enumerate(TEXTS):
            reports.append(VerificationReport(
                check_id=text, inputs={"s": other, "i": i, "j": j}, lhs=0.5, rhs=float(j),
                margin=-1.5, status=other, direction=text, mode=other,
                constant=None if j % 2 else 2.0, stderr=None if i % 2 else 1e-3,
                extra={} if j % 3 else {"note": text + other},
            ))
    assert reports_to_csv(reports) == oracle_reports_to_csv(reports)
    assert reports_to_csv(reports[:1]) == oracle_reports_to_csv(reports[:1])
    assert reports_to_csv([]) == oracle_reports_to_csv([])
