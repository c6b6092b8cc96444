"""The one-pass top-sum estimator against the per-ell estimators it replaced.

``_top_sums`` serves every requested ell from one ``width``-wide top block per
enumerated block or draw chunk.  Each estimate must keep the bits of the
per-ell estimators in ``oracles.py``: its own ell-wide pass, except an exact
ell = 1 from a wider pass, which is the first column of that pass (the
``verify-main`` campaign's ell = n pass).
"""

import math

import numpy as np
import pytest

from osb import orderstats
from osb.campaigns import run_verify_main
from osb.corpus import CorpusSpec, generate_corpus
from osb.families import FamilySpec, family_for_cell, full_mapping_family, symmetric_group
from osb.matrices import Matrix, order_map, reduce_to_top
from osb.orderstats import (
    _MC_CHUNK,
    _NETWORK_COMPARATORS,
    _NETWORK_MIN_ROWS,
    _top_sums,
    expected_top_sum,
    expected_top_sum_mc,
)

from oracles import oracle_expected_top_sum, oracle_expected_top_sum_mc

MAP = FamilySpec("map")
SYM = FamilySpec("sym")


def _bits(r):
    stderr = None if r.stderr is None else r.stderr.hex()
    return (r.value.hex(), tuple(v.hex() for v in r.per_k), r.mode, r.samples, stderr)


def _want(a, family, ell, width, samples, seed):
    """The per-ell estimate that ell of a width-wide pass must reproduce."""
    if samples is not None:
        return oracle_expected_top_sum_mc(a, family, ell, samples, seed)
    if ell == 1 and width > 1:
        full = oracle_expected_top_sum(a, family, width)
        return orderstats.OrderStatResult(
            value=math.fsum(full.per_k[:1]), per_k=full.per_k[:1], mode="exact")
    return oracle_expected_top_sum(a, family, ell)


def _matrices(n, N):
    rng = np.random.default_rng(10 * n + N)
    # uniform entries, and a small integer grid with ties and zeros
    return [Matrix(rng.uniform(0, 1, (n, N))),
            Matrix(rng.integers(0, 3, (n, N)).astype(float))]


def _comparators(n, width):
    passes = min(width, n - 1)
    return passes * (2 * n - 1 - passes) // 2


# (family, samples): both sides of the top-ell kernel, n = 1 cells, and a
# Monte Carlo run of more than one chunk
CASES = [
    (symmetric_group(4), None),                  # 24 rows: sorted
    (full_mapping_family(3, 4), None),           # 64 rows: sorted
    (full_mapping_family(5, 5), None),           # 3,125 rows: network
    (full_mapping_family(8, 3), None),           # 6,561 rows; width 8 sorted
    (full_mapping_family(1, 3), None),           # n = 1
    (symmetric_group(1), None),
    (symmetric_group(5), 1000),                  # draws below the network rows
    (symmetric_group(5), 5000),                  # network
    (symmetric_group(8), 5000),                  # width 8 sorted, ell 2..4 network
    (full_mapping_family(1, 3), 3000),           # n = 1
    (full_mapping_family(3, 2), 2 * _MC_CHUNK + 5),  # three chunks
]


def _case_id(case):
    family, samples = case
    return f"{family.descriptor()}-{'exact' if samples is None else samples}"


def test_cases_cover_both_sides_of_the_top_ell_kernel():
    rows = [family.size if samples is None else min(samples, _MC_CHUNK)
            for family, samples in CASES]
    wide = [_comparators(f.n, f.n) > _NETWORK_COMPARATORS for f, _ in CASES]
    assert any(r < _NETWORK_MIN_ROWS for r in rows)
    assert any(r >= _NETWORK_MIN_ROWS and not w for r, w in zip(rows, wide))
    assert any(r >= _NETWORK_MIN_ROWS and w for r, w in zip(rows, wide))
    assert any(f.n == 1 for f, _ in CASES)
    assert any(s is not None and s > 2 * _MC_CHUNK for _, s in CASES)


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_one_pass_keeps_the_bits_of_the_per_ell_estimators(case):
    family, samples = case
    n, seed = family.n, 3
    requests = [(tuple(range(1, n + 1)), n), ((1,), 1), ((1,), n)]
    if n >= 2:
        requests += [((2,), 2), ((2,), n), ((1, n), n)]
    for a in _matrices(n, family.N):
        for ells, width in requests:
            got = _top_sums(a, family, ells, width=width, samples=samples, seed=seed)
            assert len(got) == len(ells)
            for ell, r in zip(ells, got):
                want = _want(a, family, ell, width, samples, seed)
                assert _bits(r) == _bits(want), (ells, width, ell)


@pytest.mark.parametrize("ell", [1, 2])
def test_public_estimators_are_their_own_ell_wide_pass(ell):
    family = full_mapping_family(3, 3)
    a = _matrices(3, 3)[0]
    assert _bits(expected_top_sum(a, family, ell)) == _bits(
        oracle_expected_top_sum(a, family, ell))
    assert _bits(expected_top_sum_mc(a, family, ell, 3000, 4)) == _bits(
        oracle_expected_top_sum_mc(a, family, ell, 3000, 4))


def _campaign_corpus():
    cells = ((1, 3), (2, 2), (3, 3), (4, 4))
    return generate_corpus(
        [CorpusSpec(cells=cells, matrices_per_cell=2, distribution="uniform", seed=3),
         CorpusSpec(cells=cells, matrices_per_cell=1, distribution="sparse", seed=3)],
        seed=3,
    )


@pytest.mark.parametrize("samples", [None, 3000], ids=["exact", "mc"])
@pytest.mark.parametrize("ell_range", [None, (1, 1), (2, 2)], ids=["all", "1..1", "2..2"])
@pytest.mark.parametrize("reduce_top", [False, True], ids=["plain", "reduce"])
def test_campaign_estimates_match_the_per_ell_estimators(samples, ell_range,
                                                         reduce_top):
    corpus, seed = _campaign_corpus(), 9
    for spec in (MAP, SYM):
        reports = run_verify_main(corpus, spec, ell_range, reduce_top=reduce_top,
                                  samples=samples, seed=seed)
        expected_rows = 0
        for cell in corpus:
            family = family_for_cell(spec, cell.n, cell.N)
            if family is not None:
                lo, hi = ell_range or (1, cell.n)
                expected_rows += len(cell.matrices) * len(range(lo, min(hi, cell.n) + 1))
        upper = [r for r in reports if r.check_id == "thm1.1/upper"]
        assert len(upper) == expected_rows
        matrices = {(f"{c.n}x{c.N}", mid): (c, a)
                    for c in corpus for mid, a in c.matrices}
        for r in reports:
            cell, a = matrices[(r.inputs["cell"], r.inputs["id"])]
            family = family_for_cell(spec, cell.n, cell.N)
            ell = r.inputs["ell"]
            assert ("samples" in r.inputs) == (samples is not None)
            if r.check_id == "thm1.1/upper":
                want = _want(a, family, ell, cell.n, samples, seed)
                got = r.lhs
            else:
                if reduce_top:
                    a = reduce_to_top(a, order_map(a), ell)
                want = _want(a, family, ell, ell if reduce_top else cell.n,
                             samples, seed)
                got = r.rhs
            assert got.hex() == want.value.hex(), (r.check_id, r.inputs)
            assert r.stderr == want.stderr and r.mode == want.mode


def test_mc_campaign_draws_each_chunk_once_per_matrix(monkeypatch):
    corpus = _campaign_corpus()
    draws = []
    real = orderstats.sample_array

    def counting(*args, **kwargs):
        draws.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(orderstats, "sample_array", counting)
    samples = _MC_CHUNK + 3
    run_verify_main(corpus, MAP, samples=samples, seed=1)
    matrices = sum(len(cell.matrices) for cell in corpus)
    assert len(draws) == math.ceil(samples / _MC_CHUNK) * matrices
