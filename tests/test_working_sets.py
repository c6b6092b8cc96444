"""The exact passes in bounded working memory, against the oracles.

Four passes drop copies that nothing reads again: a gathered block is
consumed for its flat positions, an enumerated hit table takes its ranks in
the narrowest integer type, a one-run family's exact lp takes its powers
``interpolation._LP_PIECE`` paths at a time, and a family file's JSON is
freed before its table is copied.  Every value keeps its bits, and each
pass's traced peak is pinned.
"""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from osb import interpolation, orderstats
from osb.families import (
    MEMBER_BLOCK_ROWS,
    explicit_family,
    full_mapping_family,
    load_family,
    symmetric_group,
)
from osb.interpolation import expected_lp_norm
from osb.matrices import Matrix, order_map
from osb.orderstats import _member_lookup, _top_record, build_hit_table, expected_top_sum_mc
from osb.reports import canonical_json

from oracles import (
    oracle_build_hit_table,
    oracle_expected_lp_norm,
    oracle_expected_top_sum_mc,
)

PS = [1.0, 1.5, 2.0, 3.0]


def _explicit(rows, n, N, seed):
    gen = np.random.default_rng(seed)
    return explicit_family(gen.integers(1, N + 1, (rows, n)), n, N)


# ---------------------------------------------------------------------------
# ranks in the narrowest integer type


@pytest.mark.parametrize("family,dtype", [
    (_explicit(40, 3, 85, 1), np.uint8),       # n * N = 255, the widest one-byte table
    (_explicit(40, 2, 128, 2), np.uint16),     # 256
    (_explicit(300, 2, 130, 3), np.uint16),
    (_explicit(MEMBER_BLOCK_ROWS + 9, 2, 130, 4), np.uint16),  # two gathered blocks
    (_explicit(50, 1, 70_000, 5), np.uint32),
    (symmetric_group(6), np.uint8),            # one run, through the path index
    (symmetric_group(8), np.uint8),            # gathered blocks of run groups
], ids=lambda x: x.descriptor() if hasattr(x, "descriptor") else np.dtype(x).name)
def test_enumerated_ranks_take_the_narrowest_type(family, dtype, monkeypatch):
    n, N = family.n, family.N
    gen = np.random.default_rng(N)
    # ties too: a few values repeated across the matrix
    a = Matrix(gen.integers(0, 7, (n, N)).astype(float))
    order = order_map(a)
    tables = []
    real = orderstats._path_blocks

    def recorded(table, family, cap):
        tables.append(table.dtype)
        return real(table, family, cap)

    monkeypatch.setattr(orderstats, "_path_blocks", recorded)
    got = build_hit_table(family, order)
    assert tables == [dtype]
    assert got.hist.dtype == np.int64
    assert np.array_equal(got.hist, oracle_build_hit_table(family, order).hist)


# ---------------------------------------------------------------------------
# the one-run lp in pieces


def _bits(values):
    return [v.value.hex() for v in values]


# member [1, 1, 1] takes only zeros; the others mix them with positives
_ZERO_PATH_ENTRIES = np.array([[0.0, 0.5, 2.0], [0.0, 1.25, 0.75], [0.0, 3.0, 0.25]])


def _family_with_a_zero_path():
    gen = np.random.default_rng(4)
    maps = gen.integers(1, 4, (40, 3))
    maps[[0, 17, 39]] = 1
    return explicit_family(maps, 3, 3)


@pytest.mark.parametrize("piece", [1, 3, 7, 8192])
@pytest.mark.parametrize("case", ["plain", "zero path", "rescaled above", "rescaled below"])
def test_pieces_keep_the_bits_of_one_take(case, piece, monkeypatch):
    family = _family_with_a_zero_path() if case == "zero path" else _explicit(40, 3, 3, 8)
    entries = {
        "plain": np.random.default_rng(1).uniform(0, 1, (3, 3)),
        "zero path": _ZERO_PATH_ENTRIES,
        # squares and cubes overflow, and the p = 1 sums stay finite
        "rescaled above": np.full((3, 3), 1e200) * np.arange(1, 10).reshape(3, 3),
        # powers underflow below the normal range
        "rescaled below": np.full((3, 3), 1e-120) * np.arange(1, 10).reshape(3, 3),
    }[case]
    a = Matrix(entries)
    want = _bits(expected_lp_norm(a, family, PS))
    assert want == _bits(oracle_expected_lp_norm(a, family, p) for p in PS)
    monkeypatch.setattr(interpolation, "_LP_PIECE", piece)
    b = Matrix(entries)  # a fresh matrix: no record is read
    assert _bits(expected_lp_norm(b, family, PS)) == want


def test_one_piece_is_one_take_and_more_are_joined(monkeypatch):
    family, a = _explicit(40, 3, 3, 8), Matrix(np.random.default_rng(2).uniform(0, 1, (3, 3)))
    takes, joined = [], []
    real_row_sums, real_concatenate = interpolation._row_sums, np.concatenate

    def row_sums(terms, shape):
        takes.append(shape)
        return real_row_sums(terms, shape)

    def concatenate(*args, **kwargs):
        joined.append(len(args[0]))
        return real_concatenate(*args, **kwargs)

    monkeypatch.setattr(interpolation, "_row_sums", row_sums)
    monkeypatch.setattr(interpolation.np, "concatenate", concatenate)
    expected_lp_norm(a, family, PS)
    assert (takes, joined) == ([(4, 40)], [])
    takes.clear()
    monkeypatch.setattr(interpolation, "_LP_PIECE", 16)
    expected_lp_norm(a, family, PS)
    assert (takes, joined) == ([(4, 16), (4, 16), (4, 8)], [3])


@pytest.mark.parametrize("piece", [2, 8192])
def test_an_overflowing_p1_sum_warns_or_raises_as_its_own_call(piece, monkeypatch):
    monkeypatch.setattr(interpolation, "_LP_PIECE", piece)
    # only the first member's path takes the two huge entries: its p = 1 sum
    # overflows, and every p > 1 norm, rescaled, stays finite, as does the
    # average of the norms
    family = explicit_family([[1, 1, 2], [2, 3, 1], [3, 2, 3], [2, 2, 2], [3, 3, 1],
                              [2, 2, 3], [3, 3, 3]], 3, 3)
    entries = np.random.default_rng(5).uniform(0, 1, (3, 3))
    entries[0, 0] = entries[1, 0] = 1e308
    a = Matrix(entries)
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            expected_lp_norm(a, family, PS)
        # the p > 1 norms are rescaled under any error state
        got = expected_lp_norm(a, family, PS[1:])
        assert all(math.isfinite(v.value) for v in got)
    with np.errstate(over="warn"), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = expected_lp_norm(a, family, PS)
    assert [w.category for w in caught] == [RuntimeWarning]
    assert got[0].value == math.inf
    assert _bits(got[1:]) == _bits(oracle_expected_lp_norm(a, family, p) for p in PS[1:])


# ---------------------------------------------------------------------------
# a Monte Carlo lookup with the consuming gather


@pytest.mark.parametrize("family", [full_mapping_family(3, 3), symmetric_group(4),
                                    _explicit(50, 3, 2, seed=3)],
                         ids=lambda f: f.descriptor())
def test_a_looked_up_estimate_keeps_its_bits(family):
    samples = 3000
    assert _member_lookup(family, samples) is not None
    a = Matrix(np.random.default_rng(family.n).integers(0, 4, (family.n, family.N)) / 4)
    for ell in range(1, family.n + 1):
        got = expected_top_sum_mc(a, family, ell, samples, seed=9)
        want = oracle_expected_top_sum_mc(a, family, ell, samples, seed=9)
        assert [got.value.hex(), *(v.hex() for v in got.per_k), got.stderr.hex()] == \
            [want.value.hex(), *(v.hex() for v in want.per_k), want.stderr.hex()]


# ---------------------------------------------------------------------------
# the working sets, pinned: each bound is the traced peak measured for the
# pass plus 25 %, below the 18.7, 14.0, 14.8 and 11.2 MB that full-width
# copies of the blocks, the powers or the family file's lists give, so a
# pass that brings one back fails


def _peak_mb(call) -> float:
    """The traced peak of ``call()`` above what was traced before it, in MB."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        call()
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        if started:
            tracemalloc.stop()


def _perm8():
    return np.array(list(itertools.permutations(range(1, 9))))


def test_the_sym9_hit_table_working_set():
    family = symmetric_group(9)
    order = order_map(Matrix(np.random.default_rng(9).uniform(0, 1, (9, 9))))
    assert _peak_mb(lambda: build_hit_table(family, order)) <= 6.1 * 1.25


def test_the_sym9_top_record_working_set():
    family = symmetric_group(9)
    a = Matrix(np.random.default_rng(9).uniform(0, 1, (9, 9)))
    assert _peak_mb(lambda: _top_record(a, family, None)) <= 9.5 * 1.25


def test_the_8_factorial_lp_working_set():
    family = explicit_family(_perm8(), 8, 8)
    assert family._path_index is not None  # built before the pass
    a = Matrix(np.random.default_rng(8).uniform(0, 1, (8, 8)))
    assert _peak_mb(lambda: expected_lp_norm(a, family, PS)) <= 3.8 * 1.25


def test_the_8_factorial_family_file_working_set(tmp_path):
    path = tmp_path / "perm8.json"
    path.write_text(canonical_json({"n": 8, "N": 8, "maps": _perm8().tolist()}) + "\n")
    assert _peak_mb(lambda: load_family(str(path))) <= 8.6 * 1.25
