"""The path index of a family enumerated as one run, against the oracles and
the run walk.

A family whose enumeration is one block of one run without prefix (an
explicit family of at most ``MEMBER_BLOCK_ROWS`` members, ``sym:n`` with
n <= 7, ``map:n:N`` whose table holds all n positions) keeps each member's
path as flat positions of an (n, N) table.  The exact top sums, the exact
lp norms and the enumerated hit table read it with one take.  Every value
must keep the bits of the per-ell and per-p oracles in ``oracles.py`` and of
the same call with the index withheld, which gathers the enumerated blocks
or walks the runs.
"""

import math

import numpy as np
import pytest

from osb import families, interpolation, orderstats
from osb.errors import ResourceError
from osb.families import (
    MEMBER_BLOCK_ROWS,
    explicit_family,
    full_mapping_family,
    require_enumerable,
    symmetric_group,
)
from osb.interpolation import expected_lp_norm
from osb.matrices import Matrix, order_map
from osb.orderstats import _top_sums, build_hit_table, expected_top_sum

from oracles import (
    oracle_build_hit_table,
    oracle_expected_lp_norm,
    oracle_expected_top_sum,
    oracle_member_blocks,
)

PS = [1.0, 1.5, 2.0, 3.0, 400.0, 2000.0]


def _explicit(rows, n, N, seed):
    """``rows`` members drawn with many duplicates from a few hundred maps."""
    gen = np.random.default_rng(seed)
    pool = gen.integers(1, N + 1, (min(rows, 300), n))
    return explicit_family(pool[gen.integers(0, pool.shape[0], rows)], n, N)


ONE_RUN = [
    *(full_mapping_family(n, 1) for n in (1, 3, 8, 130)),  # one member; n > 128 too
    full_mapping_family(1, 3),
    full_mapping_family(3, 4),
    full_mapping_family(6, 4),      # a lone table of 4,096 rows
    full_mapping_family(12, 2),     # 4,096 rows of 12 values: pairwise accumulators
    *(symmetric_group(n) for n in range(1, 8)),
    explicit_family([[1, 2, 3], [3, 3, 1], [2, 1, 2], [1, 2, 3]], 3, 3),
    _explicit(500, 9, 3, seed=9),
    _explicit(400, 12, 2, seed=12),
    _explicit(3, 9, 3, seed=9),     # so few paths that each one's last bit shows
    _explicit(2, 12, 2, seed=12),
    _explicit(MEMBER_BLOCK_ROWS, 3, 3, seed=3),
]

WALKED = [
    symmetric_group(8),                      # 8 runs of 5,040 rows
    full_mapping_family(7, 5),               # runs behind a prefix
    _explicit(MEMBER_BLOCK_ROWS + 1, 3, 3, seed=3),  # two blocks
]


def _ids(family):
    return f"{family.descriptor()}-{family.size}"


def _matrices(n, N):
    """Uniform entries; ties and zeros; entries near 1e200 and 1e-200, whose
    powers leave the float range at p >= 2 and p >= 1.5; 1e300 mixed with
    1e-300; and zeros."""
    gen = np.random.default_rng(1000 * n + N)
    return [Matrix(gen.uniform(0, 1, (n, N))),
            Matrix(gen.integers(0, 3, (n, N)).astype(float)),
            Matrix(gen.uniform(0.5, 1, (n, N)) * 1e200),
            Matrix(gen.uniform(0.5, 1, (n, N)) * 1e-200),
            Matrix(np.where(gen.random((n, N)) < 0.5, 1e300, 1e-300)),
            Matrix(np.zeros((n, N)))]


def _top_bits(results):
    return [(r.value.hex(), [v.hex() for v in r.per_k]) for r in results]


def _lp_bits(results):
    return [r.value.hex() for r in results]


def _estimates(a, family):
    """Every exact estimate the index serves, as comparable values."""
    n = family.n
    ells = range(1, n + 1)
    return {
        "every ell": _top_bits(_top_sums(a, family, ells, width=n)),
        "each ell": _top_bits(expected_top_sum(a, family, ell) for ell in ells),
        "lp": _lp_bits(expected_lp_norm(a, family, PS)),
        "hits": build_hit_table(family, order_map(a)).hist.tolist(),
    }


def _withheld(monkeypatch):
    """Route every exact pass as if no family had a path index."""
    def no_index(family, cap=None):
        require_enumerable(family, cap)

    monkeypatch.setattr(orderstats, "_one_run_index", no_index)
    monkeypatch.setattr(interpolation, "_one_run_index", no_index)


def _oracle_estimates(a, family):
    """The same values from the oracles: every ell of one pass is the head
    of the oracle's width-n pass, and its value their fsum."""
    n = family.n
    full = oracle_expected_top_sum(a, family, n).per_k
    return {
        "every ell": [(math.fsum(full[:ell]).hex(), [v.hex() for v in full[:ell]])
                      for ell in range(1, n + 1)],
        "each ell": _top_bits(oracle_expected_top_sum(a, family, ell)
                              for ell in range(1, n + 1)),
        "lp": _lp_bits(oracle_expected_lp_norm(a, family, p) for p in PS),
        "hits": oracle_build_hit_table(family, order_map(a)).hist.tolist(),
    }


@pytest.mark.parametrize("family", ONE_RUN, ids=_ids)
def test_one_run_families_have_an_index(family):
    index = family._path_index
    (block,) = oracle_member_blocks(family)
    assert index.dtype == np.int64 and index.shape == (family.size, family.n)
    assert np.array_equal(index, block - 1 + family.N * np.arange(family.n))


@pytest.mark.parametrize("family", WALKED + [
    full_mapping_family(1, MEMBER_BLOCK_ROWS + 1),  # one position, two blocks
    symmetric_group(12), full_mapping_family(20, 20),
], ids=_ids)
def test_other_families_have_none(family):
    assert family._path_index is None


@pytest.mark.parametrize("family", ONE_RUN + WALKED, ids=_ids)
def test_the_index_keeps_the_bits_of_the_oracles_and_the_walk(family, monkeypatch):
    for a in _matrices(family.n, family.N):
        got = _estimates(a, family)
        want = _oracle_estimates(a, family)
        for key in got:
            assert got[key] == want[key], key
        with monkeypatch.context() as m:
            _withheld(m)
            assert _estimates(a, family) == got


def test_the_index_is_read_only_and_built_once_per_family_object(monkeypatch):
    builds = []
    real = families.iter_member_arrays

    def counted(family, cap=None):
        builds.append(family.descriptor())
        return real(family, cap)

    monkeypatch.setattr(families, "iter_member_arrays", counted)
    monkeypatch.setattr(orderstats, "iter_member_arrays", counted)
    for make in (lambda: symmetric_group(5), lambda: full_mapping_family(3, 4),
                 lambda: _explicit(50, 4, 3, seed=4)):
        family = make()
        for a in _matrices(family.n, family.N)[:3]:
            _estimates(a, family)
        assert len(builds) == 1, builds
        index = family._path_index
        assert not index.flags.writeable
        with pytest.raises(ValueError):
            index[0, 0] = 0
        _estimates(_matrices(family.n, family.N)[0], make())  # a new object builds anew
        assert len(builds) == 2, builds
        builds.clear()


@pytest.mark.parametrize("family", [symmetric_group(4), full_mapping_family(3, 3),
                                    _explicit(30, 3, 3, seed=1)], ids=_ids)
def test_the_cap_is_checked_on_every_call_before_the_index_is_built(family, monkeypatch):
    def no_blocks(*args, **kwargs):
        raise AssertionError("the index was built")

    a = _matrices(family.n, family.N)[0]
    calls = [lambda cap: _top_sums(a, family, (1,), width=1, cap=cap),
             lambda cap: expected_lp_norm(a, family, PS, cap=cap)]
    if family.kind != families.KIND_FULL_MAPPING:
        calls.append(lambda cap: build_hit_table(family, order_map(a), cap=cap))
    with monkeypatch.context() as m:
        m.setattr(families, "iter_member_arrays", no_blocks)
        for call in calls:
            with pytest.raises(ResourceError, match="above the enumeration cap"):
                call(family.size - 1)
    assert "_path_index" not in vars(family)
    for call in calls:
        call(family.size)
    assert family._path_index is not None
    for call in calls:  # the cached index does not lift the cap
        with pytest.raises(ResourceError, match="above the enumeration cap"):
            call(family.size - 1)
