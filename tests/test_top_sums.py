"""The one-pass top-sum estimator against the per-ell estimators it replaced.

``_top_sums`` serves every requested ell from one ``width``-wide top block per
enumerated block or draw chunk.  Each estimate must keep the bits of the
per-ell estimators in ``oracles.py``: its own ell-wide pass, except an exact
ell = 1 from a wider pass, which is the first column of that pass (the
``verify-main`` campaign's ell = n pass).  On small families a Monte Carlo
estimate looks each draw's values up; the same estimate with every draw
computed is its oracle.
"""

import math

import numpy as np
import pytest

from osb import families, orderstats, rng
from osb.campaigns import run_verify_main
from osb.corpus import CorpusSpec, generate_corpus
from osb.errors import ResourceError
from osb.families import (
    FamilySpec,
    explicit_family,
    family_for_cell,
    full_mapping_family,
    sample_array,
    symmetric_group,
)
from osb.interpolation import expected_lp_norm
from osb.matrices import Matrix, order_map, reduce_to_top
from osb.orderstats import (
    _MC_CHUNK,
    _top_sums,
    expected_top_sum,
    expected_top_sum_mc,
)
from osb.reports import reports_to_json

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


# (family, samples): exact passes and Monte Carlo draws computed one by one
# (the draws are fewer than the maps) or looked up, n = 1 cells, and a Monte
# Carlo run of more than one chunk
CASES = [
    (symmetric_group(4), None),                  # 24 rows
    (full_mapping_family(3, 4), None),           # 64 rows
    (full_mapping_family(5, 5), None),           # 3,125 rows
    (full_mapping_family(8, 3), None),           # 6,561 rows
    (full_mapping_family(1, 3), None),           # n = 1
    (symmetric_group(1), None),
    (symmetric_group(5), 1000),
    (symmetric_group(5), 5000),
    (symmetric_group(8), 5000),
    (full_mapping_family(1, 3), 3000),           # n = 1
    (full_mapping_family(3, 2), 2 * _MC_CHUNK + 5),  # three chunks
]


def _case_id(case):
    family, samples = case
    return f"{family.descriptor()}-{'exact' if samples is None else samples}"


def test_cases_cover_both_sides_of_the_top_ell_kernel():
    # both sides: exact and Monte Carlo, and draws computed and looked up
    assert any(s is None for _, s in CASES)
    looked_up = [orderstats._member_lookup(f, s) is not None for f, s in CASES if s]
    assert any(looked_up) and not all(looked_up)
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


# ---------------------------------------------------------------------------
# Monte Carlo on a family with N**n <= min(samples, MEMBER_BLOCK_ROWS) looks
# each draw's values up in tables computed once from the members; computing
# every draw, as on larger families, is its oracle.


def _per_draw_estimates(monkeypatch, estimate):
    """``estimate()`` with the member lookup switched off."""
    with monkeypatch.context() as m:
        m.setattr(orderstats, "_member_lookup", lambda family, samples: None)
        return estimate()


def _lp_bits(e):
    return (e.value.hex(), e.stderr.hex(), e.mode, e.samples)


LOOKUP_FAMILIES = [
    *(symmetric_group(n) for n in range(1, 7)),
    full_mapping_family(8, 2),
    full_mapping_family(16, 2),                  # N**n = 65,536
    full_mapping_family(8, 4),                   # N**n = 65,536; ell = 8 row sums
    explicit_family([[1, 2, 3], [3, 3, 1], [1, 2, 3], [2, 1, 2], [1, 2, 3]], 3, 3),
    explicit_family([[1, 2], [2, 2], [3, 1]] * 4, 2, 3),  # 12 members, N**n = 9
]


def _lookup_bound(family):
    """The fewest draws that the lookup applies to: N**n, or the member
    count of an explicit family with more members."""
    return max(family.N ** family.n, family.size)


def _lookup_samples(family):
    """Draw counts at the lookup's bound and one below it, where each draw
    is computed, and over more than two chunks."""
    bound = _lookup_bound(family)
    return [s for s in (max(bound, 2), bound - 1, 2 * _MC_CHUNK + 5) if s >= 2]


@pytest.mark.parametrize("family", LOOKUP_FAMILIES, ids=lambda f: f.descriptor())
def test_looked_up_draws_keep_the_bits_of_computed_draws(family, monkeypatch):
    n, seed = family.n, 5
    requests = [(tuple(range(1, n + 1)), n), ((1,), 1), ((1, n), n), ((n,), n)]
    for samples in _lookup_samples(family):
        looked_up = orderstats._member_lookup(family, samples) is not None
        assert looked_up == (_lookup_bound(family) <= samples)
        for a in _matrices(n, family.N):
            for ells, width in requests:
                def top():
                    return _top_sums(a, family, ells, width=width, samples=samples,
                                     seed=seed)
                got, want = top(), _per_draw_estimates(monkeypatch, top)
                assert [_bits(r) for r in got] == [_bits(r) for r in want], \
                    (samples, ells, width)
            for p in (1.0, 1.5, 400.0):  # p = 400 scales most rows
                def lp():
                    return expected_lp_norm(a, family, p, samples=samples, seed=seed)
                assert _lp_bits(lp()) == _lp_bits(_per_draw_estimates(monkeypatch, lp)), \
                    (samples, p)


@pytest.mark.parametrize("reduce_top", [False, True], ids=["plain", "reduce"])
def test_mc_campaign_keeps_its_bytes_with_the_lookup(reduce_top, monkeypatch):
    corpus = _campaign_corpus()

    def campaign():
        return reports_to_json(run_verify_main(corpus, MAP, reduce_top=reduce_top,
                                               samples=3000, seed=2))

    assert campaign() == _per_draw_estimates(monkeypatch, campaign)


def _outcome(estimate, state):
    """What an estimate gives with overflow and invalid operations raised,
    as on the command line, or ignored."""
    try:
        with np.errstate(over=state, invalid=state):
            r = estimate()
    except FloatingPointError as e:
        return "raises", str(e)
    return "returns", r.value.hex(), r.stderr.hex()


@pytest.mark.parametrize("state", ["raise", "ignore"])
def test_non_finite_member_values_compute_every_draw(state, monkeypatch):
    # the top-3 sums and p = 1 norms of the paths overflow, and so do the
    # p = 2 norms of their scaled rows
    family, samples = full_mapping_family(3, 2), 100
    a = Matrix(np.array([[9.0, 8.0], [7.0, 6.0], [5.0, 4.0]]) * 1e307)
    assert orderstats._member_lookup(family, samples) is not None
    estimates = [
        lambda: expected_top_sum_mc(a, family, 3, samples, 1),
        lambda: _top_sums(a, family, (1, 3), width=3, samples=samples, seed=1)[1],
        lambda: expected_lp_norm(a, family, 1.0, samples=samples, seed=1),
        lambda: expected_lp_norm(a, family, 2.0, samples=samples, seed=1),
    ]
    outcomes = [_outcome(e, state) for e in estimates]
    assert outcomes == [_outcome(lambda: _per_draw_estimates(monkeypatch, e), state)
                        for e in estimates]
    assert {o[0] for o in outcomes} == {"raises" if state == "raise" else "returns"}


def test_tables_with_a_non_finite_value_are_not_used():
    family = full_mapping_family(2, 2)
    for bad in (np.inf, np.nan):
        def stats(block, bad=bad):
            return {"v": np.where(block[:, 0] == 2, bad, 1.0)}
        assert orderstats._draw_stats(family, 10, stats) is stats

    def ones(block):
        return {"v": np.ones(len(block))}

    lookup = orderstats._draw_stats(family, 10, ones)
    assert lookup is not ones
    assert lookup(sample_array(family, 0, 10))["v"].tolist() == [1.0] * 10


@pytest.mark.parametrize("samples", [65536, 65537, 2 * _MC_CHUNK + 5])
def test_mc_lp_norm_draws_each_chunk_once(samples, monkeypatch):
    family = full_mapping_family(3, 3)
    assert orderstats._member_lookup(family, samples) is not None
    draws = []
    real = orderstats.sample_array

    def counting(*args, **kwargs):
        draws.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(orderstats, "sample_array", counting)
    expected_lp_norm(_matrices(3, 3)[0], family, 2.0, samples=samples, seed=3)
    assert len(draws) == math.ceil(samples / 65536)


@pytest.mark.parametrize("family", [full_mapping_family(3, 3), symmetric_group(5)],
                         ids=lambda f: f.descriptor())
@pytest.mark.parametrize("samples", [65536, _MC_CHUNK + 1, 2 * _MC_CHUNK + 5])
def test_mc_top_sums_draw_rows_from_words_each_chunk(family, samples, monkeypatch):
    # the lookup still draws each chunk's rows from the sampler's words
    assert orderstats._member_lookup(family, samples) is not None
    draws, words = [], []
    real_sample, real_words = orderstats.sample_array, rng.words

    def counting_sample(*args, **kwargs):
        draws.append(args)
        return real_sample(*args, **kwargs)

    def counting_words(*args, **kwargs):
        words.append(args)
        return real_words(*args, **kwargs)

    monkeypatch.setattr(orderstats, "sample_array", counting_sample)
    monkeypatch.setattr(rng, "words", counting_words)
    a = _matrices(family.n, family.N)[0]
    expected_top_sum_mc(a, family, 2, samples, 3)
    assert len(draws) == math.ceil(samples / _MC_CHUNK)
    assert len(words) >= len(draws)


def _awkward_values(rows, width, gen):
    """Values with ties, zeros of both signs, subnormals and magnitudes
    1e-300 to 1e300 mixed in one column; column 0 is -0.0 alone."""
    pool = np.array([0.0, -0.0, 1.0, 1.0, -1.0, 0.1, 3.5, 5e-324, -5e-324,
                     2.0**-1060, 2.2250738585072014e-308, 1e-300, -1e-300,
                     1e300, -1e300, 7e299])
    values = gen.choice(pool, size=(rows, width))
    values[:, 0] = -0.0
    return values


@pytest.mark.parametrize("width", range(2, 12))
def test_looked_up_column_sums_keep_the_running_sums_of_the_block_sums(width):
    # the lookup adds each column by its running sum, in the order
    # sum(axis=0) adds a C-contiguous block; only an all -0.0 column's sum
    # differs, and a total started at +0.0 absorbs it
    family = full_mapping_family(2, 3)
    values = _awkward_values(family.size, width, np.random.default_rng(width))
    weights = np.array([3, 1])

    def stats(block):
        return {"top": values[block @ weights - 4]}

    lookup = orderstats._draw_stats(family, 100_000, stats)
    assert lookup is not stats
    looked_up, summed = np.zeros(width), np.zeros(width)
    for start, count in [(0, 1), (1, 2), (3, 16385), (16388, 100_000)]:
        block = sample_array(family, width, count, start)
        got, want = lookup(block)["top"], stats(block)["top"]
        assert want.flags.c_contiguous and got.shape == (width,)
        looked_up += got
        summed += want.sum(axis=0)
        assert [v.hex() for v in looked_up] == [v.hex() for v in summed], (start, count)
    assert summed[0].hex() == "0x0.0p+0"


# ---------------------------------------------------------------------------
# An exact pass over a map family whose runs put a prefix before the shared
# table reads the runs: the table's sorted suffix columns with each prefix
# value inserted.  The per-ell estimators on gathered blocks are its oracle.


def _run_matrices(n, N):
    """Uniform entries; ties and zeros; and subnormals, 1e-300 and 1e300
    mixed with ties and zeros."""
    gen = np.random.default_rng(100 * n + N)
    pool = np.array([0.0, 0.0, 1.0, 1.0, 0.1, 5e-324, 2.0**-1060,
                     2.2250738585072014e-308, 1e-300, 1e300, 7e299])
    return [Matrix(gen.uniform(0, 1, (n, N))),
            Matrix(gen.integers(0, 3, (n, N)).astype(float)),
            Matrix(gen.choice(pool, size=(n, N)))]


def _assert_runs_keep_the_oracle_bits(family, widths):
    n = family.n
    for a in _run_matrices(n, family.N):
        wanted = {w: oracle_expected_top_sum(a, family, w) for w in widths}
        for w in widths:
            assert _bits(_top_sums(a, family, (w,), width=w)[0]) == _bits(wanted[w]), w
        if n in wanted:  # every ell of the campaigns' ell = n pass
            full = _top_sums(a, family, tuple(range(1, n + 1)), width=n)
            for ell, r in zip(range(1, n + 1), full):
                want = wanted[n].per_k[:ell] if ell == 1 or ell not in wanted \
                    else wanted[ell].per_k
                assert [v.hex() for v in r.per_k] == [v.hex() for v in want], ell
                assert r.value.hex() == math.fsum(want).hex(), ell


def _takes_the_runs(family):
    return (family.kind == families.KIND_FULL_MAPPING
            and families._map_table_width(family.n, family.N) < family.n)


class TestTopSumsByRuns:
    # map:7:8: 512 runs of 4,096 rows, 16 a block; map:6:6 and map:5:9: one
    # short block of 36 and 81 runs; map:7:5: 25 runs of 3,125, one of them
    # cut by the block end
    FAMILIES = [full_mapping_family(7, 8), full_mapping_family(6, 6),
                full_mapping_family(7, 5), full_mapping_family(5, 9)]

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.descriptor())
    def test_every_width_keeps_the_bits_of_the_gathered_blocks(self, family):
        assert _takes_the_runs(family)
        _assert_runs_keep_the_oracle_bits(family, range(1, family.n + 1))

    @pytest.mark.parametrize("rows", [1, 7, 1000, 4097])
    def test_blocks_of_any_size(self, rows, monkeypatch):
        # map:5:6 is 6 runs of 1,296 rows: blocks of 1 and 7 rows cut every
        # run, 1,000 and 4,097 cut some and put up to four in one block
        monkeypatch.setattr(families, "MEMBER_BLOCK_ROWS", rows)
        family = full_mapping_family(5, 6)
        widths = (1, 2, 5) if rows < 10 else range(1, 6)
        _assert_runs_keep_the_oracle_bits(family, widths)

    @pytest.mark.parametrize("rows", [7, 65_536])
    def test_one_table_value_after_many_prefix_values(self, rows, monkeypatch):
        # with three-row tables, map:5:3 inserts four prefix values into one
        # suffix column, and each width drops a different count of columns
        monkeypatch.setattr(families, "_MAP_TABLE_ROWS", 3)
        monkeypatch.setattr(families, "MEMBER_BLOCK_ROWS", rows)
        family = full_mapping_family(5, 3)
        assert families._map_table_width(5, 3) == 1
        _assert_runs_keep_the_oracle_bits(family, range(1, 6))

    def test_nothing_is_gathered(self, monkeypatch):
        def no_blocks(*args, **kwargs):
            raise AssertionError("a member block was built or gathered")

        family = full_mapping_family(7, 5)
        a = _run_matrices(7, 5)[0]
        want = oracle_expected_top_sum(a, family, 3)
        monkeypatch.setattr(orderstats, "iter_member_arrays", no_blocks)
        monkeypatch.setattr(families, "_member_block", no_blocks)
        monkeypatch.setattr(orderstats, "_member_block", no_blocks)
        monkeypatch.setattr(orderstats, "_gather", no_blocks)
        assert _bits(expected_top_sum(a, family, 3)) == _bits(want)
        with pytest.raises(ResourceError, match="above the enumeration cap"):
            _top_sums(a, family, (1,), width=1, cap=family.size - 1)

    @pytest.mark.parametrize("family,samples", [
        (symmetric_group(8), None),                  # 8 runs of 5,040 rows
        (explicit_family([[1, 2, 3], [3, 3, 1], [2, 1, 2]] * 3000, 3, 3), None),
        (full_mapping_family(6, 4), None),           # a lone table of 4,096 rows
        (full_mapping_family(7, 5), 3000),           # Monte Carlo, each draw computed
        (full_mapping_family(3, 4), 3000),           # Monte Carlo, looked up
    ], ids=lambda x: x.descriptor() if isinstance(x, families.MapFamily) else str(x))
    def test_other_passes_gather_their_blocks(self, family, samples, monkeypatch):
        # except an exact pass over a family enumerated as one run (the
        # explicit family and map:6:4), which takes its one block of paths
        # through the family's path index and gathers nothing
        gathered, indexes = [], []
        real, real_index = orderstats._gather, orderstats._one_run_index

        def counting(table, block):
            gathered.append(block.shape)
            return real(table, block)

        def recorded(family, cap=None):
            indexes.append(real_index(family, cap))
            return indexes[-1]

        assert not _takes_the_runs(family) or samples is not None
        monkeypatch.setattr(orderstats, "_gather", counting)
        monkeypatch.setattr(orderstats, "_one_run_index", recorded)
        a = _matrices(family.n, family.N)[0]
        _top_sums(a, family, (1, 2), width=2, samples=samples, seed=1)
        one_run = samples is None and family.kind != families.KIND_SYMMETRIC
        assert bool(gathered) != one_run
        if one_run:
            assert len(indexes) == 1 and indexes[0] is family._path_index
            assert indexes[0].shape == (family.size, family.n)
        else:
            assert all(index is None for index in indexes)

    @pytest.mark.parametrize("family", [full_mapping_family(5, 9), symmetric_group(5)],
                             ids=lambda f: f.descriptor())
    def test_an_overflowing_column_sum_raises_as_the_gathered_one_does(self, family):
        a = Matrix(np.full((family.n, family.N), 1e307))
        for width in (1, 3):
            with np.errstate(over="raise"), pytest.raises(FloatingPointError):
                _top_sums(a, family, (width,), width=width)
            with np.errstate(over="raise"), pytest.raises(FloatingPointError):
                oracle_expected_top_sum(a, family, width)
