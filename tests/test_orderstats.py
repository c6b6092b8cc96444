import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osb import families, orderstats
from osb.errors import DomainError, HypothesisError, ResourceError
from osb.families import (
    explicit_family,
    full_mapping_family,
    iter_member_arrays,
    sample_array,
    symmetric_group,
)
from osb.matrices import Matrix, order_map
from osb.interpolation import expected_lp_norm
from osb.orderstats import (
    RunningMoments,
    _gather,
    build_hit_table,
    expected_top_sum,
    expected_top_sum_mc,
    lemma_suite,
)

from oracles import (
    OracleRunningMoments,
    all_mappings,
    all_permutations,
    averaged_top_matrix,
    brute_expected_top_sum,
    brute_hit_tail,
    check_lemma34,
    check_lemma35,
    hit_count_distribution,
    indicator_expectation,
    indicator_matrix,
    oracle_build_hit_table,
    oracle_expected_top_sum,
    oracle_expected_top_sum_mc,
    oracle_gather,
    paley_zygmund_check,
    path_top_sum,
    path_values,
    table_coefficients,
    table_tail,
    zero_matrix,
)


def random_matrix(n, N, seed):
    return Matrix(np.random.default_rng(seed).uniform(0, 1, (n, N)))


class TestGather:
    """The flat take against the fancy-index gather it replaced."""

    def test_bit_identical_on_signed_zeros_and_subnormals(self, monkeypatch):
        monkeypatch.setattr(families, "MEMBER_BLOCK_ROWS", 7)
        rng = np.random.default_rng(5)
        specials = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                    np.nextafter(0.0, 1.0) * 3, np.inf, -np.inf, np.nan, 1e308]
        for n, N in [(1, 1), (1, 6), (3, 4), (5, 5)]:
            table = rng.choice(np.array(specials + [0.5, 1.25]), size=(n, N))
            for block in iter_member_arrays(full_mapping_family(n, N)):
                # _gather consumes its block, so it takes a copy
                got, want = _gather(table, block.copy()), oracle_gather(table, block)
                assert got.shape == want.shape and got.dtype == want.dtype
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_paths_and_ranks(self, monkeypatch):
        monkeypatch.setattr(families, "MEMBER_BLOCK_ROWS", 5)
        a = random_matrix(4, 4, 3)
        rank = order_map(a).rank_of
        for fam in (symmetric_group(4), full_mapping_family(4, 4)):
            blocks = list(iter_member_arrays(fam))
            blocks.append(sample_array(fam, seed=1, count=9))
            for block in blocks:
                assert np.array_equal(_gather(a.entries, block.copy()).view(np.uint64),
                                      oracle_gather(a.entries, block).view(np.uint64))
                got = _gather(rank, block.copy())
                assert got.dtype == np.int64
                assert np.array_equal(got, oracle_gather(rank, block))

    def test_the_block_is_consumed_for_its_flat_positions(self):
        a = random_matrix(3, 4, 7)
        block = sample_array(full_mapping_family(3, 4), seed=2, count=11)
        want = oracle_gather(a.entries, block)
        positions = block + np.arange(3) * 4 - 1
        got = _gather(a.entries, block)
        assert np.array_equal(block, positions)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestTopValues:
    """The top-ell values of ``_top_sums``, from an in-place sort of each
    gathered block, against a sorted copy of the rows."""

    @pytest.mark.parametrize("seed", [0, 24, 100])
    @pytest.mark.parametrize("n", range(1, 11))
    def test_same_bits_as_sorted_rows(self, n, seed):
        # ties, zeros, subnormals and magnitudes from 1e-310 to 1e299, in
        # columns 1-3, 4-6 and 7-9; 1,200 listed maps, so 600 draws are
        # computed one by one, not looked up
        rng = np.random.default_rng(seed)
        pool = np.array([0.0, 5e-324, 1.5e-323, 2.2250738585072014e-308,
                         0.25, 0.5, 0.5, 1.0, 1e299])
        a = Matrix(np.hstack([
            rng.choice(pool, size=(n, 3)),
            rng.uniform(0, 1, (n, 3)) * 10.0 ** rng.integers(-310, 300, (n, 3)),
            rng.integers(0, 3, (n, 3)).astype(np.float64),
        ]))
        family = explicit_family(rng.integers(1, 10, (1200, n)), n, 9)
        ells = tuple(range(1, n + 1))
        full = oracle_expected_top_sum(a, family, n)
        exact = orderstats._top_sums(a, family, ells, width=n)
        mc = orderstats._top_sums(a, family, ells, width=n, samples=600, seed=seed)
        for ell in ells:
            # an exact ell = 1 from a wider pass is the first column of that pass
            want = (full.per_k[:1] if ell == 1 else
                    oracle_expected_top_sum(a, family, ell).per_k)
            assert [v.hex() for v in exact[ell - 1].per_k] == [v.hex() for v in want]
            got, want = mc[ell - 1], oracle_expected_top_sum_mc(a, family, ell, 600, seed)
            assert (got.value.hex(), got.stderr.hex()) == (want.value.hex(),
                                                           want.stderr.hex())


class TestPathValues:
    def test_identity_and_swap(self):
        a = Matrix.from_rows([[1, 0], [0, 1]])
        assert path_values(a, (1, 2)).tolist() == [1, 1]
        assert path_values(a, (2, 1)).tolist() == [0, 0]

    def test_constant_map_reads_first_column(self):
        a = Matrix.from_rows([[3, 1], [2, 2]])
        assert path_values(a, (1, 1)).tolist() == [3, 2]

    def test_dimension_mismatch(self):
        a = Matrix.from_rows([[1, 2]])
        with pytest.raises(DomainError):
            path_values(a, (1, 2))
        with pytest.raises(DomainError):
            path_values(a, (3,))


class TestPathTopSum:
    def test_full_sum(self):
        a = Matrix.from_rows([[3, 1], [2, 2]])
        assert path_top_sum(a, (1, 2), 2) == 5.0

    def test_partial_sums(self):
        a = Matrix.from_rows([[3, 1], [2, 2]])
        assert path_top_sum(a, (1, 2), 1) == 3.0

    def test_ell_range(self):
        a = Matrix.from_rows([[3, 1], [2, 2]])
        with pytest.raises(DomainError):
            path_top_sum(a, (1, 2), 3)


class TestExactExpectation:
    def test_symmetric_example(self):
        a = Matrix.from_rows([[1, 0], [0, 1]])
        assert expected_top_sum(a, symmetric_group(2), 1).value == 0.5

    def test_mapping_example(self):
        a = Matrix.from_rows([[1, 0], [0, 1]])
        assert expected_top_sum(a, full_mapping_family(2, 2), 1).value == 0.75

    def test_all_ones_gives_ell(self):
        a = Matrix.from_rows([[1] * 4] * 3)
        fam = full_mapping_family(3, 4)
        for ell in (1, 2, 3):
            assert expected_top_sum(a, fam, ell).value == float(ell)
        square = Matrix.from_rows([[1] * 3] * 3)
        for ell in (1, 2, 3):
            assert expected_top_sum(square, symmetric_group(3), ell).value == float(ell)

    @pytest.mark.parametrize("n,N", [(2, 2), (3, 2), (2, 3), (3, 3)])
    def test_against_brute_oracle(self, n, N):
        a = random_matrix(n, N, seed=n * 10 + N)
        rows = a.entries.tolist()
        maps = all_mappings(n, N)
        for ell in range(1, n + 1):
            got = expected_top_sum(a, full_mapping_family(n, N), ell).value
            assert got == pytest.approx(float(brute_expected_top_sum(rows, maps, ell)), abs=1e-12)
        if n == N:
            perms = all_permutations(n)
            for ell in range(1, n + 1):
                got = expected_top_sum(a, symmetric_group(n), ell).value
                assert got == pytest.approx(float(brute_expected_top_sum(rows, perms, ell)), abs=1e-12)

    def test_per_k_is_nonincreasing_and_sums_to_value(self):
        a = random_matrix(4, 3, seed=9)
        r = expected_top_sum(a, full_mapping_family(4, 3), 4)
        assert list(r.per_k) == sorted(r.per_k, reverse=True)
        assert r.value == math.fsum(r.per_k)

    @given(st.floats(0, 10, allow_nan=False))
    @settings(max_examples=25, deadline=None)
    def test_homogeneity(self, c):
        a = random_matrix(3, 3, seed=1)
        fam = symmetric_group(3)
        base = expected_top_sum(a, fam, 2).value
        scaled = expected_top_sum(Matrix(a.entries * c), fam, 2).value
        assert scaled == pytest.approx(c * base, abs=1e-9)

    def test_monotonicity_in_entries_and_ell(self):
        rng = np.random.default_rng(4)
        a = Matrix(rng.uniform(0, 1, (3, 3)))
        b = Matrix(a.entries + rng.uniform(0, 1, (3, 3)))
        fam = full_mapping_family(3, 3)
        for ell in (1, 2, 3):
            assert expected_top_sum(a, fam, ell).value <= \
                expected_top_sum(b, fam, ell).value + 1e-12
        values = [expected_top_sum(a, fam, ell).value for ell in (1, 2, 3)]
        assert values == sorted(values)

    def test_row_symmetry_for_permutation_family(self):
        a = random_matrix(3, 3, seed=6)
        swapped = Matrix(a.entries[[2, 0, 1]])
        fam = symmetric_group(3)
        assert expected_top_sum(a, fam, 2).value == \
            pytest.approx(expected_top_sum(swapped, fam, 2).value, abs=1e-12)

    def test_row_and_column_symmetry_for_mapping_family(self):
        a = random_matrix(3, 4, seed=8)
        fam = full_mapping_family(3, 4)
        base = expected_top_sum(a, fam, 2).value
        rows = Matrix(a.entries[[1, 2, 0]])
        cols = Matrix(a.entries[:, [3, 1, 0, 2]])
        assert expected_top_sum(rows, fam, 2).value == pytest.approx(base, abs=1e-12)
        assert expected_top_sum(cols, fam, 2).value == pytest.approx(base, abs=1e-12)


class TestMonteCarlo:
    def test_zero_matrix_is_exact(self):
        r = expected_top_sum_mc(zero_matrix(2, 2), symmetric_group(2), 1,
                                samples=1000, seed=0)
        assert r.value == 0.0 and r.stderr == 0.0

    def test_constant_matrix_is_exact(self):
        a = Matrix.from_rows([[1, 1], [1, 1]])
        r = expected_top_sum_mc(a, symmetric_group(2), 2, samples=1000, seed=0)
        assert r.value == 2.0 and r.stderr == 0.0

    def test_close_to_exact(self):
        a = random_matrix(3, 3, seed=13)
        fam = full_mapping_family(3, 3)
        exact = expected_top_sum(a, fam, 2).value
        r = expected_top_sum_mc(a, fam, 2, samples=100000, seed=7)
        assert abs(r.value - exact) <= 4 * r.stderr
        assert r.samples == 100000 and r.mode == "mc"

    def test_requires_two_samples(self):
        with pytest.raises(DomainError):
            expected_top_sum_mc(zero_matrix(2, 2), symmetric_group(2), 1, 1, 0)

    @staticmethod
    def _moments(cls, chunks):
        m = cls()
        for chunk in chunks:
            m.add(chunk)
        return m

    @pytest.mark.parametrize("scale", [1e-300, 1e-3, 1.0, 1e3, 1e150])
    def test_moments_keep_the_bits_of_the_plain_formula(self, scale):
        gen = np.random.default_rng(4)
        chunks = [gen.uniform(-1, 3, size) * scale for size in (1, 2, 1000, 131072, 7)]
        got, want = (self._moments(c, chunks) for c in (RunningMoments, OracleRunningMoments))
        assert (got.mean.hex(), got.stderr().hex()) == (want.mean.hex(), want.stderr().hex())

    # chunks whose own M2 overflows, and chunks of M2 near 1.4e308 whose
    # total overflows; the arithmetic is the plain formula's on the values
    # over a power of two, which rounds nothing
    @pytest.mark.parametrize("chunks", [
        [np.array([1e200, 3e200, 2e200, 1.5e200] * 250)] * 3,
        [np.random.default_rng(2).uniform(1, 3, 1000) * 1e200,
         np.random.default_rng(3).uniform(-3, 1, 70) * 1e200],
        [np.array([1.2e153, -1.2e153] * 50)] * 2,
        [np.array([1.0, 2.0]), np.array([1.2e153, -1.2e153] * 50), np.array([1e200])],
    ])
    def test_an_overflowing_m2_is_scaled_by_a_power_of_two(self, chunks):
        with np.errstate(over="raise", invalid="raise"):
            got = self._moments(RunningMoments, chunks)
        assert math.isfinite(got.stderr()) and got.stderr() > 0
        with np.errstate(over="ignore"):
            assert not math.isfinite(self._moments(OracleRunningMoments, chunks).stderr())
        k = 2.0**600
        want = self._moments(OracleRunningMoments, [c / k for c in chunks])
        assert got.mean.hex() == (want.mean * k).hex()
        assert got.stderr().hex() == (want.stderr() * k).hex()

    # criterion 9's cases at 1e5 draws and seeds 0 and 7: the hash of every
    # bit of the top-sum estimate (value, per_k, stderr) and of the lp
    # estimate at p = 1.5, 2 and 3 (value, stderr), as first recorded
    PINNED = {
        "2x2/sym/u00": ("690f45ad33e4066a", "7823f1b9cd4674ca"),
        "2x2/sym/u01": ("1006220fa1ac562e", "db98b877f1878cb6"),
        "3x3/sym/u00": ("5b29e4e8e8b270f3", "db7f9fa84fb4ae77"),
        "3x3/sym/u01": ("687abfd0b65015db", "1a5fbb67c9b5bfe5"),
        "4x4/sym/u00": ("a4dda8d09c685468", "577bc27b6af8bb50"),
        "4x4/sym/u01": ("76f41c55578c1271", "1e88f6cc76b17e42"),
        "5x5/sym/u00": ("57de910982e25a18", "6437d0d80e75f2e5"),
        "5x5/sym/u01": ("8eed47a820793a7b", "5b556a313fba4410"),
        "2x2/map/u00": ("871d86cabc5b9627", "8c1dabfc237f6db1"),
        "2x2/map/u01": ("09dabdbe2fca3933", "887e8c31283809c7"),
        "3x3/map/u00": ("ed1725f8c87131f6", "16fd912d16b8d5c6"),
        "3x3/map/u01": ("b4d6129554374b10", "744c02f32b0597a4"),
        "2x3/map/u00": ("d6f1600f61052de1", "791e369f9d657432"),
        "2x3/map/u01": ("ed72ca699ffa153b", "80f56a4df7288387"),
        "3x2/map/u00": ("e8bb7b21c8829401", "e467c4e2a7b3e269"),
        "3x2/map/u01": ("8eaa20fc0e5fbe0b", "8cbe9f5621aad830"),
        "4x5/map/u00": ("ec291d40461b6437", "b5d73841388eb71e"),
        "4x5/map/u01": ("f317ead5bc479445", "4583548d021d4e76"),
        "5x4/map/u00": ("e4479ea9d3b9f604", "d289de7accab64e6"),
        "5x4/map/u01": ("bd7ac56d2edade86", "742e387e22d948ee"),
    }

    def test_estimates_keep_their_bits(self, corpus):
        cells = {(c.n, c.N): dict(c.matrices) for c in corpus}
        for label, digests in self.PINNED.items():
            shape, kind, mid = label.split("/")
            n, N = map(int, shape.split("x"))
            fam = symmetric_group(n) if kind == "sym" else full_mapping_family(n, N)
            a = cells[(n, N)][mid]
            for seed, digest in zip((0, 7), digests):
                r = expected_top_sum_mc(a, fam, (n + 1) // 2, 100_000, seed)
                parts = [f"top {r.value.hex()} {' '.join(v.hex() for v in r.per_k)} "
                         f"{r.stderr.hex()}"]
                for p in (1.5, 2.0, 3.0):
                    e = expected_lp_norm(a, fam, p, samples=100_000, seed=seed)
                    parts.append(f"lp{p:g} {e.value.hex()} {e.stderr.hex()}")
                line = "; ".join(parts)
                got = hashlib.sha256(line.encode()).hexdigest()[:16]
                assert got == digest, (label, seed, line)


class TestHitCounts:
    def test_symmetric_two_example(self):
        a = Matrix.from_rows([[1, 0], [0, 1]])
        fam = symmetric_group(2)
        d = hit_count_distribution(fam, order_map(a), 2)
        assert d.probabilities == (Fraction(1, 2), Fraction(0), Fraction(1, 2))

    def test_full_index_set_is_certain(self):
        a = random_matrix(2, 3, seed=2)
        fam = full_mapping_family(2, 3)
        d = hit_count_distribution(fam, order_map(a), 6)
        assert d.probabilities[2] == 1

    @pytest.mark.parametrize("fam", [symmetric_group(3), full_mapping_family(2, 3)])
    def test_expected_hits_is_m_over_N(self, fam):
        a = random_matrix(fam.n, fam.N, seed=fam.n)
        order = order_map(a)
        table = build_hit_table(fam, order)
        for m in range(1, fam.n * fam.N + 1):
            d = hit_count_distribution(fam, order, m, table=table)
            assert d.expectation() == Fraction(m, fam.N)

    def test_support_is_bounded_by_min_m_n(self):
        a = random_matrix(3, 2, seed=5)
        fam = full_mapping_family(3, 2)
        d = hit_count_distribution(fam, order_map(a), 2)
        assert d.probabilities[3] == 0

    def test_tails_match_brute_oracle(self):
        a = random_matrix(2, 3, seed=11)
        fam = full_mapping_family(2, 3)
        order = order_map(a)
        table = build_hit_table(fam, order)
        maps = all_mappings(2, 3)
        for m in range(1, 7):
            positions = order.pairs[:m]
            for k in range(0, 3):
                assert table_tail(table, m, k) == brute_hit_tail(maps, positions, k)

    @pytest.mark.parametrize("fam,rows,other", [
        (symmetric_group(3), [[9, 8, 7], [6, 5, 4], [3, 2, 1]],
         [[9, 6, 3], [2, 8, 5], [4, 1, 7]]),
        (full_mapping_family(2, 3), [[6, 5, 4], [3, 2, 1]], [[6, 3, 2], [5, 4, 1]]),
    ])
    def test_tables_compare_by_their_counts(self, fam, rows, other):
        # an enumerated table holds int64 counts, a counted one Python ints
        table = build_hit_table(fam, order_map(Matrix.from_rows(rows)))
        assert table == build_hit_table(fam, order_map(Matrix.from_rows(rows)))
        assert table != build_hit_table(fam, order_map(Matrix.from_rows(other)))
        assert table != (table.size, table.n, table.N)
        with pytest.raises(TypeError):
            hash(table)

    def test_tail_monotonicity(self):
        a = random_matrix(3, 3, seed=17)
        table = build_hit_table(symmetric_group(3), order_map(a))
        for k in (1, 2, 3):
            tails = [table_tail(table, m, k) for m in range(0, 10)]
            assert tails == sorted(tails)
        for m in (1, 5, 9):
            by_k = [table_tail(table, m, k) for k in (1, 2, 3)]
            assert by_k == sorted(by_k, reverse=True)


class TestCountedHitTable:
    """A map:n:N table is counted from per-position hit counts; it must be
    the enumerated tally, count for count."""

    @staticmethod
    def matrices(n, N, seed):
        rng = np.random.default_rng(seed)
        # distinct entries, ties everywhere, and one all-zero matrix
        return [Matrix(rng.uniform(0, 1, (n, N))),
                Matrix(rng.integers(0, 3, (n, N)).astype(float)), zero_matrix(n, N)]

    @pytest.mark.parametrize("n,N", [(n, N) for n in range(1, 6) for N in range(1, 6)]
                             + [(7, 3)])
    def test_counts_equal_the_enumerated_tally(self, n, N):
        fam = full_mapping_family(n, N)
        for a in self.matrices(n, N, seed=10 * n + N):
            order = order_map(a)
            got, want = build_hit_table(fam, order), oracle_build_hit_table(fam, order)
            assert got.size == want.size == N**n
            # the counts are the product's Python ints, which no size wraps
            assert all(type(c) is int for c in got.hist.flat) and not got.hist.flags.writeable
            assert np.array_equal(got.hist, want.hist)

    def test_enumerated_kinds_are_unchanged(self):
        for fam in (symmetric_group(4), explicit_family([[1, 2], [2, 1], [1, 1]], 2, 2)):
            order = order_map(random_matrix(fam.n, fam.N, seed=3))
            assert np.array_equal(build_hit_table(fam, order).hist,
                                  oracle_build_hit_table(fam, order).hist)

    @pytest.mark.parametrize("fam", [full_mapping_family(3, 3), symmetric_group(4)],
                             ids=lambda f: f.descriptor())
    def test_the_cap_is_kept_and_checked_before_any_work(self, fam, monkeypatch):
        class Untouched:
            n, N = fam.n, fam.N

            @property
            def rank_of(self):
                raise AssertionError("the ordering was read")

        def no_blocks(*args, **kwargs):
            raise AssertionError("a block was enumerated")

        monkeypatch.setattr(orderstats, "iter_member_arrays", no_blocks)
        with pytest.raises(ResourceError, match="above the enumeration cap"):
            build_hit_table(fam, Untouched(), cap=fam.size - 1)
        monkeypatch.setenv("OSB_ENUM_CAP", str(fam.size - 1))
        with pytest.raises(ResourceError, match="above the enumeration cap"):
            build_hit_table(fam, Untouched())


class TestDrawCountLimit:
    """Draw d owns words d*n .. d*n + n - 1 of a 64-bit counter: a draw
    count past it is refused before any draw."""

    @pytest.mark.parametrize("fam", [full_mapping_family(2, 2), symmetric_group(3)],
                             ids=lambda f: f.descriptor())
    def test_every_estimator_refuses_it_before_drawing(self, fam, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("a chunk was drawn")

        monkeypatch.setattr(orderstats, "sample_array", no_draws)
        a = random_matrix(fam.n, fam.N, seed=1)
        samples = -(-2**64 // fam.n)  # the first count whose words do not fit
        estimates = [
            lambda s: expected_top_sum_mc(a, fam, 1, s, 0),
            lambda s: orderstats._top_sums(a, fam, (1, 2), width=2, samples=s)[0],
            lambda s: expected_lp_norm(a, fam, 2.0, samples=s),
            lambda s: expected_lp_norm(a, fam, [1.0, 3.0], samples=s),
        ]
        for estimate in estimates:
            with pytest.raises(DomainError, match="64-bit word counter"):
                estimate(samples)
        # one count lower, the check lets the estimator draw
        with pytest.raises(AssertionError, match="a chunk was drawn"):
            expected_lp_norm(a, fam, 2.0, samples=samples - 1)


class TestCoefficients:
    def test_reconstructs_expectations_for_carried_matrices(self):
        rng = np.random.default_rng(23)
        a = random_matrix(3, 3, seed=23)
        order = order_map(a)
        for fam in (symmetric_group(3), full_mapping_family(3, 3)):
            for ell in (1, 2, 3):
                coeffs = table_coefficients(build_hit_table(fam, order), ell)
                for _ in range(20):
                    vals = np.sort(rng.uniform(0, 1, ell * 3))[::-1]
                    b = np.zeros((3, 3))
                    for r, (i, j) in enumerate(order.pairs[: ell * 3]):
                        b[i - 1, j - 1] = vals[r]
                    b = Matrix(b)
                    linear = float(sum(
                        f * Fraction(float(v)) for f, v in zip(coeffs, vals)
                    ))
                    assert linear == pytest.approx(
                        expected_top_sum(b, fam, ell).value, abs=1e-12)

    def test_indicator_prefix_identity(self):
        a = random_matrix(3, 2, seed=29)
        order = order_map(a)
        fam = full_mapping_family(3, 2)
        table = build_hit_table(fam, order)
        ell = 2
        coeffs = table_coefficients(table, ell)
        for m in range(1, ell * 2 + 1):
            prefix = sum(coeffs[:m], Fraction(0))
            assert prefix == indicator_expectation(table, m, ell)
            direct = expected_top_sum(indicator_matrix(order, m), fam, ell).value
            assert float(prefix) == pytest.approx(direct, abs=1e-12)

    def test_averaged_matrix_expectation_is_the_lemma35_lhs(self):
        a = random_matrix(3, 3, seed=37)
        order = order_map(a)
        for fam in (symmetric_group(3), full_mapping_family(3, 3)):
            table = build_hit_table(fam, order)
            for ell in (1, 2, 3):
                lhs, _ = check_lemma35(a, table, Fraction(1), ell)
                direct = expected_top_sum(averaged_top_matrix(a, order, ell), fam, ell)
                assert float(lhs) == pytest.approx(direct.value, rel=1e-12)

    def test_full_coefficients_sum_to_n(self):
        a = random_matrix(3, 3, seed=31)
        for fam in (symmetric_group(3), full_mapping_family(3, 3)):
            coeffs = table_coefficients(build_hit_table(fam, order_map(a)), 3)
            assert sum(coeffs, Fraction(0)) == 3


class TestPaleyZygmund:
    def test_constant_variable(self):
        rep = paley_zygmund_check([(3, 1)], Fraction(1, 2))
        assert rep.lhs == 1.0 and rep.rhs == 0.25 and rep.status == "pass"

    def test_hit_count_example(self):
        a = Matrix.from_rows([[1, 0], [0, 1]])
        d = hit_count_distribution(symmetric_group(2), order_map(a), 2)
        rep = paley_zygmund_check(d, Fraction(1, 2))
        assert rep.lhs == 0.5 and rep.rhs == 0.125 and rep.status == "pass"

    def test_zero_variable_is_vacuous(self):
        rep = paley_zygmund_check([(0, 1)], 0.5)
        assert rep.status == "vacuous"

    def test_theta_validation(self):
        for theta in (0, 1, -0.5, 1.5):
            with pytest.raises(DomainError):
                paley_zygmund_check([(1, 1)], theta)

    def test_rejects_negative_values(self):
        with pytest.raises(DomainError):
            paley_zygmund_check([(-1, 1)], 0.5)

    def test_weights_are_renormalized_exactly(self):
        rep = paley_zygmund_check([(1, 3), (2, 1)], Fraction(1, 2))
        # E Z = 5/4, E Z^2 = 7/4, threshold 5/8 -> P = 1
        assert rep.lhs == 1.0
        assert rep.rhs == pytest.approx(float(Fraction(25, 112)), abs=0)


class TestLemmaSuite:
    def test_equality_instance(self):
        a = Matrix.from_rows([[1, 0], [0, 1]])
        reports = lemma_suite(a, symmetric_group(2), 1)
        hit = [r for r in reports if r.check_id == "lemma3.1" and r.inputs["m"] == 2]
        assert len(hit) == 1 and hit[0].margin == 0.0 and hit[0].status == "pass"

    def test_all_pass_on_random_instances(self):
        for seed, (n, N) in enumerate([(2, 2), (3, 2), (2, 3), (3, 3)]):
            a = random_matrix(n, N, seed=40 + seed)
            fams = [full_mapping_family(n, N)]
            if n == N:
                fams.append(symmetric_group(n))
            for fam in fams:
                for ell in range(1, n + 1):
                    reports = lemma_suite(a, fam, ell)
                    assert all(r.status != "fail" for r in reports)

    def test_lemma36_example(self):
        a = Matrix.from_rows([[1, 1], [1, 1]])
        reports = lemma_suite(a, symmetric_group(2), 2)
        hit = [r for r in reports if r.check_id == "lemma3.6"]
        assert len(hit) == 1
        assert hit[0].lhs == 1.0 and hit[0].rhs == 0.1 and hit[0].status == "pass"

    def test_lemma36_vacuous_for_ell_one(self):
        a = random_matrix(2, 2, seed=3)
        reports = lemma_suite(a, symmetric_group(2), 1)
        hit = [r for r in reports if r.check_id == "lemma3.6"]
        assert len(hit) == 1 and hit[0].status == "vacuous"

    def test_lemma33b_vacuous_for_single_row(self):
        a = random_matrix(1, 3, seed=3)
        reports = lemma_suite(a, full_mapping_family(1, 3), 1)
        hit = [r for r in reports if r.check_id == "lemma3.3b"]
        assert len(hit) == 1 and hit[0].status == "vacuous"

    def test_lemma34_equality_at_full_block(self):
        a = random_matrix(2, 2, seed=50)
        fam = symmetric_group(2)
        table = build_hit_table(fam, order_map(a))
        ell = 2
        lhs, rhs = check_lemma34(table, Fraction(2), ell, ell * 2)
        assert lhs == indicator_expectation(table, ell * 2, ell)
        assert rhs == (8 + 16 * 2) * lhs

    def test_hypothesis_failure_raises(self):
        fam = explicit_family([[1, 2]], 2, 2)
        with pytest.raises(HypothesisError):
            lemma_suite(random_matrix(2, 2, seed=1), fam, 1)
