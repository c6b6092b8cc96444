import math

import numpy as np
import pytest
from scipy.integrate import quad

from osb import interpolation
from osb.errors import DomainError
from osb.families import (explicit_family, full_mapping_family, iter_member_arrays,
                          symmetric_group)
from osb.interpolation import (
    KFunctionalCurve,
    ScalarExpectation,
    _block_fsum,
    expected_lp_norm,
    head_tail_bound,
    interpolation_norm,
    interpolation_norm_from_curve,
    k_functional,
    mixed_k_curve,
    verify_lp_bounds,
)
from osb.matrices import Matrix
from oracles import (all_mappings, all_permutations, brute_expected_lp, k_functional_oracle,
                     oracle_expected_lp_norm, path_values, scaled_expected_lp,
                     scaled_head_tail_bound, zero_matrix)


def random_matrix(n, N, seed):
    return Matrix(np.random.default_rng(seed).uniform(0, 1, (n, N)))


class TestKFunctional:
    def test_fractional_example(self):
        assert k_functional([3, 1], 1.5) == 3.5

    def test_saturates_at_l1(self):
        assert k_functional([3, 1], 2) == 4.0
        assert k_functional([3, 1], 100) == 4.0

    def test_zero_weight(self):
        assert k_functional([3, 1], 0) == 0.0

    def test_negative_weight_rejected(self):
        with pytest.raises(DomainError):
            k_functional([1.0], -0.5)

    def test_matches_decomposition_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            n = int(rng.integers(1, 21))
            x = rng.uniform(0, 10, n)
            t = float(rng.uniform(0, n + 2))
            assert k_functional(x, t) == pytest.approx(
                k_functional_oracle(x, t), abs=1e-9)

    def test_concave_and_nondecreasing(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            x = rng.uniform(0, 5, 6)
            t1, t2, t3 = sorted(rng.uniform(0, 8, 3))
            k1, k2, k3 = (k_functional(x, t) for t in (t1, t2, t3))
            assert k1 <= k2 + 1e-12 and k2 <= k3 + 1e-12
            if t3 - t1 > 1e-9:
                lam = (t2 - t1) / (t3 - t1)
                assert k2 >= (1 - lam) * k1 + lam * k3 - 1e-9

    def test_upper_envelope(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            x = rng.uniform(0, 5, 5)
            t = float(rng.uniform(0, 7))
            assert k_functional(x, t) <= min(x.sum(), t * x.max()) + 1e-12

    def test_curve_validation(self):
        with pytest.raises(DomainError):
            KFunctionalCurve(slopes=(1.0, 2.0))  # increasing slopes not concave
        with pytest.raises(DomainError):
            KFunctionalCurve(slopes=())
        # a NaN slope passes every order comparison
        for x in ([1.0, math.nan], [math.nan], [math.inf], [math.inf, 1.0]):
            with pytest.raises(DomainError, match="slopes must be finite"):
                KFunctionalCurve.from_vector(x)
            with pytest.raises(DomainError, match="slopes must be finite"):
                interpolation_norm(x, 2.0)
        with pytest.raises(DomainError, match="slopes must be finite"):
            KFunctionalCurve(slopes=(1.0, math.nan))


class TestMixedKFunctional:
    def test_all_ones_is_linear(self):
        a = Matrix.from_rows([[1] * 3] * 3)
        fam = symmetric_group(3)
        for t in (0.5, 1.0, 2.25, 3.0):
            assert mixed_k_curve(a, fam).value(t) == pytest.approx(t, abs=1e-12)

    def test_two_permutations_example(self):
        a = Matrix.from_rows([[1, 0], [0, 1]])
        assert mixed_k_curve(a, symmetric_group(2)).value(1.0) == pytest.approx(0.5)

    def test_zero_weight(self):
        a = random_matrix(2, 2, seed=1)
        assert mixed_k_curve(a, symmetric_group(2)).value(0.0) == 0.0

    def test_equals_average_of_member_curves(self):
        a = random_matrix(3, 2, seed=2)
        fam = full_mapping_family(3, 2)
        for t in (0.4, 1.0, 1.7, 2.5, 3.0):
            direct = np.mean([
                k_functional(path_values(a, g), t) for g in all_mappings(3, 2)
            ])
            assert mixed_k_curve(a, fam).value(t) == pytest.approx(float(direct), abs=1e-12)


class TestInterpolationNorm:
    def test_single_coordinate_closed_form(self):
        for p in (1.5, 2.0, 3.0, 5.0):
            for n in (1, 3, 7):
                x = [0.0] * n
                x[min(1, n - 1)] = 2.0
                want = 2.0 * (p / (p - 1)) ** (1 / p)
                got = interpolation_norm(x, p)
                assert abs(got - want) / want <= 1e-8

    def test_zero_vector(self):
        assert interpolation_norm([0, 0, 0], 2.0) == 0.0

    def test_homogeneity(self):
        x = [3, 1, 0.5, 2]
        assert interpolation_norm([2 * v for v in x], 2.5) == pytest.approx(
            2 * interpolation_norm(x, 2.5), rel=1e-12)

    def test_p_validation(self):
        with pytest.raises(DomainError):
            interpolation_norm([1, 2], 1.0)
        with pytest.raises(DomainError):
            interpolation_norm([1, 2], 0.5)

    def test_integrals_beyond_the_normal_range(self):
        # K(1)**p overflows at 1e200 and underflows at 1e-200, while the
        # norms are 2e200 and 3**(1/3) * 1e-200
        assert interpolation_norm([1e200, 1e200], 2.0) == pytest.approx(2e200, rel=1e-15)
        assert interpolation_norm([1e-200, 1e-200], 3.0) == pytest.approx(
            3.0 ** (1 / 3) * 1e-200, rel=1e-15)
        assert interpolation_norm([1e308, 1e308], 1.5) == pytest.approx(
            1e308 * interpolation_norm([1.0, 1.0], 1.5), rel=1e-15)
        # every power of the curve leaves the range; scaled by a power of
        # two, the slopes are exact
        for p in (1.5, 2.0, 3.0):
            for e in (-1000, -800, 800, 1000):
                got = interpolation_norm([2.0**e, 2.0**e, 2.0**(e - 1)], p)
                want = interpolation_norm([1.0, 1.0, 0.5], p)
                assert got == math.ldexp(want, e), (p, e)

    @pytest.mark.parametrize("p", [1100.0, 2000.0, 1e4])
    def test_exponents_whose_integral_overflows_at_every_power_of_two(self, p):
        # K(t) = t on [0, 2] for [1, 1], so the integral is
        # 1 + 1 + 2**p 2**(1-p) / (p - 1); 2**p overflows above p = 1024
        want = (2.0 + 2.0 / (p - 1.0)) ** (1.0 / p)
        assert math.isclose(interpolation_norm([1.0, 1.0], p), want, rel_tol=1e-12)
        assert math.isclose(interpolation_norm([3e100, 3e100], p), 3e100 * want,
                            rel_tol=1e-12)

    def test_against_scipy_quadrature(self):
        rng = np.random.default_rng(44)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            x = rng.uniform(0.1, 5, n)
            p = float(rng.choice([1.5, 2.0, 2.5, 4.0]))
            got = interpolation_norm(x, p)
            integrand = lambda t: (k_functional(x, t) / t) ** p
            total, _ = quad(integrand, 0, n, limit=200, points=list(range(1, n + 1)))
            tail = x.sum() ** p * n ** (1 - p) / (p - 1)
            want = (total + tail) ** (1 / p)
            assert got == pytest.approx(want, rel=1e-8)


class TestLpExpectation:
    def test_p1_is_entry_mean_identity(self):
        a = random_matrix(3, 4, seed=5)
        fam = full_mapping_family(3, 4)
        got = expected_lp_norm(a, fam, 1.0).value
        assert got == pytest.approx(a.entries.sum() / 4, abs=1e-12)

    def test_sqrt2_example(self):
        a = Matrix.from_rows([[1, 0], [0, 1]])
        got = expected_lp_norm(a, symmetric_group(2), 2.0).value
        assert got == pytest.approx(math.sqrt(2) / 2, abs=1e-15)

    def test_all_ones_gives_root_n(self):
        a = Matrix.from_rows([[1] * 2] * 4)
        fam = full_mapping_family(4, 2)
        for p in (1.0, 2.0, 3.0):
            assert expected_lp_norm(a, fam, p).value == pytest.approx(
                4 ** (1 / p), abs=1e-12)

    def test_matches_brute_oracle(self):
        a = random_matrix(2, 3, seed=6)
        fam = full_mapping_family(2, 3)
        for p in (1.0, 1.5, 2.0, 3.0):
            want = brute_expected_lp(a.entries.tolist(), all_mappings(2, 3), p)
            assert expected_lp_norm(a, fam, p).value == pytest.approx(want, abs=1e-12)

    def test_nonincreasing_in_p(self):
        a = random_matrix(3, 3, seed=7)
        fam = symmetric_group(3)
        values = [expected_lp_norm(a, fam, p).value for p in (1.0, 1.5, 2.0, 3.0, 6.0)]
        assert all(v1 >= v2 - 1e-12 for v1, v2 in zip(values, values[1:]))

    def test_mc_close_to_exact(self):
        a = random_matrix(3, 3, seed=8)
        fam = full_mapping_family(3, 3)
        exact = expected_lp_norm(a, fam, 2.0).value
        r = expected_lp_norm(a, fam, 2.0, samples=100000, seed=2)
        assert abs(r.value - exact) <= 4 * r.stderr

    def test_p_validation(self):
        with pytest.raises(DomainError):
            expected_lp_norm(random_matrix(2, 2, seed=9), symmetric_group(2), 0.5)


class TestHeadTailBound:
    def test_identity_matrix_p1(self):
        assert head_tail_bound(Matrix.from_rows([[1, 0], [0, 1]]), 1.0) == 1.0

    def test_zero_matrix(self):
        assert head_tail_bound(zero_matrix(3, 2), 2.0) == 0.0

    def test_single_row_has_no_tail(self):
        a = Matrix.from_rows([[4, 2, 1]])
        want = (4 + 2 + 1) / 3
        assert head_tail_bound(a, 3.0) == pytest.approx(want)

    def test_head_plus_tail(self):
        a = Matrix.from_rows([[4, 3], [2, 1]])
        got = head_tail_bound(a, 2.0)
        assert got == pytest.approx((4 + 3) / 2 + math.sqrt((4 + 1) / 2))


class TestLargeP:
    # 0.1**400 underflows to 0 and 9**400 overflows; a path or tail whose
    # power sum leaves the normal float range is scaled by its largest entry
    SMALL = [[0.1, 0.05], [0.08, 0.1]]
    GRID = [[9.0, 3.0, 0.0], [1.0, 9.0, 2.0]]

    @pytest.mark.parametrize("rows,p", [
        (SMALL, 400.0), (SMALL, 1000.0), (GRID, 400.0), (GRID, 1000.0),
        ([[1e-160, 0.0], [0.0, 1e-160]], 2.0),  # subnormal power sums
    ])
    def test_matches_scaled_oracle(self, rows, p):
        a = Matrix.from_rows(rows)
        n, N = a.rows, a.cols
        fam = full_mapping_family(n, N)
        want = scaled_expected_lp(rows, all_mappings(n, N), p)
        got = expected_lp_norm(a, fam, p).value
        assert got > 0 and got == pytest.approx(want, rel=1e-14, abs=0)
        assert head_tail_bound(a, p) == pytest.approx(
            scaled_head_tail_bound(rows, p), rel=1e-14, abs=0)

    def test_small_matrix_passes_at_p_400(self):
        a = Matrix.from_rows(self.SMALL)
        upper, lower = verify_lp_bounds(a, symmetric_group(2), 400.0)
        assert upper.status == lower.status == "pass"
        assert upper.lhs == pytest.approx(
            scaled_expected_lp(self.SMALL, all_permutations(2), 400.0), rel=1e-14, abs=0)
        assert 0.4 < lower.lhs <= 1.0

    def test_mc_scales_the_same_rows(self):
        a = Matrix.from_rows(self.GRID)
        fam = full_mapping_family(2, 3)
        exact = expected_lp_norm(a, fam, 400.0).value
        r = expected_lp_norm(a, fam, 400.0, samples=20000, seed=3)
        assert abs(r.value - exact) <= 4 * r.stderr

    def test_normal_power_sums_keep_their_bits(self):
        # zero paths and in-range power sums take the plain formula, whose
        # powers of the path values equal the entries' powers gathered
        a = Matrix.from_rows([[0.0, 0.7, 0.2], [0.0, 0.3, 0.9]])
        fam = full_mapping_family(2, 3)
        paths = np.vstack([path_values(a, g) for g in all_mappings(2, 3)])
        for p in (1.5, 2.0, 3.0):
            want = math.fsum((paths**p).sum(axis=1) ** (1.0 / p)) / fam.size
            assert expected_lp_norm(a, fam, p).value == want
            tail = a.rearrangement[3:]
            assert head_tail_bound(a, p) == (
                math.fsum(a.rearrangement[:3]) / 3
                + (math.fsum(tail**p) / 3) ** (1.0 / p))
        rng = np.random.default_rng(8)
        for n, N in [(1, 1), (3, 4), (4, 3), (5, 5)]:
            a = Matrix(rng.uniform(0, 1, (n, N)) * 10.0 ** rng.integers(-9, 9, (n, N)))
            fam = full_mapping_family(n, N)
            paths = np.vstack([path_values(a, g) for g in all_mappings(n, N)])
            for p in (1.5, 2.0, 2.5, 3.0, 7.0):
                want = math.fsum((paths**p).sum(axis=1) ** (1.0 / p)) / fam.size
                assert expected_lp_norm(a, fam, p).value == want


class TestAllZeroPaths:
    """A power sum below the normal range is rescaled unless every such sum
    is an all-zero path's, whose norm is already 0."""

    FAMILIES = [full_mapping_family(3, 3), symmetric_group(3),  # one-run index
                symmetric_group(8)]  # the run walk

    @staticmethod
    def count_rescales(monkeypatch):
        calls = []
        rescale = interpolation._rescale
        monkeypatch.setattr(interpolation, "_rescale",
                            lambda *args: calls.append(args[1]) or rescale(*args))
        return calls

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.descriptor())
    @pytest.mark.parametrize("samples", [None, 3000])
    def test_zero_paths_skip_the_rescale(self, family, samples, monkeypatch):
        # a diagonal matrix: every path that misses the diagonal is all zero
        a = Matrix(np.diag(np.arange(1.0, family.n + 1)))
        calls = self.count_rescales(monkeypatch)
        ps = [1.5, 2.0, 3.0]
        got = expected_lp_norm(a, family, ps, samples=samples, seed=4)
        for p, e in zip(ps, got):
            want = oracle_expected_lp_norm(a, family, p, samples=samples, seed=4)
            assert _bits(e) == _bits(want)
        assert calls == []

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.descriptor())
    @pytest.mark.parametrize("samples", [None, 3000])
    def test_powers_that_underflow_are_still_rescaled(self, family, samples, monkeypatch):
        # 1e-120 ** 3 underflows to 0, so a path through row 0 that misses
        # the rest of the diagonal sums to 0 though its norm is 1e-120;
        # 1e-120 ** 2 is normal
        entries = np.diag(np.arange(1.0, family.n + 1))
        entries[0] = 1e-120
        a = Matrix(entries)
        calls = self.count_rescales(monkeypatch)
        got = expected_lp_norm(a, family, [2.0, 3.0], samples=samples, seed=4)
        for p, e in zip([2.0, 3.0], got):
            want = oracle_expected_lp_norm(a, family, p, samples=samples, seed=4)
            assert _bits(e) == _bits(want)
        assert calls and set(calls) == {3.0}  # the run walk rescales per group


class TestVerifyLpBounds:
    def test_p1_is_exact_equality(self):
        a = random_matrix(3, 2, seed=10)
        reports = verify_lp_bounds(a, full_mapping_family(3, 2), 1.0)
        upper = next(r for r in reports if r.check_id == "thm1.2/upper")
        assert upper.status == "pass" and abs(upper.margin) <= 1e-12

    def test_identity_example_p2(self):
        a = Matrix.from_rows([[1, 0], [0, 1]])
        reports = verify_lp_bounds(a, symmetric_group(2), 2.0)
        upper = next(r for r in reports if r.check_id == "thm1.2/upper")
        assert upper.lhs == pytest.approx(math.sqrt(2) / 2)
        assert upper.rhs == pytest.approx(1.0)
        assert upper.status == "pass"

    def test_zero_matrix_is_vacuous(self):
        reports = verify_lp_bounds(zero_matrix(2, 2), symmetric_group(2), 2.0)
        lower = next(r for r in reports if r.check_id == "thm1.2/lower-ratio")
        assert lower.status == "vacuous"

    def test_ratio_is_positive_and_recorded(self):
        a = random_matrix(3, 3, seed=11)
        reports = verify_lp_bounds(a, symmetric_group(3), 1.5)
        lower = next(r for r in reports if r.check_id == "thm1.2/lower-ratio")
        assert lower.status == "pass" and 0 < lower.lhs <= 1.0 + 1e-12
        assert "reference_constant" in lower.extra

    def test_triangle_inequality_for_integrals(self, small_corpus):
        # Minkowski: the norm of the averaged curve never exceeds the average
        # of the per-path norms.  (The average of the plain lp norms is NOT an
        # upper bound at constant 1; the per-path functional exceeds the lp
        # norm by a p-dependent factor, e.g. (p/(p-1))^(1/p) on spikes.)
        for cell in small_corpus:
            fam = full_mapping_family(cell.n, cell.N)
            for mid, a in cell.matrices[:3]:
                curve = mixed_k_curve(a, fam)
                if curve.knots[-1] == 0.0:
                    continue
                for p in (1.5, 2.0, 3.0):
                    mixed = interpolation_norm_from_curve(curve, p)
                    per_path = np.mean([
                        interpolation_norm(path_values(a, g), p)
                        if path_values(a, g).max() > 0 else 0.0
                        for block in iter_member_arrays(fam) for g in block
                    ])
                    assert mixed <= float(per_path) + 1e-9


def _bits(e: ScalarExpectation):
    return (e.mode, e.value.hex(), e.samples,
            None if e.stderr is None else e.stderr.hex())


class TestOnePassLp:
    """Every p of a sequence call has the bits of its own per-p call."""

    # at 400 a path through a 9 of the integer matrices overflows, and one
    # of uniform entries below about 0.17 underflows, so it is rescaled;
    # 2 repeats
    PS = (1.0, 1.5, 2.0, 3.0, 400.0, 2.0)

    @staticmethod
    def matrices(n, N, seed):
        rng = np.random.default_rng(seed)
        return [Matrix(rng.uniform(0, 1, (n, N))),
                Matrix(rng.integers(0, 10, (n, N)).astype(float))]

    @pytest.mark.parametrize("family", [
        *(symmetric_group(n) for n in range(2, 10)),
        full_mapping_family(5, 5),  # one 3,125-row block, above the crossover
        full_mapping_family(7, 5),  # two blocks, the second short
        explicit_family([[2, 1, 2], [1, 2, 3], [1, 2, 3], [3, 3, 1], [1, 2, 3]] * 300,
                        3, 3),  # repeated members, 1,500 rows
    ], ids=lambda f: f.descriptor())
    def test_exact_sequence_calls_keep_the_per_p_bits(self, family):
        for a in self.matrices(family.n, family.N, seed=family.size):
            got = expected_lp_norm(a, family, list(self.PS))
            assert isinstance(got, list) and len(got) == len(self.PS)
            for p, e in zip(self.PS, got):
                assert _bits(e) == _bits(oracle_expected_lp_norm(a, family, p)), p
            one = expected_lp_norm(a, family, 1.5)
            assert isinstance(one, ScalarExpectation) and _bits(one) == _bits(got[1])

    @pytest.mark.parametrize("family", [
        full_mapping_family(3, 3), symmetric_group(5),  # each draw looked up
        symmetric_group(8),  # each draw computed
    ], ids=lambda f: f.descriptor())
    def test_mc_sequence_calls_keep_the_per_p_bits(self, family):
        samples = 2 * 65536 + 5
        for a in self.matrices(family.n, family.N, seed=4):
            got = expected_lp_norm(a, family, self.PS, samples=samples, seed=9)
            for p, e in zip(self.PS, got):
                want = oracle_expected_lp_norm(a, family, p, samples=samples, seed=9)
                assert _bits(e) == _bits(want), p

    def test_verify_sequence_calls_are_the_per_p_reports_in_turn(self):
        a = self.matrices(3, 3, seed=6)[1]
        fam = full_mapping_family(3, 3)
        for samples in (None, 1000):
            got = verify_lp_bounds(a, fam, self.PS, samples=samples, seed=2,
                                   extra_inputs={"id": "x"})
            want = [r for p in self.PS for r in verify_lp_bounds(
                a, fam, p, samples=samples, seed=2, extra_inputs={"id": "x"})]
            assert got == want
            assert [r.inputs["p"] for r in got[::2]] == list(self.PS)

    def test_an_exponent_sequence_is_validated_whole(self):
        a = random_matrix(2, 2, seed=1)
        for bad in ([2.0, 0.5], [math.nan], (1.0, math.inf)):
            with pytest.raises(DomainError, match="p must be finite and >= 1"):
                expected_lp_norm(a, symmetric_group(2), bad)
        assert expected_lp_norm(a, symmetric_group(2), np.array([1.0, 2.0]))[1] == \
            expected_lp_norm(a, symmetric_group(2), 2.0)


def _fsum_outcome(f, x):
    try:
        v = f(x)
    except (OverflowError, ValueError) as e:
        return type(e)
    return "nan" if math.isnan(v) else v.hex()


class TestBlockFsum:
    """``_block_fsum`` is math.fsum, bits and exception type alike."""

    MIN = interpolation._FSUM_MIN_VALUES
    MAX = np.finfo(np.float64).max

    @staticmethod
    def padded(values, size, fill=0.0):
        return np.array(list(values) + [fill] * (size - len(values)), dtype=np.float64)

    def check(self, x):
        x = np.asarray(x, dtype=np.float64)
        assert _fsum_outcome(_block_fsum, x) == _fsum_outcome(
            lambda v: math.fsum(v.tolist()), x)

    @pytest.mark.parametrize("size", [MIN - 1, MIN, MIN + 1, 3125, 65536])
    def test_random_lengths(self, size):
        rng = np.random.default_rng(size)
        self.check(rng.uniform(0, 1, size))
        self.check(rng.uniform(0, 1, size) * 2.0 ** rng.integers(-60, 60, size))

    def test_zeros_and_subnormals(self):
        tiny = 5e-324
        self.check(np.zeros(self.MIN))
        self.check(self.padded([0.0, -0.0], self.MIN))  # -0.0 goes to fsum
        self.check(np.full(self.MIN, -0.0))
        self.check(self.padded([tiny], self.MIN))
        self.check(np.full(self.MIN, tiny))
        rng = np.random.default_rng(3)
        subnormals = rng.integers(1, 2**52, 4096).view(np.float64)
        self.check(subnormals)
        self.check(np.concatenate([subnormals, [2.2250738585072014e-308, 1.0]]))
        # subnormals whose total crosses into the normal range
        self.check(np.full(65536, 2.0**-1030))

    def test_exponents_spanning_the_whole_range(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            fields = rng.integers(0, 2047, 4000)
            bits = (fields << 52) | rng.integers(0, 2**52, 4000)
            x = bits.view(np.float64)
            self.check(x)
            self.check(x[fields < 2030])  # a total inside the float range

    def test_half_ulp_ties_round_to_even(self):
        for head in (1.0, 1.0 + 2.0**-52, 3.0, 2.0**52 - 1, 2.0**-1000 + 2.0**-1050):
            half = float(np.spacing(head)) / 2
            self.check(self.padded([head, half], self.MIN))
            self.check(self.padded([head, half, 2.0**-1074], self.MIN))
            # a tie made of 2,048 small values, one short of it and one past
            for count in (2047, 2048, 2049):
                self.check(self.padded([head], count + 1, half / 2048))

    @pytest.mark.parametrize("span", range(0, interpolation._FSUM_SHIFT_SPAN + 3))
    def test_blocks_of_few_exponents(self, span):
        # up to _FSUM_SHIFT_SPAN binades the significands are summed shifted,
        # as int64; one more and the block goes to math.fsum
        rng = np.random.default_rng(span)
        for low in (1, 1000, 2046 - span):
            fields = rng.integers(low, low + span + 1, 5000)
            fields[:2] = low, low + span
            x = ((fields << 52) | rng.integers(0, 2**52, 5000)).view(np.float64)
            self.check(x)
            self.check(np.concatenate([x, [0.0, 5e-324]]))

    def test_ties_and_overflow_among_few_exponents(self):
        # 2,048 values in [1, 2): a total of 2048 + half an ulp, or 2048 and
        # one and a half ulps, is a tie that rounds to even
        for k in (1, 3, 5):
            self.check(self.padded([1.0 + k * 2.0**-42], 2048, 1.0))
            self.check(self.padded([1.0 + k * 2.0**-42 - 2.0**-52], 2048, 1.0))
        for values in ([self.MAX], [2.0**1023], [self.MAX, 2.0**1023]):
            self.check(self.padded(values, self.MIN, self.MAX))

    def test_totals_beyond_the_float_range_overflow_as_fsum_does(self):
        big = self.MAX
        cases = [
            [big, big],
            [big, 2.0**970],  # a tie that rounds up to 2**1024
            [big, 2.0**969],  # below the tie: the largest double
            [big, 2.0**969, 2.0**969],
            [2.0**1023, 2.0**1023],
            [8.98846567431158e307] * 3,
        ]
        for values in cases:
            x = self.padded(values, self.MIN)
            self.check(x)
        with pytest.raises(OverflowError):
            _block_fsum(self.padded([big, big], self.MIN))

    @pytest.mark.parametrize("odd", [math.inf, -math.inf, math.nan, -1.0, -5e-324])
    def test_non_finite_and_negative_values_go_to_fsum(self, odd):
        for size in (self.MIN - 1, self.MIN, 65536):
            x = np.random.default_rng(5).uniform(0, 1, size)
            x[size // 2] = odd
            self.check(x)
        self.check(self.padded([math.inf, -math.inf], self.MIN))
        self.check(self.padded([math.inf, math.nan], self.MIN))


def _value_rows(kind, rows, width, rng):
    if kind == "uniform":
        return rng.uniform(0, 1, (rows, width))
    if kind == "wide":  # magnitudes from 1e-300 to 1e300
        return rng.uniform(0, 1, (rows, width)) * 10.0 ** rng.integers(-300, 300, (rows, width))
    if kind == "edges":  # zeros of both signs, subnormals, 1e+-300
        return rng.choice([0.0, -0.0, 5e-324, 1e-310, 1e-300, 1.0, 3.0, 1e300], (rows, width))
    if kind == "ties":  # half-ulp ties, which round to even
        return rng.choice([1.0, 2.0**-53, 2.0**-52, 3 * 2.0**-53], (rows, width))
    if kind == "signed-zeros":
        return rng.choice([-0.0, 0.0], (rows, width))
    return rng.standard_normal((rows, width)) * 10.0 ** rng.integers(-20, 20, (rows, width))


class TestRowSums:
    """``_row_sums`` adds whole columns in the order of numpy's own row sum;
    a numpy that sums rows in another order fails here."""

    KINDS = ("uniform", "wide", "edges", "ties", "signed-zeros", "signed")

    @pytest.mark.parametrize("width", range(1, 131))
    def test_bits_of_numpy_row_sums(self, width):
        rng = np.random.default_rng(width)
        for kind in self.KINDS:
            for rows in (1, 3, 1000):
                x = _value_rows(kind, rows, width, rng)
                got = interpolation._row_sums(
                    [np.ascontiguousarray(x[:, j]) for j in range(width)], (rows,))
                assert got.shape == (rows,)
                assert np.array_equal(got.view(np.int64), x.sum(axis=1).view(np.int64)), kind

    @pytest.mark.parametrize("width,split", [(1, 0), (5, 3), (7, 6), (9, 2), (12, 9),
                                             (33, 17), (130, 4)])
    def test_shared_prefix_columns_broadcast(self, width, split):
        # terms shared by a group of rows, as each run's prefix is: a float,
        # or a (g, 1) column, ahead of per-row columns
        rng = np.random.default_rng(width)
        g, rows = 4, 50
        for kind in self.KINDS:
            prefix = _value_rows(kind, g, split, rng)
            suffix = _value_rows(kind, rows, width - split, rng)
            full = np.concatenate([np.repeat(prefix[:, None, :], rows, axis=1),
                                   np.broadcast_to(suffix, (g, rows, width - split))], axis=2)
            got = interpolation._row_sums(
                [prefix[:, i : i + 1] for i in range(split)]
                + [suffix[:, j].copy() for j in range(width - split)], (g, rows))
            assert np.array_equal(got.view(np.int64), full.sum(axis=-1).view(np.int64)), kind
            one = interpolation._row_sums([float(v) for v in prefix[0]]
                                          + [suffix[:, j].copy() for j in range(width - split)],
                                          (rows,))
            assert np.array_equal(one.view(np.int64), full[0].sum(axis=-1).view(np.int64))

    def test_input_columns_are_left_alone(self):
        cols = [np.full(6, 0.5) for _ in range(11)]
        interpolation._row_sums(cols, (6,))
        assert all((c == 0.5).all() for c in cols)


class TestLpByRuns:
    """The exact lp norm walks the enumeration's runs; it must give the bits
    of the gather-and-sum pass, which ``oracle_expected_lp_norm`` keeps."""

    # p = 1 takes no root; at 400 the integer matrices' paths through a 9
    # overflow and the uniform ones' small paths underflow, so they are
    # rescaled
    PS = (1.0, 1.5, 2.0, 3.0, 400.0)

    @staticmethod
    def matrices(n, N, seed):
        rng = np.random.default_rng(seed)
        return [Matrix(rng.uniform(0, 1, (n, N))),
                Matrix(rng.integers(0, 10, (n, N)).astype(float))]

    def check(self, family, matrices=None):
        for a in matrices or self.matrices(family.n, family.N, seed=family.size):
            got = expected_lp_norm(a, family, list(self.PS))
            for p, e in zip(self.PS, got):
                assert _bits(e) == _bits(oracle_expected_lp_norm(a, family, p)), p

    @pytest.mark.parametrize("family", [
        full_mapping_family(7, 5),  # 3,125-row runs that straddle the block boundary
        full_mapping_family(7, 4),  # 4,096-row runs, 16 to a block
        full_mapping_family(3, 70),  # one 70-row table, many prefixes
        full_mapping_family(1, 5000),  # one 5,000-row run, no prefix
        symmetric_group(8), symmetric_group(9),  # 5,040-row runs of one table each
    ], ids=lambda f: f.descriptor())
    def test_built_in_families(self, family):
        self.check(family)

    @pytest.mark.parametrize("chunk", [1, 7, 1000, 5041])
    def test_small_blocks(self, chunk, monkeypatch):
        from osb import families

        monkeypatch.setattr(families, "MEMBER_BLOCK_ROWS", chunk)
        for family in (full_mapping_family(5, 4), symmetric_group(8) if chunk > 1
                       else symmetric_group(5),
                       explicit_family(all_permutations(4) * 3, 4, 4)):
            if family.size // chunk <= 50_000:
                self.check(family)

    def test_explicit_families(self):
        rng = np.random.default_rng(5)
        members = rng.integers(1, 4, (70_000, 3))  # more rows than one block
        members[:, 0] = members[:, 1]  # repeated columns
        self.check(explicit_family(members, 3, 3))
        self.check(explicit_family([[2, 1, 2], [1, 2, 3]] * 20, 3, 3))

    @pytest.mark.parametrize("n,N", [(129, 2), (130, 1), (200, 3)])
    def test_rows_wider_than_numpys_pairwise_block(self, n, N):
        rng = np.random.default_rng(n)
        family = explicit_family(rng.integers(1, N + 1, (300, n)), n, N)
        self.check(family, [Matrix(rng.uniform(0, 1, (n, N))),
                            Matrix(rng.integers(0, 10, (n, N)).astype(float))])

    def test_power_sums_outside_the_normal_range(self):
        # overflowing and underflowing power sums in runs of map:5:5 and sym:8
        for family in (full_mapping_family(5, 5), symmetric_group(8)):
            n, N = family.n, family.N
            rng = np.random.default_rng(n)
            big = Matrix(rng.uniform(0.5, 1, (n, N)) * 1e200)
            tiny = Matrix(rng.uniform(0.5, 1, (n, N)) * 1e-200)
            subnormal = Matrix(rng.uniform(0.5, 1, (n, N)) * 1e-160)  # at p = 2
            mixed = Matrix(np.where(rng.random((n, N)) < 0.5, 1e300, 1e-300))
            self.check(family, [big, tiny, subnormal, mixed, zero_matrix(n, N)])

    def test_rescaled_paths_keep_their_position_order(self, monkeypatch):
        # with 8-row tables a map:5:2 path is two prefix values followed by
        # three table values; every path overflows at p = 2 and 3 and is
        # rescaled, and its scaled powers must add in position order, which
        # the last bits of some of these means of 32 norms show
        from osb import families

        monkeypatch.setattr(families, "_MAP_TABLE_ROWS", 8)
        self.check(full_mapping_family(5, 2), [
            Matrix(np.random.default_rng(seed).uniform(0.5, 1, (5, 2)) * 1e200)
            for seed in range(10)])

    def test_nothing_is_gathered(self, monkeypatch):
        from osb import families, orderstats

        def no_blocks(*args, **kwargs):
            raise AssertionError("a member block was gathered")

        monkeypatch.setattr(orderstats, "iter_member_arrays", no_blocks)
        monkeypatch.setattr(families, "_member_block", no_blocks)
        monkeypatch.setattr(orderstats, "_gather", no_blocks)
        expected_lp_norm(random_matrix(7, 4, seed=1), full_mapping_family(7, 4), self.PS[:4])
        expected_lp_norm(random_matrix(8, 8, seed=1), symmetric_group(8), self.PS[:4])
