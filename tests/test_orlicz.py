import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osb.errors import DomainError, HypothesisError
from osb.families import explicit_family, full_mapping_family, symmetric_group
from osb.matrices import Matrix
from osb.orderstats import expected_top_sum
from osb.orlicz import (
    OrliczFunction,
    check_orlicz_shape,
    extreme_point_matrices,
    hinge_norm_batch,
    luxemburg_norm,
    orlicz_upper_bound_check,
    top_sum_orlicz,
    top_sum_sandwich_check,
)

vectors = st.lists(st.floats(-20, 20, allow_nan=False), min_size=1, max_size=10)


class TestHingeFunction:
    def test_values(self):
        assert top_sum_orlicz(1).evaluate(2.0) == 1.0
        assert top_sum_orlicz(3).evaluate(1.0) == pytest.approx(2.0 / 3.0)
        for j in (1, 2, 5):
            assert top_sum_orlicz(j).evaluate(1.0 / j) == 0.0

    def test_strict_convexity_is_the_kink(self):
        M = top_sum_orlicz(4)
        assert M.strict_convexity(0.25)
        assert not M.strict_convexity(0.35)
        assert not M.strict_convexity(0.15)

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            top_sum_orlicz(0)

    def test_shape_check_accepts_convex(self):
        assert check_orlicz_shape(top_sum_orlicz(3))
        square = OrliczFunction(lambda t: t * t, lambda t: True)
        assert check_orlicz_shape(square)

    def test_shape_check_rejects_concave(self):
        root = OrliczFunction(math.sqrt, lambda t: False)
        assert not check_orlicz_shape(root)

    def test_must_vanish_at_zero(self):
        with pytest.raises(DomainError):
            OrliczFunction(lambda t: t + 1.0, lambda t: False)


class TestLuxemburgNorm:
    def test_single_spike_closed_form(self):
        # solve M_1(1/lambda) = 1: 1/lambda - 1 = 1
        got = luxemburg_norm([1, 0, 0], top_sum_orlicz(1))
        assert got == pytest.approx(0.5, rel=1e-11)

    def test_two_ones_closed_form(self):
        # solve 2 (1/lambda - 1/2) = 1
        got = luxemburg_norm([1, 1, 0], top_sum_orlicz(2))
        assert got == pytest.approx(1.0, rel=1e-11)

    def test_constant_vector_closed_form(self):
        # n entries c, j = n: solve n (c/lambda - 1/n) = 1 -> lambda = c n / 2
        for n, c in [(3, 1.0), (5, 2.5)]:
            got = luxemburg_norm([c] * n, top_sum_orlicz(n))
            assert got == pytest.approx(c * n / 2, rel=1e-11)

    def test_zero_vector(self):
        assert luxemburg_norm([0, 0], top_sum_orlicz(2)) == 0.0

    def test_subnormal_entries(self):
        # the lower bracket end max|x| * 1e-6 underflows to 0 here
        assert luxemburg_norm([5e-324], top_sum_orlicz(1)) == 5e-324
        got = luxemburg_norm([1e-305, 2e-305], top_sum_orlicz(1))
        assert got == pytest.approx(1e-305, rel=1e-11)

    def test_bracket_correctness(self):
        rng = np.random.default_rng(3)
        tol = 1e-12
        for _ in range(50):
            x = rng.uniform(0, 5, rng.integers(1, 8))
            j = int(rng.integers(1, x.size + 1))
            M = top_sum_orlicz(j)
            lam = luxemburg_norm(x, M, tol)
            assert sum(M.evaluate(v / lam) for v in x) <= 1.0
            lam_inner = lam * (1 - 2 * tol)
            assert sum(M.evaluate(v / lam_inner) for v in x) > 1.0

    @given(vectors, st.floats(0.1, 10, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_absolute_homogeneity(self, x, c):
        j = max(1, len(x) // 2)
        M = top_sum_orlicz(j)
        base = luxemburg_norm(x, M)
        scaled = luxemburg_norm([c * v for v in x], M)
        assert scaled == pytest.approx(c * base, rel=1e-9, abs=1e-9)

    @given(vectors, st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_triangle_inequality(self, x, rnd):
        y = [rnd.uniform(-20, 20) for _ in x]
        j = max(1, len(x) // 2)
        M = top_sum_orlicz(j)
        lhs = luxemburg_norm([a + b for a, b in zip(x, y)], M)
        rhs = luxemburg_norm(x, M) + luxemburg_norm(y, M)
        assert lhs <= rhs + 1e-9 * max(1.0, rhs)

    def test_permutation_and_sign_invariance(self):
        x = [3.0, -1.0, 2.0, 0.5]
        M = top_sum_orlicz(2)
        base = luxemburg_norm(x, M)
        assert luxemburg_norm([-3.0, 1.0, 0.5, 2.0], M) == pytest.approx(base, rel=1e-11)

    def test_generic_orlicz_function_outside_hinge_bracket(self):
        # M(t) = 1000 t^2 forces the norm above the default upper bracket
        M = OrliczFunction(lambda t: 1000 * t * t, lambda t: True)
        got = luxemburg_norm([1.0], M)
        assert got == pytest.approx(math.sqrt(1000.0), rel=1e-9)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(11)
        xs = rng.uniform(0, 3, (40, 6))
        xs[0] = 0.0
        js = rng.integers(1, 7, 40)
        batch = hinge_norm_batch(xs, js)
        for row, j, got in zip(xs, js, batch):
            want = luxemburg_norm(row, top_sum_orlicz(int(j)))
            assert got == pytest.approx(want, rel=1e-10, abs=1e-15)

    def test_tol_validation(self):
        with pytest.raises(DomainError):
            luxemburg_norm([1.0], top_sum_orlicz(1), tol=0.0)


class TestSandwich:
    def test_tight_lower_example(self):
        rep = top_sum_sandwich_check([1, 0, 0, 0], 1)
        assert rep.status == "pass"
        assert rep.extra["norm"] == pytest.approx(0.5, rel=1e-9)
        assert rep.lhs == 0.5

    def test_two_ones_example(self):
        rep = top_sum_sandwich_check([1, 1, 0], 2)
        assert rep.status == "pass"
        assert rep.extra["norm"] == pytest.approx(1.0, rel=1e-9)
        assert rep.rhs == 2.0

    def test_constant_vector(self):
        rep = top_sum_sandwich_check([2.0] * 5, 5)
        assert rep.status == "pass"
        assert rep.extra["norm"] == pytest.approx(5.0, rel=1e-9)

    def test_random_vectors_all_j(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            x = rng.uniform(0, 10, rng.integers(1, 12))
            for j in range(1, x.size + 1):
                assert top_sum_sandwich_check(x, j).status == "pass"

    def test_j_validation(self):
        with pytest.raises(DomainError):
            top_sum_sandwich_check([1, 2], 3)


class TestExtremePoints:
    def test_count_and_level_set(self):
        pts = list(extreme_point_matrices(2, 2, 1))
        assert len(pts) == 4
        M = top_sum_orlicz(2)
        for p in pts:
            level = sum(M.evaluate(v) for v in p.entries.ravel())
            assert level == pytest.approx(1.0, abs=1e-15)

    def test_unit_norm(self):
        for n, N, ell in [(2, 2, 1), (3, 2, 2), (2, 3, 2)]:
            for p in extreme_point_matrices(n, N, ell):
                norm = luxemburg_norm(p.entries.ravel(), top_sum_orlicz(ell * N))
                assert norm == pytest.approx(1.0, rel=1e-9)

    def test_entry_pattern(self):
        pts = list(extreme_point_matrices(2, 3, 1))
        base = 1.0 / 3.0
        bumped = [np.argwhere(p.entries == 1.0 + base) for p in pts]
        assert all(len(b) == 1 for b in bumped)
        assert len({tuple(b[0]) for b in bumped}) == 6


class TestUpperBound:
    def test_equality_on_extreme_points(self):
        fam = symmetric_group(2)
        for p in extreme_point_matrices(2, 2, 1):
            rep = orlicz_upper_bound_check(p, fam, 1)
            assert rep.status == "pass"
            assert rep.lhs == pytest.approx(1.0, abs=1e-12)      # E = 2/N
            assert rep.rhs == pytest.approx(1.0, rel=1e-9)       # (2/N) * norm

    def test_zero_matrix(self):
        rep = orlicz_upper_bound_check(Matrix.zeros(2, 2), symmetric_group(2), 1)
        assert rep.status == "pass" and rep.lhs == 0.0 and rep.rhs == 0.0

    def test_random_matrices(self):
        rng = np.random.default_rng(77)
        for n, N in [(2, 2), (3, 2), (2, 3), (3, 3)]:
            fam = full_mapping_family(n, N)
            for _ in range(5):
                a = Matrix(rng.uniform(0, 1, (n, N)))
                for ell in range(1, n + 1):
                    rep = orlicz_upper_bound_check(a, fam, ell)
                    assert rep.status == "pass"

    def test_combined_chain(self):
        # expectation <= (2/N) norm <= (2/N) top sum
        rng = np.random.default_rng(78)
        a = Matrix(rng.uniform(0, 1, (3, 3)))
        fam = symmetric_group(3)
        for ell in (1, 2, 3):
            e = expected_top_sum(a, fam, ell).value
            norm = luxemburg_norm(a.entries.ravel(), top_sum_orlicz(ell * 3))
            top = a.top_sum(ell * 3)
            assert e <= (2 / 3) * norm + 1e-12
            assert norm <= top + 1e-9

    def test_hypothesis_failure(self):
        fam = explicit_family([[1, 2]], 2, 2)
        with pytest.raises(HypothesisError):
            orlicz_upper_bound_check(Matrix.zeros(2, 2), fam, 1)

    def test_mc_fallback(self):
        rng = np.random.default_rng(79)
        a = Matrix(rng.uniform(0, 1, (3, 3)))
        fam = full_mapping_family(3, 3)
        rep = orlicz_upper_bound_check(a, fam, 2, samples=20000, seed=3)
        assert rep.mode == "mc" and rep.stderr is not None
        assert rep.status == "pass"
