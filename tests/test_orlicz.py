import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osb import orlicz
from osb.corpus import DEFAULT_SEED, default_corpus
from osb.errors import DomainError, HypothesisError
from osb.families import explicit_family, full_mapping_family, symmetric_group
from osb.matrices import Matrix
from osb.orderstats import expected_top_sum
from osb.orlicz import (
    DEFAULT_NORM_TOL,
    _band_edges,
    luxemburg_norm,
    orlicz_upper_bound_check,
    top_sum_sandwich_check,
)

from oracles import (
    extreme_point_matrices,
    hinge_norm_batch,
    hinge_norm_closed_form,
    luxemburg_norm_oracle,
    zero_matrix,
)

vectors = st.lists(st.floats(-20, 20, allow_nan=False), min_size=1, max_size=10)


def hinge_sum(x, lam, j):
    """sum of max(|x_i| / lam - 1/j, 0), the level whose unit set defines the
    norm."""
    return sum(max(abs(v) / lam - 1.0 / j, 0.0) for v in x)


class TestHingeFunction:
    def test_parameter_validation(self):
        for j in (0, -1):
            with pytest.raises(DomainError):
                luxemburg_norm([1.0, 2.0], j)
        with pytest.raises(DomainError):
            luxemburg_norm([0.0], 0)


class TestLuxemburgNorm:
    def test_single_spike_closed_form(self):
        # solve M_1(1/lambda) = 1: 1/lambda - 1 = 1
        got = luxemburg_norm([1, 0, 0], 1)
        assert got == pytest.approx(0.5, rel=1e-11)

    def test_two_ones_closed_form(self):
        # solve 2 (1/lambda - 1/2) = 1
        got = luxemburg_norm([1, 1, 0], 2)
        assert got == pytest.approx(1.0, rel=1e-11)

    def test_constant_vector_closed_form(self):
        # n entries c, j = n: solve n (c/lambda - 1/n) = 1 -> lambda = c n / 2
        for n, c in [(3, 1.0), (5, 2.5)]:
            got = luxemburg_norm([c] * n, n)
            assert got == pytest.approx(c * n / 2, rel=1e-11)

    def test_zero_vector(self):
        assert luxemburg_norm([0, 0], 2) == 0.0

    def test_subnormal_entries(self):
        # the lower bracket end max|x| * 1e-6 underflows to 0 here
        assert luxemburg_norm([5e-324], 1) == 5e-324
        got = luxemburg_norm([1e-305, 2e-305], 1)
        assert got == pytest.approx(1e-305, rel=1e-11)

    def test_bracket_correctness(self):
        rng = np.random.default_rng(3)
        tol = DEFAULT_NORM_TOL
        for _ in range(50):
            x = rng.uniform(0, 5, rng.integers(1, 8))
            j = int(rng.integers(1, x.size + 1))
            lam = luxemburg_norm(x, j)
            assert hinge_sum(x, lam, j) <= 1.0
            lam_inner = lam * (1 - 2 * tol)
            assert hinge_sum(x, lam_inner, j) > 1.0

    def test_pinned_bits(self):
        # values of the bisection as first shipped; a change in its
        # arithmetic (bracket, summation, termination) changes report bytes
        rng = np.random.default_rng(2024)
        want = {1: "0x1.b08834d79b305p+1", 3: "0x1.a9d3166e5784bp+2",
                7: "0x1.6596da2a37046p+3", 25: "0x1.5882c4ad10186p+5"}
        for n, bits in want.items():
            x = rng.uniform(0, 10, n)
            j = int(rng.integers(1, n + 1))
            assert luxemburg_norm(x, j).hex() == bits
        got = luxemburg_norm([1e-305, 2e-305], 1)
        assert got.hex() == "0x1.c16c5c5254472p-1014"

    def test_matches_closed_form_on_random_vectors(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            n = int(rng.integers(1, 40))
            x = rng.uniform(-10, 10, n) * (rng.uniform(0, 1, n) < 0.8)
            for j in {1, n, int(rng.integers(1, n + 1)), 3 * n}:
                want = hinge_norm_closed_form(x, j)
                assert luxemburg_norm(x, j) == pytest.approx(want, rel=1e-11)

    def test_matches_closed_form_on_corpus(self, small_corpus):
        checked = 0
        for cell in small_corpus:
            for _, a in cell.matrices:
                x = a.entries.ravel()
                for ell in range(1, cell.n + 1):
                    want = hinge_norm_closed_form(x, ell * cell.N)
                    got = luxemburg_norm(x, ell * cell.N)
                    assert got == pytest.approx(want, rel=1e-11)
                    checked += 1
        assert checked > 0

    @given(vectors, st.floats(0.1, 10, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_absolute_homogeneity(self, x, c):
        j = max(1, len(x) // 2)
        base = luxemburg_norm(x, j)
        scaled = luxemburg_norm([c * v for v in x], j)
        assert scaled == pytest.approx(c * base, rel=1e-9, abs=1e-9)

    @given(vectors, st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_triangle_inequality(self, x, rnd):
        y = [rnd.uniform(-20, 20) for _ in x]
        j = max(1, len(x) // 2)
        lhs = luxemburg_norm([a + b for a, b in zip(x, y)], j)
        rhs = luxemburg_norm(x, j) + luxemburg_norm(y, j)
        assert lhs <= rhs + 1e-9 * max(1.0, rhs)

    def test_permutation_and_sign_invariance(self):
        x = [3.0, -1.0, 2.0, 0.5]
        base = luxemburg_norm(x, 2)
        assert luxemburg_norm([-3.0, 1.0, 0.5, 2.0], 2) == pytest.approx(base, rel=1e-11)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(11)
        xs = rng.uniform(0, 3, (40, 6))
        xs[0] = 0.0
        js = rng.integers(1, 7, 40)
        batch = hinge_norm_batch(xs, js)
        for row, j, got in zip(xs, js, batch):
            want = luxemburg_norm(row, int(j))
            assert got == pytest.approx(want, rel=1e-10, abs=1e-15)


    @pytest.mark.parametrize("x", [[5e-324], [1e-305, 2e-305]])
    def test_batch_matches_scalar_on_tiny_vectors(self, x):
        js = np.arange(1, len(x) + 1)
        batch = hinge_norm_batch(np.array([x] * len(js)), js)
        assert batch.tolist() == [luxemburg_norm(x, int(j)) for j in js]
        assert batch.min() > 0.0


def corpus_inputs(seed):
    """Every (entries, ell * N) that the orlicz sweep hands the norm."""
    return [(a.entries.ravel(), ell * cell.N)
            for cell in default_corpus(seed=seed)
            for _, a in cell.matrices for ell in range(1, cell.n + 1)]


def generated_vectors(rng, count):
    """(vector, j) pairs of several shapes, ``count`` of each, none of whose
    sums overflow."""
    big = sys.float_info.max
    kinds = {
        "uniform": lambda n: rng.uniform(-10, 10, n) * (rng.uniform(0, 1, n) < 0.8),
        "tied": lambda n: rng.integers(0, 3, n) * rng.choice([0.1, 1 / 3, 1.0, 7.0]),
        "sparse-integer": lambda n: rng.integers(-5, 6, n) * (rng.uniform(0, 1, n) < 0.3),
        "cauchy": lambda n: rng.standard_cauchy(n),
        "log-uniform": lambda n: 10.0 ** rng.uniform(-300, 300, n),
        "subnormal": lambda n: rng.uniform(0, 1, n) * 2.0**-1050,
        "near-overflow": lambda n: rng.uniform(0.5, 1, n) * (big / (n + 1)),
    }
    out = []
    for make in kinds.values():
        for _ in range(count):
            n = int(rng.integers(1, 41))
            j = int(rng.choice([1, n, int(rng.integers(1, n + 1)), 3 * n, 10**6]))
            out.append((make(n), j))
    return out


def hinge_step(absx, mid, kink):
    """The plain bisection's decision at ``mid``: does the sum round to <= 1?"""
    return math.fsum(np.maximum(absx / mid - kink, 0.0)) <= 1.0


class TestFilteredBisection:
    """The filtered bisection decides every step as the plain one does."""

    @pytest.mark.parametrize("seed", [DEFAULT_SEED, 20141124])
    def test_bit_identical_on_default_corpus(self, seed):
        inputs = corpus_inputs(seed)
        assert len(inputs) == 5250
        for x, j in inputs:
            assert luxemburg_norm(x, j) == luxemburg_norm_oracle(x, j)

    def test_bit_identical_on_generated_vectors(self):
        inputs = generated_vectors(np.random.default_rng(4242), 3000)
        assert len(inputs) >= 20000
        mismatches = [(x, j) for x, j in inputs
                      if luxemburg_norm(x, j) != luxemburg_norm_oracle(x, j)]
        assert not mismatches

    def test_bit_identical_on_hinge_ball_extreme_points(self):
        # the exact norm is 1 and the hinge sum is exactly 1 there
        for n, N, ell in [(2, 2, 1), (3, 2, 2), (2, 3, 2), (4, 4, 3), (5, 5, 5)]:
            for p in extreme_point_matrices(n, N, ell):
                x = p.entries.ravel()
                assert luxemburg_norm(x, ell * N) == luxemburg_norm_oracle(x, ell * N)

    def test_decisions_at_the_band_edges(self):
        rng = np.random.default_rng(99)
        inputs = generated_vectors(rng, 300) + [
            (p.entries.ravel(), 2 * 3)
            for p in extreme_point_matrices(3, 3, 2)]
        checked = 0
        for x, j in inputs:
            absx = np.abs(np.asarray(x, dtype=np.float64))
            if absx.max() * 1e-6 < sys.float_info.min:
                continue  # the norm rescales these first
            kink = 1.0 / j
            below, above = _band_edges(np.sort(absx)[::-1].cumsum(), kink)
            # just outside the band the filter decides, and so must the sum
            assert hinge_step(absx, np.nextafter(above, math.inf), kink)
            assert not hinge_step(absx, np.nextafter(below, 0.0), kink)
            # just inside it the filter defers to the sum
            for mid in (np.nextafter(above, 0.0), np.nextafter(below, math.inf)):
                assert below <= mid <= above
            checked += 1
        assert checked > 1500

    def test_most_steps_skip_the_hinge_sum(self, monkeypatch):
        counted = [0]
        fsum = math.fsum

        def counting_fsum(values):
            counted[0] += 1
            return fsum(values)

        inputs = corpus_inputs(DEFAULT_SEED)
        monkeypatch.setattr(orlicz.math, "fsum", counting_fsum)
        for x, j in inputs:
            luxemburg_norm(x, j)
        assert counted[0] <= 2 * len(inputs)

    def test_overflowing_sum_is_rescaled(self):
        # sum|x| overflows, so the upper bracket end was inf and so was the
        # result; the norm is 2e308 / 3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = luxemburg_norm([1e308, 1e308], 1)
            batch = hinge_norm_batch(np.array([[1e308, 1e308]]), np.array([1]))
        assert got == pytest.approx(1e308 / 1.5, rel=1e-11)
        assert batch[0] == pytest.approx(got, rel=1e-10)

    def test_overflowing_sum_matches_the_rescaled_oracle(self):
        rng = np.random.default_rng(7)
        finite = 0
        for _ in range(300):
            n = int(rng.integers(2, 30))
            x = rng.uniform(0.5, 1, n) * (sys.float_info.max * min(1.0, 4.0 / n))
            with np.errstate(over="ignore"):
                if np.isfinite(x.sum()):
                    continue
            j = int(rng.integers(1, n + 1))
            shift = n.bit_length() + 1
            # exact unless the norm is beyond the float range, then inf
            want = luxemburg_norm_oracle(np.ldexp(x, -shift), j) * 2.0**shift
            assert luxemburg_norm(x, j) == want
            finite += math.isfinite(want)
        assert finite > 100

    def test_norm_beyond_the_float_range_is_inf(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert luxemburg_norm([1e308] * 4, 1000) == math.inf
            batch = hinge_norm_batch(np.array([[1e308] * 4]), np.array([1000]))
        assert batch[0] == math.inf

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_entries_are_rejected(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="finite"):
                luxemburg_norm([bad, 1.0], 1)


class TestSandwich:
    def test_overflowing_top_sum_is_rejected(self):
        # the sandwich holds (the norm is 1e308) but its float sides do not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="not finite"):
                top_sum_sandwich_check([1e308, 1e308], 2)
            for bad in (math.inf, math.nan):
                with pytest.raises(DomainError):
                    top_sum_sandwich_check([bad, 1.0], 1)
            assert top_sum_sandwich_check([1e308, 1e308], 1).status == "pass"

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
        for p in pts:
            level = hinge_sum(p.entries.ravel(), 1.0, 2)
            assert level == pytest.approx(1.0, abs=1e-15)

    def test_unit_norm(self):
        for n, N, ell in [(2, 2, 1), (3, 2, 2), (2, 3, 2)]:
            for p in extreme_point_matrices(n, N, ell):
                norm = luxemburg_norm(p.entries.ravel(), ell * N)
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
        rep = orlicz_upper_bound_check(zero_matrix(2, 2), symmetric_group(2), 1)
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
            norm = luxemburg_norm(a.entries.ravel(), ell * 3)
            top = a.top_sum(ell * 3)
            assert e <= (2 / 3) * norm + 1e-12
            assert norm <= top + 1e-9

    def test_hypothesis_failure(self):
        fam = explicit_family([[1, 2]], 2, 2)
        with pytest.raises(HypothesisError):
            orlicz_upper_bound_check(zero_matrix(2, 2), fam, 1)
