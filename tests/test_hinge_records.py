"""The hinge record: every hinge norm and top-j sum of a vector made from one
record of its sort, prefix sums, scale and bracket, kept for the latest
vector only.  Each value must have the bits of the plain bisection and of
the sandwich's own sort-and-sum, whatever the order of the calls."""

import math
import sys
import warnings

import numpy as np
import pytest

from osb import orlicz
from osb.corpus import DEFAULT_SEED, default_corpus
from osb.errors import DomainError
from osb.orlicz import luxemburg_norm, top_sum_sandwich_check

from oracles import luxemburg_norm_oracle


def plain_top(x, j):
    """The sandwich's top-j sum as it sorted and summed it on every call."""
    with np.errstate(over="ignore"):
        return float(np.sort(np.abs(np.asarray(x, dtype=np.float64)))[::-1][:j].sum())


def oracle_norm(x, j):
    """The plain bisection; a vector whose sum overflows is first divided by
    the power of two that ``luxemburg_norm`` uses, and the norm multiplied
    back (inf when it is beyond the float range)."""
    absx = np.abs(np.asarray(x, dtype=np.float64))
    with np.errstate(over="ignore"):
        if math.isinf(absx.sum()):
            shift = absx.size.bit_length() + 1
            return luxemburg_norm_oracle(np.ldexp(absx, -shift), j) * 2.0**shift
    return luxemburg_norm_oracle(absx, j)


def sweep_inputs(seed):
    """The (matrix entries, j) pairs of the Orlicz sweep, in its order: the
    map pass over every cell, then the sym pass over the square cells, each
    matrix at ell = 1..n with j = ell * N."""
    corpus = default_corpus(seed=seed)
    return [(a.entries, ell * cell.N)
            for kind in ("map", "sym") for cell in corpus
            if kind == "map" or cell.n == cell.N
            for _, a in cell.matrices for ell in range(1, cell.n + 1)]


@pytest.fixture(scope="module", params=[DEFAULT_SEED, 20141124])
def sweep(request):
    """The sweep's inputs and, for each distinct (entries, j), the hex of
    the oracle norm and of the plain top-j sum."""
    inputs = sweep_inputs(request.param)
    want = {}
    for entries, j in inputs:
        key = (entries.tobytes(), j)
        if key not in want:
            x = entries.ravel()
            want[key] = (luxemburg_norm_oracle(x, j).hex(), plain_top(x, j).hex())
    return inputs, want


def check_calls(inputs, want):
    """Each input as the sweep calls it, flattened: the norm, then the
    sandwich."""
    for entries, j in inputs:
        x = entries.ravel()
        norm, top = want[x.tobytes(), j]
        assert luxemburg_norm(x, j).hex() == norm
        report = top_sum_sandwich_check(x, j)
        assert (report.extra["norm"].hex(), report.rhs.hex()) == (norm, top)
        assert report.status == "pass"


class TestCorpusBits:
    def test_map_then_sym_sweep_order(self, sweep):
        inputs, want = sweep
        assert len(inputs) == 6300 and len(want) < len(inputs)
        check_calls(inputs, want)

    def test_shuffled(self, sweep):
        inputs, want = sweep
        order = np.random.default_rng(5).permutation(len(inputs))
        check_calls([inputs[i] for i in order], want)

    def test_vectors_interleaved(self, sweep):
        # every vector's first j, then every vector's second j, ...: no two
        # consecutive calls share a vector, and each vector comes back after
        # the slot has moved on
        inputs, want = sweep
        seen = {}
        rounds = []
        for entries, _ in inputs:
            key = entries.tobytes()
            seen[key] = seen.get(key, -1) + 1
            rounds.append(seen[key])
        order = sorted(range(len(inputs)), key=rounds.__getitem__)
        check_calls([inputs[i] for i in order], want)

    def test_a_matrix_gives_the_bits_of_its_entries(self, sweep):
        inputs, want = sweep
        for entries, j in inputs[::5]:
            orlicz._last = None  # the 2-d call makes its own record
            assert luxemburg_norm(entries, j).hex() == want[entries.tobytes(), j][0]
            orlicz._last = None
            report = top_sum_sandwich_check(entries, j)
            assert report == top_sum_sandwich_check(entries.ravel(), j)
            assert report.rhs.hex() == want[entries.tobytes(), j][1]


def test_a_matrix_is_flattened():
    # sorting rows, not entries, gave a top of 10.5 and a failing sandwich
    report = top_sum_sandwich_check([[1, 5], [4, 0.5]], 2)
    assert report.rhs == 9.0 and report.status == "pass"
    assert report == top_sum_sandwich_check([1, 5, 4, 0.5], 2)
    assert report.inputs["length"] == 4
    assert luxemburg_norm([[1, 5], [4, 0.5]], 3) == luxemburg_norm_oracle([1, 5, 4, 0.5], 3)


SCALED = {
    # max * 1e-6 underflows, so the vector is scaled up
    "subnormal": [5e-324, 0.0, 1e-320],
    "tiny": [1e-305, 2e-305, 3e-310, 0.0],
    # max * n is above half the float range but the sum is finite: no scale
    "huge": [1e308, 1e300, 5.0],
    # the sum overflows, so the vector is scaled down
    "overflowing": [1e308, 1e308, 1e-300, 0.0],
    "overflowing, inf norm": [1e308] * 4,
}


@pytest.mark.parametrize("x", list(SCALED.values()), ids=list(SCALED))
def test_scale_branches(x):
    n = len(x)
    js = [1, 2, n, 3 * n, 1000, 1]
    for _ in range(2):
        for j in js:
            assert luxemburg_norm(x, j).hex() == oracle_norm(x, j).hex()
            top = plain_top(x, j)
            if j <= n and math.isfinite(top):
                report = top_sum_sandwich_check(x, j)
                assert report.rhs.hex() == top.hex()
                assert report.extra["norm"].hex() == oracle_norm(x, j).hex()


def test_scale_branches_on_random_vectors():
    rng = np.random.default_rng(31)
    big = sys.float_info.max
    kinds = [
        lambda n: rng.uniform(0, 1, n) * 2.0**-1050,
        lambda n: 10.0 ** rng.uniform(-320, -290, n),
        lambda n: rng.uniform(0.5, 1, n) * (big / (n + 1)),
        lambda n: rng.uniform(0.5, 1, n) * (big * min(1.0, 4.0 / n)),
    ]
    for make in kinds:
        for _ in range(40):
            n = int(rng.integers(1, 30))
            x = make(n)
            for j in (1, int(rng.integers(1, n + 1)), n, 1000):
                assert luxemburg_norm(x, j).hex() == oracle_norm(x, j).hex()
                top = plain_top(x, j)
                if j <= n and math.isfinite(top):
                    assert top_sum_sandwich_check(x, j).rhs.hex() == top.hex()


def test_a_vector_changed_in_place_gets_a_new_record():
    x = np.array([3.0, 1.0, 2.0, 0.5])
    before = luxemburg_norm(x, 2)
    assert top_sum_sandwich_check(x, 2).rhs == 5.0
    x[1] = 9.0
    assert luxemburg_norm(x, 2).hex() == luxemburg_norm_oracle(x, 2).hex() != before.hex()
    assert top_sum_sandwich_check(x, 2).rhs == 12.0
    x[1] = 1.0
    assert luxemburg_norm(x, 2) == before


RAISING = [
    (luxemburg_norm, [1.0, 2.0], 0, "j must be >= 1"),
    (luxemburg_norm, [1.0, 2.0], -3, "j must be >= 1"),
    (luxemburg_norm, [math.nan, 1.0], 1, "the hinge norm needs finite entries"),
    (luxemburg_norm, [1.0, math.inf], 1, "the hinge norm needs finite entries"),
    (luxemburg_norm, [[1.0], [-math.inf]], 2, "the hinge norm needs finite entries"),
    (top_sum_sandwich_check, [1.0, 2.0], 0, "j=0 out of range 1..2"),
    (top_sum_sandwich_check, [1.0, 2.0], 3, "j=3 out of range 1..2"),
    (top_sum_sandwich_check, [[1.0, 2.0], [3.0, 4.0]], 5, "j=5 out of range 1..4"),
    (top_sum_sandwich_check, [math.nan, 1.0], 1, "the top-j sum is not finite"),
    (top_sum_sandwich_check, [1.0, -math.inf], 2, "the top-j sum is not finite"),
    (top_sum_sandwich_check, [1e308, 1e308], 2, "the top-j sum is not finite"),
]


@pytest.mark.parametrize("call,x,j,text", RAISING)
def test_a_raising_call_keeps_its_error_and_no_record(call, x, j, text):
    luxemburg_norm([4.0, 1.0], 1)
    kept = orlicz._last
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError) as info:
            call(x, j)
    assert type(info.value) is DomainError and str(info.value) == text
    assert orlicz._last is kept


def test_the_slot_holds_one_vector():
    a, b = np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0])
    luxemburg_norm(a, 1)
    luxemburg_norm(a, 2)
    record = orlicz._last
    assert record.key == a.tobytes() and set(record.norms) == {1, 2}
    top_sum_sandwich_check(a, 2)
    assert orlicz._last is record and set(record.norms) == {1, 2}
    top_sum_sandwich_check(b, 1)
    assert orlicz._last.key == b.tobytes()
    # nothing but this name and getrefcount's argument holds a's record
    assert sys.getrefcount(record) == 2
    luxemburg_norm(a, 1)
    assert orlicz._last is not record and orlicz._last.norms == {1: record.norms[1]}
