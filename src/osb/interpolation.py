"""K-functionals for the (sum, max) couple, the derived interpolation norm,
and expected lp path norms with their two-sided benchmark.

For a vector x the K-functional at weight t is the piecewise-linear curve
through the partial sums of the decreasing rearrangement:
K(t) = x*_1 + ... + x*_floor(t) + (t - floor(t)) x*_ceil(t), saturating at the
full sum for t >= n.  Averaging over a map family commutes with this formula,
so the mixed curve is the same object built from expected order statistics.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError
from .families import (MapFamily, _member_runs, _one_run_index, pairwise_constant,
                       require_uniform_marginals)
from .matrices import Matrix
from .orderstats import (
    RunningMoments,
    _blocks,
    _check_dims,
    _draw_stats,
    _offsets,
    expected_top_sum,
)
from .reports import (
    STATUS_FAIL,
    STATUS_PASS,
    VerificationReport,
    inequality_report,
    vacuous_report,
)

_MC_CHUNK = 65536
_TINY = np.finfo(np.float64).tiny


@dataclass(frozen=True)
class KFunctionalCurve:
    """Piecewise-linear K-functional curve with integer breakpoints.

    ``slopes[k-1]`` is the slope on [k-1, k]; for a single vector these are
    the rearranged magnitudes, for a mixed curve the expected k-th largest
    path values.  Slopes must be finite, nonnegative and nonincreasing.
    """

    slopes: tuple[float, ...]

    def __post_init__(self):
        if not self.slopes:
            raise DomainError("curve needs at least one slope")
        arr = np.asarray(self.slopes, dtype=np.float64)
        if not np.isfinite(arr).all() or arr.min() < 0 or np.any(arr[:-1] < arr[1:] - 1e-12):
            raise DomainError("slopes must be finite, nonnegative and nonincreasing")

    @classmethod
    def from_vector(cls, x: Sequence[float]) -> "KFunctionalCurve":
        arr = np.sort(np.abs(np.asarray(x, dtype=np.float64)))[::-1]
        if arr.size == 0:
            raise DomainError("vector must be nonempty")
        return cls(tuple(float(v) for v in arr))

    @property
    def n(self) -> int:
        return len(self.slopes)

    @cached_property
    def knots(self) -> tuple[float, ...]:
        """Curve values at the integer breakpoints 0..n."""
        ps = [0.0]
        for s in self.slopes:
            ps.append(ps[-1] + s)
        return tuple(ps)

    def value(self, t: float) -> float:
        if t < 0:
            raise DomainError("t must be nonnegative")
        if t >= self.n:
            return self.knots[self.n]
        k = int(math.floor(t))
        frac = t - k
        v = self.knots[k]
        if frac > 0:
            v += frac * self.slopes[k]
        return v


def k_functional(x: Sequence[float], t: float) -> float:
    """K(x, t) for the (sum, max) couple, in closed piecewise-linear form."""
    return KFunctionalCurve.from_vector(x).value(t)


def mixed_k_curve(a: Matrix, family: MapFamily) -> KFunctionalCurve:
    """The family average of the per-path K-functional curves, enumerated
    exactly.

    Averaging commutes with the closed form, so the mixed curve's slopes are
    the expected order statistics of the path values.
    """
    return KFunctionalCurve(expected_top_sum(a, family, a.rows).per_k)


# ---------------------------------------------------------------------------
# the (theta, p) interpolation norm with theta = 1 - 1/p


@lru_cache(maxsize=None)
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """The nodes and weights of the 32-point Gauss-Legendre rule on [-1, 1],
    computed on first use: importing ``numpy.polynomial`` costs every
    process that never integrates a curve a few milliseconds."""
    from numpy.polynomial.legendre import leggauss

    return leggauss(32)


def interpolation_norm_from_curve(curve: KFunctionalCurve, p: float) -> float:
    """(integral of [t^-theta K(t)]^p dt/t)^(1/p) for theta = 1 - 1/p.

    The integrand reduces to t^-p K(t)^p.  On (0, 1) the curve is linear
    through the origin and the piece integrates in closed form to K(1)^p;
    beyond n the curve is flat and the improper tail is K(n)^p n^(1-p)/(p-1).
    Each middle unit interval uses a fixed 32-point Gauss-Legendre rule, so
    results are bit-reproducible.  A curve whose integral leaves the normal
    float range is integrated again divided by the power of two at or below
    its first slope, so that K(1) lies in [1, 2), and the norm scaled back.
    If that integral leaves the range too, as (K(t)/t)^p does for p above
    about 1024, the curve is divided by its first slope, so that K(1) = 1
    and K(t)/t <= 1, and the tail is taken as (K(n)/n)^p n/(p-1): no piece
    overflows, and the integral is at least 1.
    """
    if not math.isfinite(p) or p <= 1.0:
        raise DomainError("the integral norm requires p > 1")
    n, knots, slopes, scale = curve.n, curve.knots, curve.slopes, 1.0
    if knots[n] == 0.0:
        return 0.0
    nodes, weights = _gauss_legendre()
    for attempt in range(3):
        try:
            pieces = [knots[1] ** p]
            with np.errstate(over="ignore", under="ignore"):
                for k in range(1, n):
                    t = k + 0.5 + 0.5 * nodes
                    kt = knots[k] + (t - k) * slopes[k]
                    pieces.append(0.5 * float(np.sum(weights * (kt / t) ** p)))
            if attempt < 2:
                pieces.append(knots[n] ** p * n ** (1.0 - p) / (p - 1.0))
            else:
                pieces.append((knots[n] / n) ** p * n / (p - 1.0))
            total = math.fsum(pieces)
        except OverflowError:
            total = math.inf
        if attempt == 2 or _TINY <= total < math.inf:
            return scale * total ** (1.0 / p)
        first = curve.slopes[0]
        scale = math.ldexp(1.0, math.frexp(first)[1] - 1) if attempt == 0 else first
        slopes = [s / scale for s in curve.slopes]
        knots = [0.0, *itertools.accumulate(slopes)]


def interpolation_norm(x: Sequence[float], p: float) -> float:
    """Interpolation norm of a vector (p > 1; p = 1 is rejected)."""
    return interpolation_norm_from_curve(KFunctionalCurve.from_vector(x), p)


# ---------------------------------------------------------------------------
# expected lp path norms and the head/tail benchmark


@dataclass(frozen=True)
class ScalarExpectation:
    value: float
    mode: str
    samples: Optional[int] = None
    stderr: Optional[float] = None


# Below this many values math.fsum on a list is faster: measured with numpy
# 2.4 on one core, the route below took 28-47 us from 256 to 2,048 lp norms,
# fsum 33 us at 1,024 and 49 us at 1,536; at 65,536, 0.8 ms against 2.1 ms.
_FSUM_MIN_VALUES = 1280
_FSUM_PIECE = 8192  # values per pass, whose temporaries stay in a core's cache
_FSUM_SHIFT_SPAN = 10  # 53-bit significands shifted this far fit int64


def _block_fsum(x: np.ndarray) -> float:
    """math.fsum(x), bits and exceptions alike.

    A nonnegative finite double is m * 2**(e - 1075), with 53-bit significand
    m and e its exponent field or 1.  When the block's exponents span at
    most _FSUM_SHIFT_SPAN, each m is shifted to the smallest e, where it
    fits 63 bits, and the high and low 32 bits are summed as int64, exactly.
    The integer total is divided once by a power of two, which Python rounds
    half to even as fsum does.  Short arrays, wider spans and any negative
    (-0.0 too), infinite or NaN value go to math.fsum.
    """
    if x.size >= _FSUM_MIN_VALUES:
        bits = x.view(np.int64)
        # a negative value, read as unsigned, lies above every finite one
        top = int(bits.view(np.uint64).max())
        base = max(int(bits.min()) >> 52, 1)
        if top < 0x7FF0000000000000 and (top >> 52) - base <= _FSUM_SHIFT_SPAN:
            total = 0
            for start in range(0, x.size, _FSUM_PIECE):
                piece = bits[start : start + _FSUM_PIECE]
                e = np.maximum(piece >> 52, 1)
                m = (piece - ((e - 1) << 52)) << (e - base)  # implicit bit included
                total += (int((m >> 32).sum()) << 32) + int((m & 0xFFFFFFFF).sum())
            shift = base - 1075
            return total / (1 << -shift) if shift < 0 else float(total << shift)
    return math.fsum(x.tolist())


# numpy's pairwise summation adds at most this many values in one block
_PAIRWISE_BLOCK = 128


def _row_sums(terms: list, shape: tuple) -> np.ndarray:
    """The sums, of the given shape, of the rows whose i-th values are
    ``terms[i]``, with the bits of numpy's ``sum(axis=-1)`` on those rows.
    Each term is a float or an array that broadcasts to ``shape``: a (g, 1)
    column, say, is shared by every row of one of g groups.  ``terms`` may
    also be one array whose rows are the terms.

    numpy (``pairwise_sum``, unchanged through 2.4) adds a row of fewer than
    8 values left to right onto 0.0.  A row of 8 to 128 values goes to eight
    accumulators, accumulator j taking values j, j + 8, ... of the first
    8 * (n // 8); they are combined as ((r0 + r1) + (r2 + r3)) + ((r4 + r5)
    + (r6 + r7)), and the rest are added left to right onto that.  Here each
    add is one elementwise add of whole columns, in that order, into a fresh
    array of zeros; an accumulator starting from 0.0 only turns a -0.0 into
    +0.0, which numpy's final add onto 0.0 does too.  An array of fewer
    than 8 rows is summed over its first axis, which adds them in the same
    order onto 0.0.  The accumulators are
    made and combined one pair at a time, so at most three are alive.
    Longer rows are stacked and summed by numpy.  Tests pin this against
    the installed numpy.
    """
    def chain(values):
        total = np.zeros(shape)
        for v in values:
            total += v
        return total

    def pair(x, y):
        x += y
        return x

    n = len(terms)
    if n < 8:
        return chain(terms) if isinstance(terms, list) else terms.sum(axis=0)
    if n > _PAIRWISE_BLOCK:
        return np.stack([np.broadcast_to(t, shape) for t in terms], axis=-1).sum(axis=-1)
    body = n - n % 8
    acc = [terms[j:body:8] for j in range(8)]
    total = pair(pair(pair(chain(acc[0]), chain(acc[1])), pair(chain(acc[2]), chain(acc[3]))),
                 pair(pair(chain(acc[4]), chain(acc[5])), pair(chain(acc[6]), chain(acc[7]))))
    for t in terms[body:]:
        total += t
    return total


def expected_lp_norm(
    a: Matrix,
    family: MapFamily,
    p: float | Sequence[float],
    *,
    cap: int | None = None,
    samples: int | None = None,
    seed: int = 0,
) -> ScalarExpectation | list[ScalarExpectation]:
    """Average of the lp norm of the path values, exact or Monte Carlo.

    ``p`` is one exponent or a sequence, as ``numpy.quantile`` takes ``q``; a
    sequence gives a list in its order, every p from one stream of draws,
    each with the bits of its own one-p call.

    A path's power sum adds its values as ``_row_sums`` does, so it has
    the bits of numpy's sum of the gathered row.  An exact pass over a
    family enumerated as one run takes every p's powers through the family's
    path index, one take per 8,192 paths, and does its bookkeeping once for
    all p (see ``_one_run_norms``).  Any other exact pass
    walks the enumeration's blocks of run groups (``families._member_runs``)
    once and gathers no member: each prefix position's powers are one value
    per run of a group, and each column of its shared table's powers are
    taken once.  Each p's norms are summed per block by ``_block_fsum``, so
    every value is the one the gathered blocks give.  A Monte Carlo chunk is
    one group without prefix.
    """
    _check_dims(a, family)
    one = np.ndim(p) == 0
    ps = [p] if one else list(p)
    if not all(math.isfinite(q) and q >= 1.0 for q in ps):
        raise DomainError("p must be finite and >= 1")

    if samples is None and (index := _one_run_index(family, cap)) is not None:
        out = _one_run_norms(a, ps, index)
        return out[0] if one else out
    # a power is a function of the entry alone, so the entries are raised
    # once per p and read at the flat positions that _gather reads
    with np.errstate(over="ignore", under="ignore"):
        tables = [a.entries if q == 1.0 else a.entries**q for q in ps]
    offsets = _offsets(*a.entries.shape)[:, None]

    def positions(values: np.ndarray, first: int) -> np.ndarray:
        """The flat positions of an (R, r) array of values at positions
        first, first + 1, ..., one row per position: one take of them gives
        every column's powers, each contiguous."""
        return np.add(values.T, offsets[first : first + values.shape[1]], order="C")

    def norm(q: float, table: np.ndarray, power_sums, flat_paths) -> np.ndarray:
        """The lp norms, p = q, of some paths from ``table``, the entries
        raised to q: ``power_sums(table)`` adds each path's values, and
        ``flat_paths`` is as ``_rescale`` takes it.  One call per p frees
        its sums when it returns, before the next p's are made: holding them
        across p made an exact lp call on map:7:8 take 7,450 minor page
        faults instead of 988, and about 9 % longer."""
        if q == 1.0:
            return power_sums(table)
        with np.errstate(over="ignore", under="ignore"):
            sums = power_sums(table)
            out = sums ** (1.0 / q)
            low, high = sums.min(), sums.max()
            if not (low >= _TINY and high < np.inf or _only_zero_paths_fail(a, table, high)):
                _rescale(a, q, sums, out, flat_paths)
        return out

    def group_norms(prefixes: np.ndarray, rows: np.ndarray) -> list[np.ndarray]:
        """Each p's norms of the paths of a ``_member_runs`` group, in its
        order: the powers of each prefix position as a (g, 1) column, and of
        each column of ``rows`` as one value per row."""
        head, tail = positions(prefixes, 0), positions(rows, prefixes.shape[1])
        g, R = prefixes.shape[0], rows.shape[0]
        return [norm(q, table, lambda t: _row_sums(
                    [*t.take(head)[:, :, None], *t.take(tail)], (g, R)).ravel(),
                    lambda bad: np.concatenate((head[:, bad // R], tail[:, bad % R])).T)
                for q, table in zip(ps, tables)]

    if samples is None:
        totals = [[] for _ in ps]
        for groups in _member_runs(family, cap):
            parts = [group_norms(prefixes, rows) for prefixes, rows in groups]
            for t, block in zip(totals, zip(*parts)):
                t.append(_block_fsum(block[0] if len(block) == 1 else np.concatenate(block)))
            del parts  # not held while the next block is computed
        out = [ScalarExpectation(value=math.fsum(t) / family.size, mode="exact")
               for t in totals]
    else:
        no_prefix = np.zeros((1, 0), dtype=np.int64)

        def block_norms(block: np.ndarray) -> dict:
            return dict(enumerate(group_norms(no_prefix, block)))

        # on a small family each draw's norms are looked up (see _draw_stats)
        draw_norms = _draw_stats(family, samples, block_norms)
        moments = [RunningMoments() for _ in ps]
        for block in _blocks(family, _MC_CHUNK, samples=samples, seed=seed):
            # popped, so no norms are held while the next chunk is drawn:
            # the sampler then reuses their memory
            norms_by_p = draw_norms(block)
            for i, acc in enumerate(moments):
                acc.add(norms_by_p.pop(i))
        out = [ScalarExpectation(value=m.mean, mode="mc", samples=samples,
                                 stderr=m.stderr()) for m in moments]
    return out[0] if one else out


def _rescale(a: Matrix, q: float, sums: np.ndarray, out: np.ndarray, flat_paths):
    """Each norm in ``out`` whose power sum in ``sums``, p = q, left the
    normal range, again from its path scaled by its largest entry:
    ``flat_paths(rows)`` gives the flat positions of the listed paths.  An
    all-zero path keeps its norm of 0.  Called with overflow and underflow
    ignored."""
    bad = np.flatnonzero(~((sums >= _TINY) & (sums < np.inf)))
    paths = a.entries.take(flat_paths(bad))
    top = paths.max(axis=1, keepdims=True)
    scaled = np.divide(paths, top, out=np.zeros_like(paths), where=top > 0)
    out[bad] = top[:, 0] * (scaled**q).sum(axis=1) ** (1.0 / q)


def _only_zero_paths_fail(a: Matrix, table: np.ndarray, high: float) -> bool:
    """Whether the paths whose power sums, from ``table`` (the entries
    raised to q), left the normal range are all-zero paths, whose norm 0
    is already the one ``_rescale`` would give them.  True when no sum
    overflowed (``high`` is the largest) and every positive entry's power
    in ``table`` is normal: a path with a positive entry then sums to at
    least that power, as rounded sums of nonnegative values do.  An entry
    whose power underflows, 1e-120 at p = 3 say, still needs the
    rescale."""
    return high < math.inf and np.min(
        table, where=a.entries > 0, initial=math.inf) >= _TINY


# paths per take of a one-run family's exact lp: every default-corpus family
# is one piece, and a piece of the 8! explicit family's powers at 4 p holds
# 2 MB where one take of them all holds 10 MB
_LP_PIECE = 8192


def _one_run_norms(a: Matrix, ps: list, index: np.ndarray) -> list:
    """The exact lp of a one-run family for every p, its bookkeeping done
    once: one errstate, every p's powers taken through the path index
    _LP_PIECE paths at a time, as (p, position, path), each piece's row
    sums in one ``_row_sums`` call, and one range check; only the p != 1
    rows that fail it, other than by all-zero paths, are rescaled, p by p.
    Row sums are per path, so the pieces change no bit, and a family of
    one piece keeps that piece's sums as they are.  Each exponent stays a
    Python float.  A p = 1 sum that overflowed takes its powers again and
    is added again under the caller's error state, in p order, so it warns
    or raises as its own call does."""
    size = index.shape[0]
    with np.errstate(over="ignore", under="ignore"):
        tables = np.array([a.entries if q == 1.0 else a.entries**q for q in ps])
        flat = tables.reshape(len(ps), -1)
        parts = [_row_sums(flat.take(index[lo : lo + _LP_PIECE].T, axis=1).transpose(1, 0, 2),
                           (len(ps), min(_LP_PIECE, size - lo)))
                 for lo in range(0, size, _LP_PIECE)]
        sums = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
        low, high = sums.min(axis=1).tolist(), sums.max(axis=1).tolist()
        norms = []
        for q, s, lo, hi, table in zip(ps, sums, low, high, tables):
            x = s
            if q != 1.0:
                x = s ** (1.0 / q)
                if not (lo >= _TINY and hi < math.inf
                        or _only_zero_paths_fail(a, table, hi)):
                    _rescale(a, q, s, x, index.__getitem__)
            norms.append(x)
    out = []
    for q, x, hi in zip(ps, norms, high):
        if q == 1.0 and hi == math.inf:
            x = _row_sums(a.entries.ravel().take(index.T), (size,))
        out.append(ScalarExpectation(value=_block_fsum(x) / size, mode="exact"))
    return out


def head_tail_bound(a: Matrix, p: float | Sequence[float]) -> float | list[float]:
    """(1/N) * sum of the N largest entries plus the lp tail mean
    ((1/N) * sum over the remaining entries of s^p)^(1/p).

    ``p`` is one exponent or a sequence, as in ``expected_lp_norm``; a
    sequence gives a list in its order, each with the bits of its own one-p
    call: the head is summed once, and every p's tail in one pass under one
    errstate.  A tail whose power sum leaves the normal float range is
    scaled by its largest entry, the first of the rearrangement.
    """
    one = np.ndim(p) == 0
    ps = [p] if one else list(p)
    if not all(math.isfinite(q) and q >= 1.0 for q in ps):
        raise DomainError("p must be finite and >= 1")
    s = a.rearrangement
    N = a.cols
    head = math.fsum(s[:N].tolist()) / N
    tail = s[N:]
    if not tail.size or tail[0] == 0.0:
        out = [head] * len(ps)
    else:
        out = []
        with np.errstate(over="ignore", under="ignore"):
            for q in ps:
                powers = tail**q
                if _TINY <= powers.sum() < math.inf:
                    out.append(head + (_block_fsum(powers) / N) ** (1.0 / q))
                else:
                    top = tail[0]
                    out.append(head + top * (_block_fsum((tail / top) ** q) / N) ** (1.0 / q))
    return out[0] if one else out


def verify_lp_bounds(
    a: Matrix,
    family: MapFamily,
    p: float | Sequence[float],
    *,
    cap: int | None = None,
    samples: int | None = None,
    seed: int = 0,
    extra_inputs: dict | None = None,
) -> list[VerificationReport]:
    """The two lp reports: the upper bound with constant 1, and the recorded
    lower ratio asserted strictly positive (ids thm1.2/upper, thm1.2/lower-ratio).

    ``p`` is one exponent or a sequence, as in ``expected_lp_norm``; a
    sequence gives the (upper, lower) pairs one p after another, from one
    pass.  The lower constant is never numeric, so the ratio is logged
    rather than compared against a closed-form bound; the reference value
    1/(32 (1 + 2C)^2) is attached for context.
    """
    require_uniform_marginals(family)
    c_pair = pairwise_constant(family).pairwise_bound
    reference = 1.0 / (32.0 * float((1 + 2 * c_pair)) ** 2)
    ps = [p] if np.ndim(p) == 0 else list(p)
    expectations = expected_lp_norm(a, family, ps, cap=cap, samples=samples, seed=seed)
    shared = {**(extra_inputs or {}), "matrix": a.digest(), "family": family.descriptor()}
    labels = {} if samples is None else {"samples": samples, "seed": seed}
    out = []
    for q, expectation, bound in zip(ps, expectations, head_tail_bound(a, ps)):
        inputs = {**shared, "p": float(q), **labels}
        upper = inequality_report(
            "thm1.2/upper", inputs, lhs=expectation.value, rhs=bound,
            constant=1.0, mode=expectation.mode, stderr=expectation.stderr,
        )
        if bound == 0.0:
            lower = vacuous_report(
                "thm1.2/lower-ratio", inputs, "zero matrix; ratio is undefined"
            )
        else:
            ratio = expectation.value / bound
            status = STATUS_PASS if ratio > 0.0 else STATUS_FAIL
            lower = VerificationReport(
                check_id="thm1.2/lower-ratio", inputs=inputs,
                lhs=ratio, rhs=0.0, margin=ratio, status=status, direction="ge",
                mode=expectation.mode, stderr=expectation.stderr,
                extra={"reference_constant": reference},
            )
        out += [upper, lower]
    return out
