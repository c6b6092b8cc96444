"""K-functionals for the (sum, max) couple, the derived interpolation norm,
and expected lp path norms with their two-sided benchmark.

For a vector x the K-functional at weight t is the piecewise-linear curve
through the partial sums of the decreasing rearrangement:
K(t) = x*_1 + ... + x*_floor(t) + (t - floor(t)) x*_ceil(t), saturating at the
full sum for t >= n.  Averaging over a map family commutes with this formula,
so the mixed curve is the same object built from expected order statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DomainError
from .families import MapFamily, pairwise_constant, require_uniform_marginals
from .matrices import Matrix
from .orderstats import (
    RunningMoments,
    _blocks,
    _check_dims,
    _draw_stats,
    _gather_index,
    expected_top_sum,
)
from .reports import (
    STATUS_FAIL,
    STATUS_PASS,
    VerificationReport,
    inequality_report,
    vacuous_report,
)

_GL_POINTS = 32
_GL_NODES, _GL_WEIGHTS = leggauss(_GL_POINTS)
_MC_CHUNK = 65536
_TINY = np.finfo(np.float64).tiny


@dataclass(frozen=True)
class KFunctionalCurve:
    """Piecewise-linear K-functional curve with integer breakpoints.

    ``slopes[k-1]`` is the slope on [k-1, k]; for a single vector these are
    the rearranged magnitudes, for a mixed curve the expected k-th largest
    path values.  Slopes must be nonnegative and nonincreasing (concavity).
    """

    slopes: tuple[float, ...]

    def __post_init__(self):
        if not self.slopes:
            raise DomainError("curve needs at least one slope")
        arr = np.asarray(self.slopes, dtype=np.float64)
        if arr.min() < 0 or np.any(arr[:-1] < arr[1:] - 1e-12):
            raise DomainError("slopes must be nonnegative and nonincreasing")

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


def interpolation_norm_from_curve(curve: KFunctionalCurve, p: float) -> float:
    """(integral of [t^-theta K(t)]^p dt/t)^(1/p) for theta = 1 - 1/p.

    The integrand reduces to t^-p K(t)^p.  On (0, 1) the curve is linear
    through the origin and the piece integrates in closed form to K(1)^p;
    beyond n the curve is flat and the improper tail is K(n)^p n^(1-p)/(p-1).
    Each middle unit interval uses a fixed 32-point Gauss-Legendre rule, so
    results are bit-reproducible.
    """
    if not math.isfinite(p) or p <= 1.0:
        raise DomainError("the integral norm requires p > 1")
    knots = curve.knots
    n = curve.n
    if knots[n] == 0.0:
        return 0.0
    pieces = [knots[1] ** p]
    for k in range(1, n):
        t = k + 0.5 + 0.5 * _GL_NODES
        kt = knots[k] + (t - k) * curve.slopes[k]
        pieces.append(0.5 * float(np.sum(_GL_WEIGHTS * (kt / t) ** p)))
    pieces.append(knots[n] ** p * n ** (1.0 - p) / (p - 1.0))
    return math.fsum(pieces) ** (1.0 / p)


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


def _block_fsum(x: np.ndarray) -> float:
    """math.fsum(x), bits and exceptions alike, for fewer than 2**26 values.

    A nonnegative finite double is m * 2**(e - 1075), with 53-bit significand
    m and e its exponent field or 1.  The high 27 and low 26 bits of m are
    summed per e with bincount, exactly, as every partial sum stays below
    2**53; the integer total is divided once by a power of two, which Python
    rounds half to even as fsum does.  Short arrays and any negative (-0.0
    too), infinite or NaN value go to math.fsum.
    """
    bits = x.view(np.int64)
    if x.size < _FSUM_MIN_VALUES or bits.view(np.uint64).max() >= 0x7FF0000000000000:
        return math.fsum(x.tolist())
    high, low = np.zeros(2047), np.zeros(2047)  # per biased exponent
    for start in range(0, x.size, _FSUM_PIECE):
        piece = bits[start : start + _FSUM_PIECE]
        e = np.maximum(piece >> 52, 1)
        m = piece - ((e - 1) << 52)  # the significand, implicit bit included
        high += np.bincount(e, (m >> 26).astype(np.float64), minlength=2047)
        low += np.bincount(e, (m & ((1 << 26) - 1)).astype(np.float64), minlength=2047)
    used = np.flatnonzero(high + low).tolist()
    if not used:
        return 0.0
    total = sum(((int(high[k]) << 26) + int(low[k])) << (k - used[0]) for k in used)
    shift = used[0] - 1075
    return total / (1 << -shift) if shift < 0 else float(total << shift)


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
    sequence gives a list in its order, every p from one pass over the family
    or one stream of draws, each with the bits of its own one-p call.
    """
    _check_dims(a, family)
    ps = [p] if np.ndim(p) == 0 else list(p)
    if not all(math.isfinite(q) and q >= 1.0 for q in ps):
        raise DomainError("p must be finite and >= 1")

    # a power is a function of the entry alone, so the entries are raised
    # once per p and gathered by path: the same values as raising every path
    flat = a.entries.ravel()
    with np.errstate(over="ignore", under="ignore"):
        powered = [flat if q == 1.0 else flat**q for q in ps]

    def path_norms(q: float, table: np.ndarray, index: np.ndarray) -> np.ndarray:
        if q == 1.0:
            return table.take(index).sum(axis=1)
        with np.errstate(over="ignore", under="ignore"):
            sums = table.take(index).sum(axis=1)
            norms = sums ** (1.0 / q)
            # a row whose power sum left the normal range is scaled by its
            # largest entry first; an all-zero row keeps its norm of 0
            bad = np.flatnonzero(~((sums >= _TINY) & (sums < np.inf)))
            if bad.size:
                rows = flat.take(index[bad])
                top = rows.max(axis=1, keepdims=True)
                scaled = np.divide(rows, top, out=np.zeros_like(rows), where=top > 0)
                norms[bad] = top[:, 0] * (scaled**q).sum(axis=1) ** (1.0 / q)
        return norms

    def block_norms(block: np.ndarray):
        """Each p's norms in turn, all read through one gather index."""
        index = _gather_index(a.entries.shape, block)
        return (path_norms(q, table, index) for q, table in zip(ps, powered))

    blocks = _blocks(family, _MC_CHUNK, cap=cap, samples=samples, seed=seed)
    if samples is None:
        # each p's norms are summed before the next p's are made
        per_block = [[_block_fsum(v) for v in block_norms(b)] for b in blocks]
        out = [ScalarExpectation(value=math.fsum(t) / family.size, mode="exact")
               for t in zip(*per_block)]
    else:
        # on a small family each draw's norms are looked up (see _draw_stats)
        draw_norms = _draw_stats(family, samples, lambda b: dict(enumerate(block_norms(b))))
        moments = [RunningMoments() for _ in ps]
        for block in blocks:
            # popped, so no norms are held while the next chunk is drawn:
            # the sampler then reuses their memory
            norms = draw_norms(block)
            for i, acc in enumerate(moments):
                acc.add(norms.pop(i))
        out = [ScalarExpectation(value=m.mean, mode="mc", samples=samples,
                                 stderr=m.stderr()) for m in moments]
    return out[0] if np.ndim(p) == 0 else out


def head_tail_bound(a: Matrix, p: float) -> float:
    """(1/N) * sum of the N largest entries plus the lp tail mean
    ((1/N) * sum over the remaining entries of s^p)^(1/p)."""
    if not math.isfinite(p) or p < 1.0:
        raise DomainError("p must be finite and >= 1")
    s = a.rearrangement
    N = a.cols
    head = math.fsum(s[:N]) / N
    tail_terms = s[N:]
    if not tail_terms.size or tail_terms[0] == 0.0:
        return head
    with np.errstate(over="ignore", under="ignore"):
        powers = tail_terms**p
        if not _TINY <= powers.sum() < math.inf:
            # scaled by the largest tail entry, the first of the rearrangement
            top = tail_terms[0]
            return head + top * (math.fsum((tail_terms / top) ** p) / N) ** (1.0 / p)
    return head + (math.fsum(powers) / N) ** (1.0 / p)


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
    out = []
    for q, expectation in zip(ps, expected_lp_norm(
            a, family, ps, cap=cap, samples=samples, seed=seed)):
        bound = head_tail_bound(a, q)
        inputs = {
            **(extra_inputs or {}),
            "matrix": a.digest(), "family": family.descriptor(), "p": float(q),
        }
        if expectation.mode == "mc":
            inputs["samples"] = expectation.samples
            inputs["seed"] = seed
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
