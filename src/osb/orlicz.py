"""The hinge Luxemburg norm, the top-sum sandwich and the expectation upper
bound.

Section 4 uses a single Orlicz function, the hinge M_j(t) = max(t - 1/j, 0).
Its Luxemburg norm matches the sum of the j largest magnitudes within a
factor of 2, and its unit-ball extreme points with positive entries have one
bumped coordinate.  These are the ingredients of the upper expectation bound
checked here.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import DomainError
from .families import MapFamily, pairwise_constant, require_uniform_marginals
from .matrices import Matrix
from .orderstats import expected_top_sum
from .reports import (
    EXACT_SLACK,
    STATUS_FAIL,
    STATUS_PASS,
    VerificationReport,
    inequality_report,
)

DEFAULT_NORM_TOL = 1e-12
_MAX_BISECTIONS = 400


def luxemburg_norm(x: Sequence[float], j: int) -> float:
    """inf{lambda > 0 : sum max(|x_i| / lambda - 1/j, 0) <= 1}, by bisection.

    The bracket [max|x| * 1e-6, sum|x| + 1] always straddles the unit level:
    the sum is at least 1e6 - 1/j at its lower end and at most
    sum|x| / (sum|x| + 1) < 1 at its upper end.  Halves until the relative
    width is at most ``DEFAULT_NORM_TOL`` and returns the upper end, so the
    constraint sum <= 1 holds at the returned value.  ``x`` is flattened,
    so a matrix gives the norm of its entries.  An infinite or NaN entry
    raises DomainError.

    What the norms of one vector share (its sort, prefix sums, scale and
    bracket ends) is made once, in a ``_HingeRecord`` that also keeps each
    j's norm.  A one-entry memo keyed by the vector's bytes keeps the
    record of the latest vector, and no other: the sweep's upper check and
    sandwich at each ell of a matrix share it.

    A step moves ``hi`` to the midpoint m exactly when the plain hinge sum
    fsum(max(|x_i| / m - k, 0)) rounds to at most 1, k the float 1/j.  Most
    steps are decided without that sum, in the manner of Shewchuk's filtered
    predicates, and the decisions, hence the bits, are the same.  With P_i
    the sum of the i largest |x_i| and n the length, the exact sum
    F(m) = sum max(|x_i| / m - k, 0) = max_i (P_i / m - i k) is at most 1
    exactly when m >= L = max_i P_i / (1 + i k).  F is a convex function of
    1/m that is 0 at 1/m = 0 and 1 at m = L, so F(m) <= L/m for m >= L and
    F(m) >= L/m for m <= L.
    To first order in u = 2**-53:

    - the float estimate of L (sequential prefix sums, the denominators
      1 + i k, the divisions) is within (n + 2) u relative of L;
    - each computed term is within 2u |x_i| / m + 2**-1074 of its exact
      value (the quotient, its underflow, and the difference), so the sum of
      the terms is within c L/m + n 2**-1074 of F(m), where
      c = 2u (1 + n k) since P_n <= (1 + n k) L;
    - fsum rounds that sum once, so the sum rounds to at most 1 exactly
      when it is at most 1 + u.

    As n 2**-1074 is below u, m >= L (1 + c) gives a rounded sum <= 1 and
    m <= L (1 - c - 2u) gives one > 1.  Moving those edges to the estimate
    costs another (n + 2) u, plus 2u for forming them.  The band used is
    w = 4 (n + 4)(1 + k) u, at least twice the first-order total
    (n + 8 + 2 n k) u, which also covers the second-order terms for
    n < 2**40.  A midpoint more than w (relative) above the estimate moves
    ``hi``, one more than w below it moves ``lo``, and only one inside the
    band evaluates the sum.
    """
    if j < 1:
        raise DomainError("j must be >= 1")
    record = _record(np.asarray(x, dtype=np.float64).tobytes())
    if record is None:
        raise DomainError("the hinge norm needs finite entries")
    return record.norm(j)


class _HingeRecord:
    """What every hinge norm and top sum of one vector shares, made once:
    its decreasing rearrangement of magnitudes ``desc``; the magnitudes
    ``absx`` in their own order and the bracket ends ``lo`` and ``hi``, all
    scaled by 2**``scale``; the prefix sums of the scaled rearrangement (the
    P_i of ``_band_edges``); and the norms found so far, by j.  The entries
    are finite."""

    __slots__ = ("desc", "absx", "scale", "lo", "hi", "prefix", "norms")

    def __init__(self, absx: np.ndarray, desc: np.ndarray):
        self.desc, self.norms = desc, {}
        top = float(desc[0]) if desc.size else 0.0
        if top == 0.0:
            self.prefix = None  # every norm is 0
            return
        # the norm is homogeneous: rescale by an exact power of two a vector
        # so tiny that the lower bracket end underflows to 0, or so large
        # that its sum overflows (the upper bracket end would be inf)
        scale = 0
        if top * 1e-6 < sys.float_info.min:
            scale = -math.frexp(top)[1]
        elif top * absx.size > 0.5 * sys.float_info.max:
            with np.errstate(over="ignore"):
                if float(absx.sum()) == math.inf:
                    scale = -(absx.size.bit_length() + 1)
        if scale:
            absx, desc = np.ldexp(absx, scale), np.ldexp(desc, scale)
        self.absx, self.scale = absx, scale
        self.lo = float(desc[0]) * 1e-6
        self.hi = float(absx.sum()) + 1.0
        self.prefix = desc.cumsum()

    def norm(self, j: int) -> float:
        """The hinge-j norm, bisected on the first call for this j."""
        if self.prefix is None:
            return 0.0
        if j in self.norms:
            return self.norms[j]
        absx, lo, hi, kink = self.absx, self.lo, self.hi, 1.0 / j
        below, above = _band_edges(self.prefix, kink)
        for _ in range(_MAX_BISECTIONS):
            if hi - lo <= DEFAULT_NORM_TOL * hi:
                break
            mid = 0.5 * (lo + hi)
            if mid > above:
                hi = mid
            elif mid < below:
                lo = mid
            elif math.fsum(np.maximum(absx / mid - kink, 0.0)) <= 1.0:
                hi = mid
            else:
                lo = mid
        try:
            norm = math.ldexp(hi, -self.scale)
        except OverflowError:  # the norm itself is beyond the float range
            norm = math.inf
        self.norms[j] = norm
        return norm


@lru_cache(maxsize=1)
def _record(key: bytes) -> _HingeRecord | None:
    """The hinge record of the float64 vector whose bytes are ``key``, kept
    for the latest key only: a vector changed in place has other bytes, so
    it is never served a stale record.  None when an entry is not
    finite."""
    absx = np.abs(np.frombuffer(key))
    desc = np.sort(absx)[::-1]
    if desc.size and not math.isfinite(desc[0]):  # NaN sorts last, so first here
        return None
    return _HingeRecord(absx, desc)


def _band_edges(prefix: np.ndarray, kink: float) -> tuple[float, float]:
    """The edges of the band around the closed-form norm inside which
    ``luxemburg_norm`` evaluates the hinge sum (see its docstring), from
    ``prefix``, the P_i: the prefix sums of the decreasing rearrangement.

    Formed as differences, so an estimate that overflows gives a NaN lower
    edge and an infinite upper one and no step is decided without the sum.
    """
    n = prefix.size
    ratios = prefix / (1.0 + np.arange(1, n + 1) * kink)
    estimate = float(ratios.max())
    slack = estimate * (4 * (n + 4) * (1.0 + kink) * 2.0**-53)
    return estimate - slack, estimate + slack


# ---------------------------------------------------------------------------
# the factor-2 sandwich and the expectation upper bound


def top_sum_sandwich_check(x: Sequence[float], j: int) -> VerificationReport:
    """Check half the top-j sum <= hinge norm <= top-j sum (id lemma4.1).

    The check is made in floats, so a vector whose top-j sum is not finite
    (an entry is, or the sum overflows) is rejected.  ``x`` is flattened,
    and its hinge record (see ``luxemburg_norm``) is kept."""
    x = np.asarray(x, dtype=np.float64).ravel()
    if not 1 <= j <= x.size:
        raise DomainError(f"j={j} out of range 1..{x.size}")
    record = _record(x.tobytes())
    with np.errstate(over="ignore"):
        top = math.nan if record is None else float(record.desc[:j].sum())
    if not math.isfinite(top):
        raise DomainError("the top-j sum is not finite")
    norm = record.norm(j)
    slack = DEFAULT_NORM_TOL * max(1.0, norm) + EXACT_SLACK
    margin = min(norm - 0.5 * top, top - norm)
    status = STATUS_PASS if margin >= -slack else STATUS_FAIL
    return VerificationReport(
        check_id="lemma4.1",
        inputs={"j": j, "length": int(x.size)},
        lhs=0.5 * top, rhs=top, margin=float(margin), status=status,
        direction="le", constant=2.0, extra={"norm": norm},
    )


def orlicz_upper_bound_check(
    a: Matrix, family: MapFamily, ell: int
) -> VerificationReport:
    """Check E top-ell path sum <= (2/N) * hinge-(ell*N) norm of the entries
    (id prop4.2/upper), with the expectation enumerated exactly."""
    require_uniform_marginals(family)
    c_pair = pairwise_constant(family).pairwise_bound
    expectation = expected_top_sum(a, family, ell)
    norm = luxemburg_norm(a.entries.ravel(), ell * family.N)
    inputs = {
        "matrix": a.digest(), "family": family.descriptor(), "ell": ell,
    }
    return inequality_report(
        "prop4.2/upper", inputs,
        lhs=expectation.value, rhs=2.0 / family.N * norm,
        constant=float(c_pair), extra={"norm": norm},
    )
