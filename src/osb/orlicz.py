"""Orlicz functions, Luxemburg norms, and the top-sum norm equivalence.

The hinge family ``t -> max(t - 1/j, 0)`` gives an Orlicz norm that matches
the sum of the j largest magnitudes within a factor of 2; its unit-ball
extreme points with positive entries have one bumped coordinate.  These are
the ingredients of the upper expectation bound checked here.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .errors import DomainError
from .families import MapFamily, pairwise_constant, require_uniform_marginals
from .matrices import Matrix
from .orderstats import (
    OrderStatResult,
    expected_top_sum,
    expected_top_sum_mc,
)
from .reports import (
    EXACT_SLACK,
    STATUS_FAIL,
    STATUS_PASS,
    VerificationReport,
    inequality_report,
)

DEFAULT_NORM_TOL = 1e-12
_MAX_BISECTIONS = 400


@dataclass(frozen=True)
class OrliczFunction:
    """A convex function M on [0, inf) with M(0) = 0, not constant.

    ``strict_convexity(t)`` tests membership in the set of points of strict
    convexity; for piecewise-linear members this is the kink set.
    """

    evaluate: Callable[[float], float]
    strict_convexity: Callable[[float], bool]
    descriptor: object = None

    def __post_init__(self):
        if self.evaluate(0.0) != 0.0:
            raise DomainError("an Orlicz function must vanish at 0")

    def __call__(self, t: float) -> float:
        return self.evaluate(t)


def top_sum_orlicz(j: int) -> OrliczFunction:
    """The hinge function vanishing on [0, 1/j] with unit slope beyond.

    Its Luxemburg norm approximates the sum of the j largest magnitudes
    within a factor of 2; the kink 1/j is its only point of strict
    convexity.
    """
    if j < 1:
        raise DomainError("j must be >= 1")
    kink = 1.0 / j

    def evaluate(t: float) -> float:
        return max(t - kink, 0.0)

    def strict_convexity(t: float) -> bool:
        return abs(t - kink) <= 1e-12 * max(1.0, kink)

    return OrliczFunction(evaluate=evaluate, strict_convexity=strict_convexity,
                          descriptor=j)


def _unit_sum(M: OrliczFunction, absx: np.ndarray, lam: float) -> float:
    return math.fsum(M.evaluate(float(v) / lam) for v in absx)


def luxemburg_norm(
    x: Sequence[float], M: OrliczFunction, tol: float = DEFAULT_NORM_TOL
) -> float:
    """inf{lambda > 0 : sum M(|x_i| / lambda) <= 1}, by bisection.

    Starts from the bracket [max|x| * 1e-6, sum|x| + 1] (grown or shrunk
    geometrically if it does not straddle the unit level, which cannot happen
    for the hinge family), halves until the relative width is at most
    ``tol``, and returns the upper end, so the constraint sum <= 1 holds at
    the returned value.
    """
    if tol <= 0:
        raise DomainError("tol must be positive")
    absx = np.abs(np.asarray(x, dtype=np.float64))
    if absx.size == 0 or float(absx.max()) == 0.0:
        return 0.0
    # the norm is homogeneous: rescale tiny vectors by an exact power of two
    # so that the lower bracket end does not underflow to 0
    scale = 0
    if float(absx.max()) * 1e-6 < sys.float_info.min:
        scale = -math.frexp(float(absx.max()))[1]
        absx = np.ldexp(absx, scale)
    lo = float(absx.max()) * 1e-6
    hi = float(absx.sum()) + 1.0
    for _ in range(_MAX_BISECTIONS):
        if _unit_sum(M, absx, hi) <= 1.0:
            break
        lo, hi = hi, 2.0 * hi
    for _ in range(_MAX_BISECTIONS):
        if _unit_sum(M, absx, lo) > 1.0:
            break
        hi, lo = lo, lo / 2.0
    for _ in range(_MAX_BISECTIONS):
        if hi - lo <= tol * hi:
            break
        mid = 0.5 * (lo + hi)
        if _unit_sum(M, absx, mid) <= 1.0:
            hi = mid
        else:
            lo = mid
    return math.ldexp(hi, -scale)


def hinge_norm_batch(
    xs: np.ndarray, js: np.ndarray, tol: float = DEFAULT_NORM_TOL
) -> np.ndarray:
    """Luxemburg norms of the rows of ``xs`` under the hinge functions with
    parameters ``js``; identical bracket and termination rules as the scalar
    routine, vectorized."""
    if tol <= 0:
        raise DomainError("tol must be positive")
    absx = np.abs(np.asarray(xs, dtype=np.float64))
    js = np.asarray(js, dtype=np.float64)
    if absx.ndim != 2 or js.shape != (absx.shape[0],):
        raise DomainError("xs must be (B, width) and js must be (B,)")
    if np.any(js < 1):
        raise DomainError("j must be >= 1")
    kinks = (1.0 / js)[:, None]
    maxes = absx.max(axis=1)
    nonzero = maxes > 0.0
    lo = maxes * 1e-6
    hi = absx.sum(axis=1) + 1.0
    # the hinge bracket always straddles the unit level
    for _ in range(_MAX_BISECTIONS):
        active = nonzero & (hi - lo > tol * hi)
        if not np.any(active):
            break
        mid = 0.5 * (lo + hi)
        safe_mid = np.where(mid > 0.0, mid, 1.0)
        sums = np.maximum(absx / safe_mid[:, None] - kinks, 0.0).sum(axis=1)
        below = sums <= 1.0
        hi = np.where(active & below, mid, hi)
        lo = np.where(active & ~below, mid, lo)
    return np.where(nonzero, hi, 0.0)


def check_orlicz_shape(
    M: OrliczFunction, seed: int = 0, trials: int = 1000, t_max: float = 10.0
) -> bool:
    """Spot-check M(0) = 0, monotonicity, and midpoint convexity on random
    triples (test utility)."""
    if M.evaluate(0.0) != 0.0:
        return False
    rng = np.random.default_rng(seed)
    ts = np.sort(rng.uniform(0.0, t_max, size=(trials, 3)), axis=1)
    for a, b, c in ts:
        fa, fb, fc = M.evaluate(a), M.evaluate(b), M.evaluate(c)
        if fa > fb + 1e-12 or fb > fc + 1e-12:
            return False
        mid = M.evaluate(0.5 * (a + c))
        if mid > 0.5 * (fa + fc) + 1e-12:
            return False
    return True


# ---------------------------------------------------------------------------
# the factor-2 sandwich and the expectation upper bound


def top_sum_sandwich_check(
    x: Sequence[float], j: int, tol: float = DEFAULT_NORM_TOL
) -> VerificationReport:
    """Check half the top-j sum <= hinge norm <= top-j sum (id lemma4.1)."""
    x = np.asarray(x, dtype=np.float64)
    if not 1 <= j <= x.size:
        raise DomainError(f"j={j} out of range 1..{x.size}")
    top = float(np.sort(np.abs(x))[::-1][:j].sum())
    norm = luxemburg_norm(x, top_sum_orlicz(j), tol)
    slack = tol * max(1.0, norm) + EXACT_SLACK
    margin = min(norm - 0.5 * top, top - norm)
    status = STATUS_PASS if margin >= -slack else STATUS_FAIL
    return VerificationReport(
        check_id="lemma4.1",
        inputs={"j": j, "length": int(x.size)},
        lhs=0.5 * top, rhs=top, margin=float(margin), status=status,
        direction="le", constant=2.0, extra={"norm": norm},
    )


def extreme_point_matrices(n: int, N: int, ell: int) -> Iterator[Matrix]:
    """The n*N unit-sphere extreme points of the hinge-(ell*N) ball with
    positive entries: every entry 1/(ell*N), one entry 1 + 1/(ell*N)."""
    if not 1 <= ell <= n:
        raise DomainError(f"ell={ell} out of range 1..{n}")
    base = 1.0 / (ell * N)
    for i0 in range(n):
        for j0 in range(N):
            entries = np.full((n, N), base)
            entries[i0, j0] = 1.0 + base
            yield Matrix(entries)


def orlicz_upper_bound_check(
    a: Matrix,
    family: MapFamily,
    ell: int,
    *,
    tol: float = DEFAULT_NORM_TOL,
    cap: int | None = None,
    samples: int | None = None,
    seed: int = 0,
    expectation: OrderStatResult | None = None,
) -> VerificationReport:
    """Check E top-ell path sum <= (2/N) * hinge-(ell*N) norm of the entries
    (id prop4.2/upper)."""
    require_uniform_marginals(family, cap)
    c_pair = pairwise_constant(family, cap).pairwise_bound
    if expectation is None:
        if samples is None:
            expectation = expected_top_sum(a, family, ell, cap=cap)
        else:
            expectation = expected_top_sum_mc(a, family, ell, samples, seed)
    norm = luxemburg_norm(a.entries.ravel(), top_sum_orlicz(ell * family.N), tol)
    inputs = {
        "matrix": a.digest(), "family": family.descriptor(), "ell": ell,
    }
    if expectation.mode == "mc":
        inputs["samples"] = expectation.samples
        inputs["seed"] = seed
    return inequality_report(
        "prop4.2/upper", inputs,
        lhs=expectation.value, rhs=2.0 / family.N * norm,
        mode=expectation.mode, stderr=expectation.stderr,
        constant=float(c_pair), extra={"norm": norm},
    )
