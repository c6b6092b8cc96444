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
from typing import Sequence

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


def luxemburg_norm(x: Sequence[float], j: int) -> float:
    """inf{lambda > 0 : sum max(|x_i| / lambda - 1/j, 0) <= 1}, by bisection.

    The bracket [max|x| * 1e-6, sum|x| + 1] always straddles the unit level:
    the sum is at least 1e6 - 1/j at its lower end and at most
    sum|x| / (sum|x| + 1) < 1 at its upper end.  Halves until the relative
    width is at most ``DEFAULT_NORM_TOL`` and returns the upper end, so the
    constraint sum <= 1 holds at the returned value.
    """
    if j < 1:
        raise DomainError("j must be >= 1")
    absx = np.abs(np.asarray(x, dtype=np.float64))
    if absx.size == 0 or float(absx.max()) == 0.0:
        return 0.0
    # the norm is homogeneous: rescale tiny vectors by an exact power of two
    # so that the lower bracket end does not underflow to 0
    scale = 0
    if float(absx.max()) * 1e-6 < sys.float_info.min:
        scale = -math.frexp(float(absx.max()))[1]
        absx = np.ldexp(absx, scale)
    kink = 1.0 / j
    lo = float(absx.max()) * 1e-6
    hi = float(absx.sum()) + 1.0
    for _ in range(_MAX_BISECTIONS):
        if hi - lo <= DEFAULT_NORM_TOL * hi:
            break
        mid = 0.5 * (lo + hi)
        if math.fsum(np.maximum(absx / mid - kink, 0.0)) <= 1.0:
            hi = mid
        else:
            lo = mid
    return math.ldexp(hi, -scale)


# ---------------------------------------------------------------------------
# the factor-2 sandwich and the expectation upper bound


def top_sum_sandwich_check(x: Sequence[float], j: int) -> VerificationReport:
    """Check half the top-j sum <= hinge norm <= top-j sum (id lemma4.1)."""
    x = np.asarray(x, dtype=np.float64)
    if not 1 <= j <= x.size:
        raise DomainError(f"j={j} out of range 1..{x.size}")
    top = float(np.sort(np.abs(x))[::-1][:j].sum())
    norm = luxemburg_norm(x, j)
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
    a: Matrix,
    family: MapFamily,
    ell: int,
    *,
    cap: int | None = None,
    samples: int | None = None,
    seed: int = 0,
    expectation: OrderStatResult | None = None,
) -> VerificationReport:
    """Check E top-ell path sum <= (2/N) * hinge-(ell*N) norm of the entries
    (id prop4.2/upper)."""
    require_uniform_marginals(family)
    c_pair = pairwise_constant(family).pairwise_bound
    if expectation is None:
        if samples is None:
            expectation = expected_top_sum(a, family, ell, cap=cap)
        else:
            expectation = expected_top_sum_mc(a, family, ell, samples, seed)
    norm = luxemburg_norm(a.entries.ravel(), ell * family.N)
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
