"""Independent brute-force oracles used to freeze and cross-check expected
values.  These deliberately avoid the package's computation paths: plain
itertools enumeration, exact Fractions, closed forms, direct minimization,
the member generators and path gather that the table-driven ones replaced,
the string-built descriptor payload that the byte-built one replaced,
the swap-loop shuffle that the table-driven shuffle replaced, the
matrix-at-a-time corpus draw that the cell-at-a-time one replaced, a sorted copy
of each path for its top-ell values, the per-index-pair loop of the
explicit pairwise certificate that one count per first index replaced, the one-pass mixer and remainder that the
piecewise mixer and the in-place remainder replaced, and the plain hinge-norm bisection that the
filtered one replaced.
Several helpers are not oracles in that sense: the vectorized hinge-norm
bisection, which the acceptance criteria run over many vectors at once; the
per-ell top-sum estimators that the one-pass estimator replaced, which run on
the package's blocks, draws and accumulator; the per-p lp estimator that the
one-pass estimator replaced, which runs on the package's block source, draw
lookup and accumulator; the per-p head/tail bound that the all-p one
replaced; the enumerated hit-count tally that counted map
tables replaced, which runs on the package's blocks and gather; the
lemma-suite oracle, which reads
the package's hit-count table but decides every instance with its own
Fractions; and, at the end, the recursive
canonical serializer and the report renderings that the bulk ones
replaced.  The matrix builders (indicators and averages on an ordering's
largest positions, extreme points of the hinge ball, the zero matrix) make
test inputs."""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from osb.errors import DomainError
from osb.matrices import Matrix
from osb.orlicz import DEFAULT_NORM_TOL

_MAX_BISECTIONS = 400


def all_permutations(n):
    return [tuple(p) for p in itertools.permutations(range(1, n + 1))]


def all_mappings(n, N):
    return [tuple(g) for g in itertools.product(range(1, N + 1), repeat=n)]


def brute_expected_top_sum(rows, maps, ell) -> Fraction:
    """Average of the top-ell path sum by direct enumeration, exact."""
    n = len(rows)
    total = Fraction(0)
    for g in maps:
        path = sorted((Fraction(rows[i][g[i] - 1]) for i in range(n)), reverse=True)
        total += sum(path[:ell], Fraction(0))
    return total / len(maps)


def brute_expected_lp(rows, maps, p) -> float:
    n = len(rows)
    total = 0.0
    for g in maps:
        total += sum(abs(rows[i][g[i] - 1]) ** p for i in range(n)) ** (1.0 / p)
    return total / len(maps)


def scaled_expected_lp(rows, maps, p) -> float:
    """The average lp path norm with each path scaled by its largest entry
    before the power, summed with math.fsum, so no power leaves the float
    range however large p is."""
    norms = []
    for g in maps:
        path = [abs(rows[i][g[i] - 1]) for i in range(len(rows))]
        top = max(path)
        if top > 0:
            norms.append(top * math.fsum((v / top) ** p for v in path) ** (1.0 / p))
    return math.fsum(norms) / len(maps)


def scaled_head_tail_bound(rows, p) -> float:
    """head_tail_bound with the tail scaled by its largest entry."""
    N = len(rows[0])
    s = sorted((abs(v) for row in rows for v in row), reverse=True)
    head, tail = math.fsum(s[:N]) / N, s[N:]
    if not tail or tail[0] == 0:
        return head
    return head + tail[0] * (math.fsum((v / tail[0]) ** p for v in tail) / N) ** (1.0 / p)


def oracle_head_tail_bound(a, p) -> float:
    """head_tail_bound as one call per p, before every p of a call shared
    its head sum and errstate: its body as it was."""
    from osb.interpolation import _TINY

    s = a.rearrangement
    N = a.cols
    head = math.fsum(s[:N]) / N
    tail_terms = s[N:]
    if not tail_terms.size or tail_terms[0] == 0.0:
        return head
    with np.errstate(over="ignore", under="ignore"):
        powers = tail_terms**p
        if not _TINY <= powers.sum() < math.inf:
            top = tail_terms[0]
            return head + top * (math.fsum((tail_terms / top) ** p) / N) ** (1.0 / p)
    return head + (math.fsum(powers) / N) ** (1.0 / p)


def path_values(a, g) -> np.ndarray:
    """The path (a[1,g(1)], ..., a[n,g(n)]) as a float array."""
    if len(g) != a.rows:
        raise DomainError(f"map has {len(g)} values, matrix has {a.rows} rows")
    cols = np.asarray(g, dtype=np.int64)
    if cols.min() < 1 or cols.max() > a.cols:
        raise DomainError(f"map values must lie in 1..{a.cols}")
    return a.entries[np.arange(a.rows), cols - 1]


def path_top_sum(a, g, ell) -> float:
    """Sum of the ell largest path values of g."""
    if not 1 <= ell <= a.rows:
        raise DomainError(f"ell={ell} out of range 1..{a.rows}")
    return float(np.sort(path_values(a, g))[a.rows - ell:].sum())


def brute_worst_marginal_deviation(maps, n, N) -> Fraction:
    """The largest |P(g(i) = j) - 1/N|, one Fraction per (i, j)."""
    return max(abs(Fraction(sum(1 for g in maps if g[i] == j), len(maps)) - Fraction(1, N))
               for i in range(n) for j in range(1, N + 1))


def brute_pairwise_constant(maps, n, N) -> Fraction:
    """N^2 times the max probability of fixing two distinct (index, value)
    pairs; 0 when no distinct pair has positive probability."""
    best = 0
    positions = [(i, j) for i in range(1, n + 1) for j in range(1, N + 1)]
    for (i1, j1) in positions:
        for (i2, j2) in positions:
            if (i1, j1) == (i2, j2):
                continue
            count = sum(1 for g in maps if g[i1 - 1] == j1 and g[i2 - 1] == j2)
            best = max(best, count)
    return Fraction(N * N * best, len(maps))


def oracle_pairwise_argmax(members, n, N):
    """(largest pair count, argmax_pair) of an explicit family's certificate
    as one bincount per ordered index pair (i1, i2), i1 != i2: the first
    maximal ((i1, j1), (i2, j2)) in (i1, i2, j1, j2) order, or None when
    there is no pair of indices."""
    arr = np.asarray(members, dtype=np.int64)
    best_count, argmax = 0, None
    for i1 in range(n):
        for i2 in range(n):
            if i1 == i2:
                continue
            codes = (arr[:, i1] - 1) * N + (arr[:, i2] - 1)
            pair_counts = np.bincount(codes, minlength=N * N)
            top = int(pair_counts.argmax())
            if int(pair_counts[top]) > best_count:
                best_count = int(pair_counts[top])
                argmax = ((i1 + 1, top // N + 1), (i2 + 1, top % N + 1))
    return best_count, argmax


def brute_hit_tail(maps, positions, k) -> Fraction:
    """P(|graph(g) cap positions| >= k) by enumeration."""
    count = 0
    pos = set(positions)
    for g in maps:
        hits = sum(1 for i, v in enumerate(g, start=1) if (i, v) in pos)
        if hits >= k:
            count += 1
    return Fraction(count, len(maps))


# ---------------------------------------------------------------------------
# orderings, and matrices built on an ordering's largest positions


def values_along(order, m) -> np.ndarray:
    """m's entries read in rank order."""
    return np.array([m.entries[i - 1, j - 1] for i, j in order.pairs])


def in_ordered_class(order, m, ell) -> bool:
    """True if m is carried by the ordering: nonincreasing on ranks
    1..ell*N and zero beyond."""
    v, top = values_along(order, m), ell * order.N
    return bool(np.all(v[: top - 1] >= v[1:top]) and np.all(v[top:] == 0.0))


def compatible_with(order, m) -> bool:
    """True if m's entries are nonincreasing along the whole ordering."""
    return in_ordered_class(order, m, order.n)


def _on_top(order, count, value) -> Matrix:
    out = np.zeros((order.n, order.N))
    for i, j in order.pairs[:count]:
        out[i - 1, j - 1] = value
    return Matrix(out)


def indicator_matrix(order, m) -> Matrix:
    """Ones at the positions of the m largest entries."""
    if not 1 <= m <= order.n * order.N:
        raise DomainError(f"m={m} out of range 1..{order.n * order.N}")
    return _on_top(order, m, 1.0)


def averaged_top_matrix(m, order, ell) -> Matrix:
    """The ell*N largest entries replaced by their average, the rest zeroed:
    the averaged matrix of lemma 3.5."""
    if not 1 <= ell <= m.rows:
        raise DomainError(f"ell={ell} out of range 1..{m.rows}")
    top = ell * order.N
    return _on_top(order, top, m.top_sum(top) / top)


def zero_matrix(n, N) -> Matrix:
    return Matrix(np.zeros((n, N)))


def extreme_point_matrices(n, N, ell):
    """The n*N unit-sphere extreme points of the hinge-(ell*N) ball with
    positive entries: every entry 1/(ell*N), one entry 1 + 1/(ell*N)."""
    base = 1.0 / (ell * N)
    for i0, j0 in itertools.product(range(n), range(N)):
        entries = np.full((n, N), base)
        entries[i0, j0] = 1.0 + base
        yield Matrix(entries)


# ---------------------------------------------------------------------------
# member blocks and path gathers as computed before the table-driven ones


def oracle_member_blocks(family, chunk=65536):
    """The blocks ``iter_member_arrays`` yields: built-in members streamed
    from itertools (permutations) or digit arithmetic (mappings), cut every
    ``chunk`` rows."""
    from osb.families import KIND_EXPLICIT, KIND_SYMMETRIC

    n, N = family.n, family.N
    if family.kind == KIND_EXPLICIT:
        arr = np.asarray(family.members, dtype=np.int64)
        for lo in range(0, arr.shape[0], chunk):
            yield arr[lo : lo + chunk]
    elif family.kind == KIND_SYMMETRIC:
        it = itertools.permutations(range(1, n + 1))
        while True:
            block = list(itertools.islice(it, chunk))
            if not block:
                return
            yield np.asarray(block, dtype=np.int64)
    else:
        total = family.size
        powers = N ** np.arange(n - 1, -1, -1, dtype=np.int64)
        for lo in range(0, total, chunk):
            idx = np.arange(lo, min(lo + chunk, total), dtype=np.int64)
            yield (idx[:, None] // powers) % N + 1


def oracle_gather(table, block):
    """table[i, block[:, i] - 1] for every row of the block, by fancy index."""
    return table[np.arange(table.shape[0])[None, :], block - 1]


def oracle_explicit_descriptor(family):
    """An explicit family's descriptor, its payload built as one string: each
    value written through a table of its distinct values' strings."""
    import hashlib

    values, codes = np.unique(family.members, return_inverse=True)
    tokens = np.array([str(v) for v in values.tolist()], dtype=object)
    rows = tokens[codes.reshape(family.members.shape)].tolist()
    payload = f"{family.n}:{family.N}:" + ";".join(map(",".join, rows))
    return "explicit:" + hashlib.sha256(payload.encode()).hexdigest()[:8]


# ---------------------------------------------------------------------------
# Monte Carlo kernels as computed before the table-driven shuffle, the
# in-place row sort, the piecewise mixer, the in-place remainder and the
# column-wise sampler


def oracle_sample_permutations(family, seed, count, start=0):
    """``sample_array`` on a symmetric group: the Fisher-Yates swap loop,
    step t swapping position n-1-t with position w[:, t] mod (n - t)."""
    from osb import rng
    from osb.families import _sample_key

    n = family.n
    w = rng.words(_sample_key(family, seed), start * n, count * n).reshape(count, n)
    perm = np.tile(np.arange(1, n + 1, dtype=np.int64), (count, 1))
    rows = np.arange(count)
    for t in range(n - 1):
        i = n - 1 - t
        j = (w[:, t] % np.uint64(i + 1)).astype(np.int64)
        vi = perm[rows, i].copy()
        perm[rows, i] = perm[rows, j]
        perm[rows, j] = vi
    return perm


def oracle_words(key, start, count):
    """``rng.words`` as one pass over the whole range: the splitmix64 mixer
    on the counters start + 1 .. start + count, eleven whole-array steps."""
    from osb import rng

    z = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z *= np.uint64(rng._GAMMA)
    z += np.uint64(key & rng._MASK)
    z ^= z >> np.uint64(30)
    z *= np.uint64(rng._MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(rng._MIX2)
    z ^= z >> np.uint64(31)
    return z


def oracle_generate_matrix(spec, n, N, index):
    """One default-corpus matrix drawn on its own, as the corpus was drawn
    before its cells came in one mixer pass: the words of stream
    derive_key(seed, 202, dist, n, N, index), uniforms from their 53 high
    bits."""
    from osb import rng
    from osb.corpus import _DIST_CODES, DEFAULT_SPARSE_DENSITY

    def uniforms(key, start, count):
        return (rng.words(key, start, count) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    key = rng.derive_key(spec.seed, 202, _DIST_CODES[spec.distribution], n, N, index)
    count = n * N
    if spec.distribution == "uniform":
        flat = uniforms(key, 0, count)
    elif spec.distribution == "integer":
        flat = (rng.words(key, 0, count) % np.uint64(10)).astype(np.float64)
    else:
        gates = uniforms(key, 0, count)
        values = uniforms(key, count, count)
        flat = np.where(gates < DEFAULT_SPARSE_DENSITY, values, 0.0)
    return Matrix(flat.reshape(n, N))


def oracle_sample_mappings(family, seed, count, start=0):
    """``sample_array`` on a full-mapping family: each word's remainder
    mod N, converted to int64, plus 1."""
    from osb import rng
    from osb.families import _sample_key

    n, N = family.n, family.N
    w = rng.words(_sample_key(family, seed), start * n, count * n).reshape(count, n)
    return (w % np.uint64(N)).astype(np.int64) + 1


def oracle_sample_array(family, seed, count, start=0):
    """``sample_array`` before the sampler drew one word column at a time:
    all n words of each draw in one call, each remainder by numpy's ``%``."""
    from osb import rng
    from osb.families import (_SYM_TABLE_WIDTH, KIND_EXPLICIT, KIND_FULL_MAPPING,
                              _fisher_yates, _sample_key, _shuffle_table)

    n, N = family.n, family.N
    w = rng.words(_sample_key(family, seed), start * n, count * n).reshape(count, n)
    if family.kind == KIND_FULL_MAPPING:
        np.remainder(w, np.uint64(N), out=w)
        draws = w.view(np.int64)
        draws += 1
        return draws
    if family.kind == KIND_EXPLICIT:
        idx = (w[:, 0] % np.uint64(family.size)).astype(np.int64)
        return family.members[idx]
    if n > _SYM_TABLE_WIDTH:
        return _fisher_yates((w[:, t] % np.uint64(n - t) for t in range(n - 1)),
                             n, count)
    code = w[:, 0] % np.uint64(n)
    for t in range(1, n - 1):
        code *= np.uint64(n - t)
        code += w[:, t] % np.uint64(n - t)
    return _shuffle_table(n).take(code.astype(np.intp), axis=0)


class OracleRunningMoments:
    """``RunningMoments`` before it scaled an overflowing M2: the parallel
    variance formula on the raw deviations."""

    def __init__(self):
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0

    def add(self, values):
        b = int(values.size)
        b_mean = float(values.mean())
        b_m2 = float(((values - b_mean) ** 2).sum())
        delta = b_mean - self.mean
        total = self.count + b
        self.mean += delta * b / total
        self._m2 += b_m2 + delta * delta * self.count * b / total
        self.count = total

    def stderr(self):
        return math.sqrt(self._m2 / (self.count - 1)) / math.sqrt(self.count)


def oracle_top_values(paths, ell):
    """The ell largest values of each row, nonincreasing: the reversed view
    of a sorted copy of the rows."""
    return np.sort(paths, axis=1)[:, ::-1][:, :ell]


# ---------------------------------------------------------------------------
# The lp estimator as one pass per p, before one pass served every p: its
# body as it was, on the package's block source, draw lookup and accumulator


def oracle_expected_lp_norm(a, family, p, *, cap=None, samples=None, seed=0):
    """Average of the lp norm of the path values, exact or Monte Carlo, for
    one p: block norms summed with math.fsum, or fed to one accumulator."""
    from osb.families import iter_member_arrays
    from osb.interpolation import _MC_CHUNK, _TINY, ScalarExpectation
    from osb.orderstats import RunningMoments, _blocks, _check_dims, _draw_stats

    _check_dims(a, family)
    if not math.isfinite(p) or p < 1.0:
        raise DomainError("p must be finite and >= 1")
    with np.errstate(over="ignore", under="ignore"):
        powered = a.entries**p

    def block_norms(block):
        if p == 1.0:
            return oracle_gather(a.entries, block).sum(axis=1)
        with np.errstate(over="ignore", under="ignore"):
            sums = oracle_gather(powered, block).sum(axis=1)
            norms = sums ** (1.0 / p)
            bad = np.flatnonzero(~((sums >= _TINY) & (sums < np.inf)))
            if bad.size:
                rows = oracle_gather(a.entries, block[bad])
                top = rows.max(axis=1, keepdims=True)
                scaled = np.divide(rows, top, out=np.zeros_like(rows), where=top > 0)
                norms[bad] = top[:, 0] * (scaled**p).sum(axis=1) ** (1.0 / p)
        return norms

    if samples is None:
        totals = [math.fsum(block_norms(b)) for b in iter_member_arrays(family, cap=cap)]
        return ScalarExpectation(value=math.fsum(totals) / family.size, mode="exact")
    draw_norms = _draw_stats(family, samples, lambda block: {"norm": block_norms(block)})
    moments = RunningMoments()
    for block in _blocks(family, _MC_CHUNK, samples=samples, seed=seed):
        moments.add(draw_norms(block)["norm"])
    return ScalarExpectation(
        value=moments.mean, mode="mc", samples=samples, stderr=moments.stderr()
    )


# ---------------------------------------------------------------------------
# The hit-count table as enumerated for every family, before map:n:N tables
# were counted


def oracle_build_hit_table(family, order, cap=None):
    """Tally hit ranks member by member over the enumerated blocks."""
    from osb.families import iter_member_arrays
    from osb.orderstats import HitCountTable, _gather

    n, N = family.n, family.N
    hist = np.zeros((n + 1, n * N + 1), dtype=np.int64)
    for block in iter_member_arrays(family, cap=cap):
        pos = _gather(order.rank_of, block)
        pos.sort(axis=1)
        for k in range(1, n + 1):
            hist[k] += np.bincount(pos[:, k - 1], minlength=n * N + 1)
    hist.setflags(write=False)
    return HitCountTable(size=family.size, n=n, N=N, hist=hist)


# ---------------------------------------------------------------------------
# The top-sum estimators as one pass per ell, before one pass served every
# ell: their bodies as they were, on the oracle gather and row sort


def oracle_expected_top_sum(a, family, ell, cap=None):
    """Exact average of the top-ell path sum over the whole family."""
    from osb.families import iter_member_arrays
    from osb.orderstats import OrderStatResult, _check_dims

    _check_dims(a, family)
    if not 1 <= ell <= a.rows:
        raise DomainError(f"ell={ell} out of range 1..{a.rows}")
    sums = np.zeros(ell)
    for block in iter_member_arrays(family, cap=cap):
        sums += oracle_top_values(oracle_gather(a.entries, block), ell).sum(axis=0)
    per_k = tuple(float(s) / family.size for s in sums)
    return OrderStatResult(value=math.fsum(per_k), per_k=per_k, mode="exact")


def oracle_expected_top_sum_mc(a, family, ell, samples, seed):
    """Monte Carlo estimate of the same expectation from seeded draws."""
    from osb.families import sample_array
    from osb.orderstats import _MC_CHUNK, OrderStatResult, RunningMoments, _check_dims

    _check_dims(a, family)
    if not 1 <= ell <= a.rows:
        raise DomainError(f"ell={ell} out of range 1..{a.rows}")
    if samples < 2:
        raise DomainError("samples must be >= 2")
    sums = np.zeros(ell)
    moments = RunningMoments()
    for start in range(0, samples, _MC_CHUNK):
        block = sample_array(family, seed, min(_MC_CHUNK, samples - start), start)
        top = oracle_top_values(oracle_gather(a.entries, block), ell)
        sums += top.sum(axis=0)
        moments.add(top.sum(axis=1))
    per_k = tuple(float(s) / samples for s in sums)
    return OrderStatResult(
        value=math.fsum(per_k), per_k=per_k, mode="mc",
        samples=samples, stderr=moments.stderr(),
    )


def k_functional_oracle(x, t, grid_points=10000) -> float:
    """Minimum decomposition cost: clip at threshold c, pay the clipped mass
    in the sum norm and t per unit of cap.  The cost is piecewise linear in
    c, so the grid is augmented with the data thresholds where the minimum is
    attained."""
    absx = np.abs(np.asarray(x, dtype=np.float64))
    top = float(absx.max()) if absx.size else 0.0
    grid = np.union1d(np.linspace(0.0, top, grid_points), absx)
    costs = np.maximum(absx[None, :] - grid[:, None], 0.0).sum(axis=1) + t * grid
    return float(costs.min())


# ---------------------------------------------------------------------------
# Luxemburg norms under the hinge max(t - 1/j, 0)


def hinge_norm_closed_form(x, j) -> float:
    """max over k of (x*_1 + ... + x*_k) / (1 + k/j), x* the decreasing
    rearrangement of |x|.  At lambda equal to this value the hinge sum
    max over k of sum_{i<=k} (x*_i / lambda - 1/j) is exactly 1."""
    absx = np.sort(np.abs(np.asarray(x, dtype=np.float64)))[::-1]
    if absx.size == 0:
        return 0.0
    k = np.arange(1, absx.size + 1)
    return float((np.cumsum(absx) / (1.0 + k / j)).max())


def luxemburg_norm_oracle(x: Sequence[float], j: int) -> float:
    """The plain bisection that ``osb.orlicz.luxemburg_norm`` filters: every
    step evaluates the hinge sum with ``math.fsum``."""
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
    with np.errstate(over="ignore"):
        overflows = np.isinf(absx.sum(axis=1)) & np.isfinite(maxes)
    # rows too small for the lower bracket end, or whose sum overflows, are
    # rescaled by the exact power of two that luxemburg_norm uses
    scale = np.where(maxes * 1e-6 < np.finfo(np.float64).tiny, -np.frexp(maxes)[1], 0)
    scale = np.where(overflows, -(absx.shape[1].bit_length() + 1), scale)
    absx = np.ldexp(absx, scale[:, None])
    lo = absx.max(axis=1) * 1e-6
    hi = absx.sum(axis=1) + 1.0
    # the hinge bracket always straddles the unit level
    for _ in range(_MAX_BISECTIONS):
        active = nonzero & (hi - lo > tol * hi)
        if not np.any(active):
            break
        mid = 0.5 * (lo + hi)
        sums = np.maximum(absx / mid[:, None] - kinks, 0.0).sum(axis=1)
        below = sums <= 1.0
        hi = np.where(active & below, mid, hi)
        lo = np.where(active & ~below, mid, lo)
    with np.errstate(over="ignore"):  # a norm beyond the float range is inf
        return np.where(nonzero, np.ldexp(hi, -scale), 0.0)


# ---------------------------------------------------------------------------
# Hit-count tails, distributions and coefficients read off the package's
# hit-count table, the Paley-Zygmund inequality, and the report of an
# inequality decided in Fractions, which the library's columnar lemma sweep
# replaced.


def _signed_margin(lhs, rhs, direction):
    if direction == "le":
        return rhs - lhs
    if direction == "ge":
        return lhs - rhs
    raise ValueError(f"direction must be 'le' or 'ge', got {direction!r}")


def exact_inequality_report(check_id, inputs, lhs: Fraction, rhs: Fraction, *,
                            direction="le", constant=None, extra=None):
    """The report of lhs <= rhs (or >= for direction "ge"), decided in
    exact rational arithmetic: it fails iff the exact margin is negative."""
    from osb.reports import VerificationReport

    margin = _signed_margin(lhs, rhs, direction)
    status = "pass" if margin >= 0 else "fail"
    return VerificationReport(
        check_id=check_id, inputs=dict(inputs), lhs=float(lhs), rhs=float(rhs),
        margin=float(margin), status=status, direction=direction, mode="exact",
        constant=constant, extra=dict(extra or {}),
    )


def table_tail(table, m, k) -> Fraction:
    """P(X_m >= k): the share of members whose k-th smallest hit rank is <= m."""
    count = table.size if k <= 0 else 0 if k > table.n else table.hist[k, 1: m + 1].sum()
    return Fraction(int(count), table.size)


def indicator_expectation(table, m, ell) -> Fraction:
    """E of the top-ell path sum of the 0/1 matrix marking the m largest
    positions: sum over k <= ell of P(X_m >= k)."""
    return sum((table_tail(table, m, k) for k in range(1, ell + 1)), Fraction(0))


def table_coefficients(table, ell) -> tuple:
    """Exact weights f with E S(b) = sum_j f[j-1] * b(h(j)) for every b
    carried by the ordering (nonincreasing on ranks 1..ell*N, 0 beyond)."""
    counts = table.hist[1: ell + 1, 1: ell * table.N + 1].sum(axis=0)
    return tuple(Fraction(int(c), table.size) for c in counts)


@dataclass(frozen=True)
class HitCountDistribution:
    """P(X_m = k) for k = 0..n; iterating gives the (k, probability) pairs."""

    probabilities: tuple

    def __iter__(self):
        return enumerate(self.probabilities)

    def expectation(self) -> Fraction:
        return sum((k * p for k, p in self), Fraction(0))


def hit_count_distribution(family, order, m, table=None) -> HitCountDistribution:
    """The distribution of X_m, the number of path positions among the m largest."""
    from osb.orderstats import build_hit_table

    if table is None:
        table = build_hit_table(family, order)
    if not 1 <= m <= table.n * table.N:
        raise DomainError(f"m={m} out of range 1..{table.n * table.N}")
    tails = [table_tail(table, m, k) for k in range(table.n + 2)]
    return HitCountDistribution(tuple(t - u for t, u in zip(tails, tails[1:])))


def paley_zygmund_check(distribution, theta, inputs=None):
    """P(Z >= theta E Z) >= (1-theta)^2 (E Z)^2 / E Z^2, decided exactly.

    The distribution is a HitCountDistribution or any (value, weight) pairs
    with nonnegative values; weights are normalized by their exact sum.  A zero
    mean makes the inequality vacuous."""
    from osb.reports import vacuous_report

    theta = Fraction(theta)
    if not 0 < theta < 1:
        raise DomainError("theta must lie strictly between 0 and 1")
    pairs = [(Fraction(v), Fraction(w)) for v, w in distribution]
    if any(v < 0 or w < 0 for v, w in pairs):
        raise DomainError("values and weights must be nonnegative")
    total = sum(w for _, w in pairs)
    mean = sum(v * w for v, w in pairs) / total
    second = sum(v * v * w for v, w in pairs) / total
    inputs = {**(inputs or {}), "theta": float(theta)}
    if mean == 0:
        return vacuous_report("paley-zygmund", inputs, "E Z = 0; inequality is vacuous")
    prob = sum(w for v, w in pairs if v >= theta * mean) / total
    return exact_inequality_report(
        "paley-zygmund", inputs, lhs=prob, rhs=(1 - theta) ** 2 * mean * mean / second,
        direction="ge", extra={"mean": float(mean), "second_moment": float(second)})


# ---------------------------------------------------------------------------
# The per-instance Fraction sweep of the tail-inequality suite, kept as the
# oracle for the library's columnar evaluator: every instance is decided with
# fresh Fractions and becomes its own report, and corpus runs aggregate the
# reports afterwards.


def _ceil_fraction(f: Fraction) -> int:
    return -((-f.numerator) // f.denominator)


def check_lemma31(table, c_pair: Fraction, m: int):
    """(P(X_m >= 1), (m/N)(1 - C (m-1) / (2N)))."""
    N = table.N
    bound = Fraction(m, N) * (1 - c_pair * Fraction(m - 1, 2 * N))
    return table_tail(table, m, 1), bound


def check_lemma32(table, c_pair: Fraction, m: int, theta: Fraction):
    """(P(X_m >= theta m/N), (1-theta)^2 m / (N + m C))."""
    N = table.N
    k0 = _ceil_fraction(theta * Fraction(m, N))
    prob = table_tail(table, m, max(k0, 1))
    bound = (1 - theta) ** 2 * Fraction(m, N + m * c_pair)
    return prob, bound


def check_lemma33a(table, c_pair: Fraction, ell: int, m: int):
    """(P(X_m >= 1), min(m/2N, 1/2C) * P(X_{ell N} >= 1))."""
    N = table.N
    factor = Fraction(m, 2 * N)
    if c_pair > 0:
        factor = min(factor, Fraction(1, 2) / c_pair)
    return table_tail(table, m, 1), factor * table_tail(table, ell * N, 1)


def check_lemma33b(table, c_pair: Fraction, ell: int, m: int, k: int):
    """(P(X_m >= k), P(X_{ell N} >= k) / (2 + 4C)); requires 2kN <= m."""
    bound = table_tail(table, ell * table.N, k) / (2 + 4 * c_pair)
    return table_tail(table, m, k), bound


def check_lemma34(table, c_pair: Fraction, ell: int, m: int):
    """(averaged indicator expectation, (8+16C) * plain indicator expectation)."""
    lhs = Fraction(m, ell * table.N) * indicator_expectation(table, ell * table.N, ell)
    rhs = (8 + 16 * c_pair) * indicator_expectation(table, m, ell)
    return lhs, rhs


def check_lemma35(a, table, c_pair: Fraction, ell: int):
    """Averaging inequality for the matrix reduced to its ell*N largest
    entries, evaluated through the exact coefficient representation."""
    top = ell * table.N
    s_vals = [Fraction(float(v)) for v in a.rearrangement[:top]]
    coeffs = table_coefficients(table, ell)
    exp_reduced = sum((f * s for f, s in zip(coeffs, s_vals)), Fraction(0))
    coeff_sum = sum(coeffs, Fraction(0))
    exp_averaged = coeff_sum * sum(s_vals, Fraction(0)) / top
    return exp_averaged, (8 + 16 * c_pair) * exp_reduced


def check_lemma36(table, c_pair: Fraction, ell: int, k: int):
    """(expected k-th largest path value of the ell*N-ones indicator,
    1/(2+4C)); requires k <= ell/2."""
    return table_tail(table, ell * table.N, k), Fraction(1, 1) / (2 + 4 * c_pair)


def lemma_suite_oracle(a, family, ell, *, table=None, c_pair=None,
                       extra_inputs=None):
    """Every tail inequality on one (matrix, family, ell) instance, one
    Fraction-decided report per swept instance, in check-id order, each
    check's instances in sweep order.  No hypothesis check is made."""
    from osb.families import pairwise_constant
    from osb.matrices import order_map
    from osb.orderstats import DEFAULT_THETAS, build_hit_table
    from osb.reports import vacuous_report

    if c_pair is None:
        c_pair = pairwise_constant(family).pairwise_bound
    order = order_map(a)
    if table is None:
        table = build_hit_table(family, order)
    n, N = family.n, family.N
    nN = n * N
    base = {
        **(extra_inputs or {}),
        "matrix": a.digest(), "family": family.descriptor(), "ell": ell,
    }
    constant = float(c_pair)
    out = []

    for m in range(1, nN + 1):
        prob, bound = check_lemma31(table, c_pair, m)
        out.append(exact_inequality_report(
            "lemma3.1", {**base, "m": m}, lhs=prob, rhs=bound,
            direction="ge", constant=constant))
        dist = hit_count_distribution(family, order, m, table=table)
        for theta in DEFAULT_THETAS:
            prob, bound = check_lemma32(table, c_pair, m, Fraction(theta))
            out.append(exact_inequality_report(
                "lemma3.2", {**base, "m": m, "theta": float(theta)},
                lhs=prob, rhs=bound, direction="ge", constant=constant))
            out.append(paley_zygmund_check(dist, theta, {**base, "m": m}))
        prob, bound = check_lemma33a(table, c_pair, ell, m)
        out.append(exact_inequality_report(
            "lemma3.3a", {**base, "m": m}, lhs=prob, rhs=bound,
            direction="ge", constant=constant))

    any_33b = False
    for k in range(1, n // 2 + 1):
        for m in range(2 * k * N, nN + 1):
            any_33b = True
            prob, bound = check_lemma33b(table, c_pair, ell, m, k)
            out.append(exact_inequality_report(
                "lemma3.3b", {**base, "m": m, "k": k},
                lhs=prob, rhs=bound, direction="ge", constant=constant))
    if not any_33b:
        out.append(vacuous_report(
            "lemma3.3b", base, "no (m, k) satisfies 2kN <= m <= nN"))

    for m in range(1, ell * N + 1):
        lhs, rhs = check_lemma34(table, c_pair, ell, m)
        out.append(exact_inequality_report(
            "lemma3.4", {**base, "m": m}, lhs=lhs, rhs=rhs, constant=constant))

    lhs, rhs = check_lemma35(a, table, c_pair, ell)
    out.append(exact_inequality_report(
        "lemma3.5", base, lhs=lhs, rhs=rhs, constant=constant))

    if ell // 2 >= 1:
        for k in range(1, ell // 2 + 1):
            value, bound = check_lemma36(table, c_pair, ell, k)
            out.append(exact_inequality_report(
                "lemma3.6", {**base, "k": k}, lhs=value, rhs=bound,
                direction="ge", constant=constant))
    else:
        out.append(vacuous_report(
            "lemma3.6", base, "k range 1..floor(ell/2) is empty for ell = 1"))
    return sorted(out, key=lambda r: r.check_id)


def aggregate_oracle(reports, group_inputs):
    """Collapse per-instance reports to one worst-margin report per check id:
    the first report of minimal float margin, plus the count of failures."""
    from osb.reports import VerificationReport, vacuous_report

    grouped = {}
    for r in reports:
        grouped.setdefault(r.check_id, []).append(r)
    out = []
    for check_id in sorted(grouped):
        batch = grouped[check_id]
        live = [r for r in batch if r.status != "vacuous"]
        if not live:
            out.append(vacuous_report(
                check_id, {**group_inputs, "instances": len(batch)},
                batch[0].extra.get("note", "all instances vacuous"),
            ))
            continue
        worst = min(live, key=lambda r: r.margin)
        failed = sum(1 for r in live if r.status == "fail")
        status = "fail" if failed else "pass"
        out.append(VerificationReport(
            check_id=check_id,
            inputs={**group_inputs, "instances": len(batch)},
            lhs=worst.lhs, rhs=worst.rhs, margin=worst.margin, status=status,
            direction=worst.direction, mode=worst.mode, constant=worst.constant,
            extra={"note": "aggregated: worst margin over the swept instances",
                   "failed_instances": failed,
                   "worst_case": dict(worst.inputs)},
        ))
    return out


# ---------------------------------------------------------------------------
# The recursive canonical serializer and the report renderings as they were
# before the single-pass rewrite: one json.dumps per scalar, a full document
# dict, and the inputs rendered again for every sort key.


def _render_float_oracle(x) -> str:
    if not np.isfinite(x):
        raise DomainError(f"non-finite value cannot be rendered: {x!r}")
    return format(float(x), ".17g")


def oracle_canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""
    if obj is None or isinstance(obj, bool):
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _render_float_oracle(obj)
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, Fraction):
        return json.dumps(f"{obj.numerator}/{obj.denominator}")
    if isinstance(obj, Mapping):
        items = ",".join(
            f"{json.dumps(str(k), ensure_ascii=False)}:{oracle_canonical_json(v)}"
            for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))
        )
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(oracle_canonical_json(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def oracle_sort_reports(reports):
    return sorted(
        reports, key=lambda r: (r.check_id, oracle_canonical_json(dict(r.inputs))))


def oracle_reports_doc(reports) -> dict:
    """The {"reports": ..., "summary": ...} document, built as a dict."""
    from osb.reports import summarize

    ordered = oracle_sort_reports(reports)
    return {
        "reports": [oracle_report_row(r) for r in ordered],
        "summary": summarize(ordered),
    }


def oracle_report_row(r) -> dict:
    """One row of the report document, as ``VerificationReport.to_json_obj``
    built it before the row format got a single definition."""
    return {
        "check_id": r.check_id,
        "inputs": dict(r.inputs),
        "lhs": float(r.lhs),
        "rhs": float(r.rhs),
        "direction": r.direction,
        "constant": None if r.constant is None else float(r.constant),
        "margin": float(r.margin),
        "status": r.status,
        "mode": r.mode,
        "stderr": None if r.stderr is None else float(r.stderr),
        "extra": dict(r.extra),
    }


_CSV_FIELDS = (
    "check_id", "status", "direction", "mode", "lhs", "rhs", "constant",
    "margin", "stderr", "inputs", "extra",
)


def oracle_reports_to_csv(reports) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_FIELDS)
    for r in oracle_sort_reports(reports):
        writer.writerow([
            r.check_id, r.status, r.direction, r.mode,
            _render_float_oracle(r.lhs), _render_float_oracle(r.rhs),
            "" if r.constant is None else _render_float_oracle(r.constant),
            _render_float_oracle(r.margin),
            "" if r.stderr is None else _render_float_oracle(r.stderr),
            oracle_canonical_json(dict(r.inputs)),
            oracle_canonical_json(dict(r.extra)),
        ])
    return buf.getvalue()
