"""Expected sums of the largest path entries, hit-count statistics, and the
tail-inequality suite.

A map g traces the path (a[1,g(1)], ..., a[n,g(n)]) through a matrix.  The
central quantity is the expectation over a family of the sum of the ell
largest path values.  Exact expectations enumerate the family; hit counts
(how many path positions fall among the m largest entries) are tallied with
integer arithmetic, so every probability here is an exact rational.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError
from .families import (
    KIND_EXPLICIT,
    KIND_FULL_MAPPING,
    MEMBER_BLOCK_ROWS,
    MapFamily,
    _mapping_table,
    _member_block,
    _member_runs,
    _offsets,
    _one_run_index,
    _run_width,
    iter_member_arrays,
    pairwise_constant,
    require_enumerable,
    require_uniform_marginals,
    sample_array,
)
from .matrices import Matrix, OrderMap, order_map
from .reports import (
    STATUS_FAIL,
    STATUS_PASS,
    VerificationReport,
    vacuous_report,
)

_MC_CHUNK = 131072


def _check_dims(a: Matrix, family: MapFamily):
    if (a.rows, a.cols) != (family.n, family.N):
        raise DomainError(
            f"matrix is {a.rows}x{a.cols}, family maps {family.n} -> {family.N}"
        )


@dataclass(frozen=True)
class OrderStatResult:
    """Expectation of the top-ell path sum, with per-rank contributions.

    ``per_k[k-1]`` is the expected k-th largest path value; ``value`` is their
    sum.  Monte Carlo results carry the draw count and the standard error of
    the value.
    """

    value: float
    per_k: tuple[float, ...]
    mode: str
    samples: Optional[int] = None
    stderr: Optional[float] = None


def _gather(table: np.ndarray, block: np.ndarray) -> np.ndarray:
    """table[i, block[:, i] - 1] for every row of the block, as one flat take.
    The block, a fresh int64 array, is consumed: its flat positions are
    written into it, so a gather holds the block and the values alone."""
    return table.ravel().take(np.add(block, _offsets(*table.shape), out=block))


def _path_blocks(table: np.ndarray, family: MapFamily, cap: int | None):
    """The values of ``table`` along every member's path, block by block:
    one take through the path index of a family enumerated as one run,
    else each enumerated block gathered (by ``map``, which holds no block
    while the next one is built)."""
    index = _one_run_index(family, cap)
    return ([table.ravel().take(index)] if index is not None else
            map(lambda block: _gather(table, block), iter_member_arrays(family, cap=cap)))


class RunningMoments:
    """Count/mean/M2 accumulator combined chunk by chunk.

    Combination uses the parallel variance formula, so streaming large draw
    counts needs O(1) memory; the chunking schedule is fixed, keeping results
    deterministic.  M2 is held as ``_m2 * _scale**2``.  The scale stays 1.0,
    and the arithmetic is the plain formula's, unless M2 would overflow; it
    then becomes a power of two above every value, so that dividing by it
    rounds nothing and the scaled squares stay finite.
    """

    def __init__(self):
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0
        self._scale = 1.0

    def add(self, values: np.ndarray):
        b = int(values.size)
        if b == 0:
            return
        b_mean = float(values.mean())
        mean, delta = self.mean, b_mean - self.mean
        total = self.count + b
        m2 = math.inf
        if self._scale == 1.0:
            with np.errstate(over="ignore"):
                b_m2 = float(((values - b_mean) ** 2).sum())
            m2 = self._m2 + (b_m2 + delta * delta * self.count * b / total)
        if not math.isfinite(m2):
            # every deviation and delta is below 4 * scale, so no square
            # overflows; a NaN value gives a NaN M2 either way
            big = max(float(np.abs(values).max()), abs(mean))
            scale = max(self._scale, math.ldexp(1.0, math.frexp(big)[1] - 1))
            b_m2 = float(((values / scale - b_mean / scale) ** 2).sum())
            d = b_mean / scale - mean / scale
            m2 = (self._m2 * (self._scale / scale) ** 2
                  + (b_m2 + d * d * self.count * b / total))
            self._scale = scale
        self.mean += delta * b / total
        self._m2 = m2
        self.count = total

    def stderr(self) -> float:
        if self.count < 2:
            return float("nan")
        return math.sqrt(self._m2 / (self.count - 1)) / math.sqrt(self.count) * self._scale


def _blocks(family: MapFamily, chunk: int, *, samples: int, seed: int):
    """The seeded draw chunks of a Monte Carlo pass: ``chunk`` rows each,
    the last shorter.  A draw count whose words run past the stream's
    64-bit counter is refused before the first chunk."""
    if samples < 2:
        raise DomainError("samples must be >= 2")
    if samples * family.n >= 2**64:
        raise DomainError(f"{samples} draws run past the 64-bit word counter "
                          "of the sample stream")
    for start in range(0, samples, chunk):
        yield sample_array(family, seed, min(chunk, samples - start), start)


def _member_lookup(family: MapFamily, samples: int | None):
    """The family's members and the base-N weights N**(n-1), ..., 1, for a
    Monte Carlo pass with at least as many draws as there are maps
    {1..n} -> {1..N} and members, and at most MEMBER_BLOCK_ROWS of either;
    otherwise None.  A row g is the (g @ weights - sum(weights))-th of the
    N**n maps in lexicographic order.  Only the members are tabulated: a
    path that no member takes could overflow where no member's path does."""
    n, N = family.n, family.N
    if samples is None or max(N**n, family.size) > min(samples, MEMBER_BLOCK_ROWS):
        return None
    # the enumeration's one block; a cap of the size is never exceeded
    (groups,) = _member_runs(family, family.size)
    return _member_block(groups, n), N ** np.arange(n - 1, -1, -1, dtype=np.int64)


def _draw_stats(family: MapFamily, samples: int | None, stats):
    """``stats``, a function from a block of maps to a dict of arrays with
    one row per map, or, when ``_member_lookup`` applies, a function that
    looks those rows up in tables of ``stats(members)`` computed once.

    Every looked-up row is the row ``stats`` computes for the same map, so
    the values keep their bits.  A value at least two columns wide, which
    callers only sum over its rows, is tabulated as contiguous columns and
    looked up as those sums: each column's running sum, which adds row by
    row as ``sum(axis=0)`` does on a C-contiguous block, at about a third
    of its cost.  Only a column of -0.0 alone differs, giving -0.0 for
    +0.0, which a running total started at +0.0 absorbs.  The tables are
    computed with overflow and invalid operations ignored and used only
    when every value is finite; otherwise each draw is computed as it
    comes, under the caller's error state, and fails or returns as it
    always did."""
    lookup = _member_lookup(family, samples)
    if lookup is None:
        return stats
    members, weights = lookup
    offset = int(weights.sum())
    index = members @ weights - offset  # before ``stats``, which may consume members
    with np.errstate(over="ignore", invalid="ignore"):
        values = stats(members)
    if not all(np.isfinite(v).all() for v in values.values()):
        return stats
    tables, columns = {}, {}
    for key, v in values.items():
        table = np.zeros((family.N**family.n,) + v.shape[1:])
        table[index] = v
        if table.ndim == 2 and table.shape[1] >= 2:
            columns[key] = [table[:, j].copy() for j in range(table.shape[1])]
        else:
            tables[key] = table

    def looked_up(block: np.ndarray) -> dict:
        idx = block @ weights - offset
        stats = {key: table.take(idx, axis=0) for key, table in tables.items()}
        for key, cols in columns.items():
            stats[key] = np.array([np.cumsum(col.take(idx))[-1] for col in cols])
        return stats

    return looked_up


def _run_tops(a: Matrix, family: MapFamily, cap: int | None):
    """Each block's pairwise sum of its column 0 and its n column sums (see
    ``_top_record``), for a ``map`` family whose runs put a nonempty prefix
    before one shared table (``families._member_runs``), gathering no
    member.

    The table's suffix values are read once and each row sorted once,
    descending, as (1, R) columns.  Each run's prefix values, largest
    first, are inserted into those columns as (g, 1) columns with
    ``np.maximum`` and ``np.minimum``, as a sorting network inserts a
    value.  Columns 0..j-1 already hold values at least as large as the j
    larger prefix values, so the insertion of prefix value j (from 0)
    starts at column j.  Column k then holds every path's k-th largest
    value in member order, as the sorted gathered block does.  A block's
    columns are added as that block's are, each by its running sum, which
    adds row by row as ``sum(axis=0)`` does; column 0 is also summed
    pairwise, as numpy sums a contiguous column.
    """
    n, N, r = family.n, family.N, _run_width(family)
    table = _mapping_table(N, r)
    weights = N ** np.arange(r - 1, -1, -1)
    suffix = a.entries[np.arange(n - r, n), table - 1]
    suffix.sort(axis=1)
    tops = suffix[:, ::-1].T.copy()[:, None, :]
    for groups in _member_runs(family, cap):
        parts = []
        for prefixes, rows in groups:
            # a cut run's rows are consecutive table rows from its first one's
            start = int((rows[0] - 1) @ weights)
            cols = list(tops[:, :, start : start + rows.shape[0]])
            heads = np.sort(a.entries[np.arange(n - r), prefixes - 1], axis=1)
            for j, x in enumerate(heads.T[::-1, :, None]):
                merged = cols[:j]  # each at least x
                for c in cols[j:]:  # x passes its minimum on
                    merged.append(np.maximum(c, x))
                    x = np.minimum(c, x)
                cols = merged + [x]
            parts.append(cols)
        columns = [parts[0][k].ravel() if len(parts) == 1
                   else np.concatenate([cols[k] for cols in parts], axis=None)
                   for k in range(n)]
        yield np.array([columns[0].sum()] + [np.cumsum(c)[-1] for c in columns])


def _sorted_tops(paths: np.ndarray) -> np.ndarray:
    """A block's pairwise sum of its column 0 and its n column sums (see
    ``_top_record``), its paths sorted in place."""
    paths.sort(axis=1)
    top = paths[:, ::-1]
    sums = np.empty(top.shape[1] + 1)
    sums[0] = top[:, 0].copy().sum()
    top.sum(axis=0, out=sums[1:])
    return sums


def _top_record(a: Matrix, family: MapFamily, cap: int | None) -> np.ndarray:
    """The top-sum record [F, E_1, ..., E_n] of a (matrix, family) pair:
    E_k is the exact expected k-th largest path value, and F the expected
    largest one summed as a 1-wide pass sums it.  The pair's first exact
    call computes it by one width-n pass and keeps it, read-only, on the
    matrix, keyed by an explicit family itself or by a built-in family's
    descriptor, which names its members and keeps no family object (nor
    its path index) alive.  Every call makes the enumeration cap check,
    before a kept record is read.

    Each block's paths are sorted in place and reversed; column k of that
    top block adds row by row (``sum(axis=0)`` of a block at least two
    wide, or the running sums of ``_run_tops``), the bits of every ell-wide
    pass with ell > k and ell >= 2.  A 1-wide pass sums its one column
    pairwise instead, so F adds the pairwise sum of each block's
    contiguous column 0.  A family enumerated as one run reads its one
    block of paths through its path index with one take; a ``map`` family
    whose runs have a prefix reads the runs, with the same bits."""
    # one key string per built-in family, however many matrices hold it
    key = family if family.kind == KIND_EXPLICIT else sys.intern(family.descriptor())
    record = a._top_records.get(key)
    if record is not None:
        require_enumerable(family, cap)
        return record
    # the walk makes the cap check before its first block
    if family.kind == KIND_FULL_MAPPING and _run_width(family) < family.n:
        blocks = _run_tops(a, family, cap)
    else:
        blocks = map(_sorted_tops, _path_blocks(a.entries, family, cap))
    # the first block's sums, then each further block's added: the same
    # bits as adding every block onto zeros, since no sum is -0.0
    record = next(blocks)
    for sums in blocks:
        record += sums
    record /= family.size
    record.setflags(write=False)
    a._top_records[key] = record
    return record


def _top_sums(
    a: Matrix, family: MapFamily, ells: Sequence[int], *, width: int,
    cap: int | None = None, samples: int | None = None, seed: int = 0,
) -> list[OrderStatResult]:
    """E top-ell path sum for each ell in ``ells``, exact or from one pass
    over ``samples`` seeded draws (Monte Carlo).

    An exact ell reads the (matrix, family) record of ``_top_record``:
    ell >= 2, or ell = 1 with ``width`` >= 2, takes the first ell of its
    row-by-row sums, and a 1-wide call takes its pairwise F, so every
    exact ell has the bits of its own ``width``-wide pass.
    A Monte Carlo pass sorts each chunk's paths in place; the first
    ``width`` columns of the reversed rows (width >= max(ells)) are its top
    block, whose column sums add row by row, so ell >= 2 takes the first
    ell of them.  Its ell = 1 from a wider block sums a contiguous copy of
    column 0 pairwise, as a 1-wide pass sums its one column.  On a small
    family a Monte Carlo pass looks each draw's top block and row sums up
    (see ``_draw_stats``).
    """
    _check_dims(a, family)
    for ell in ells:
        if not 1 <= ell <= a.rows:
            raise DomainError(f"ell={ell} out of range 1..{a.rows}")
    if samples is None:
        record = _top_record(a, family, cap)
        return [_result(record[:1].tolist() if width == 1 else record[1 : ell + 1].tolist(),
                        "exact")
                for ell in ells]
    lone = width > 1 and 1 in ells
    sums, first = np.zeros(width), 0.0
    moments = {ell: RunningMoments() for ell in ells}

    def path_stats(paths: np.ndarray) -> dict:
        paths.sort(axis=1)
        top = paths[:, ::-1][:, :width]
        stats = {"top": top}
        if lone:
            stats["first"] = top[:, 0].copy()
        for ell in moments:
            stats[ell] = top[:, :ell].sum(axis=1)
        return stats

    for stats in map(_draw_stats(family, samples, lambda b: path_stats(_gather(a.entries, b))),
                     _blocks(family, _MC_CHUNK, samples=samples, seed=seed)):
        top = stats["top"]
        sums += top.sum(axis=0) if top.ndim == 2 else top  # looked up: its sums
        if lone:
            first += stats["first"].sum()
        for ell, acc in moments.items():
            acc.add(stats[ell])
    per_k = [float(s) / samples for s in sums]
    return [_result([float(first) / samples] if ell == 1 and lone else per_k[:ell], "mc",
                    samples, moments[ell].stderr())
            for ell in ells]


def _result(ks: list, mode: str, samples=None, stderr=None) -> OrderStatResult:
    return OrderStatResult(value=math.fsum(ks), per_k=tuple(ks), mode=mode,
                           samples=samples, stderr=stderr)


def expected_top_sum(a: Matrix, family: MapFamily, ell: int) -> OrderStatResult:
    """Exact average of the top-ell path sum over the whole family."""
    return _top_sums(a, family, (ell,), width=ell)[0]


def expected_top_sum_mc(
    a: Matrix, family: MapFamily, ell: int, samples: int, seed: int
) -> OrderStatResult:
    """Monte Carlo estimate of the same expectation from seeded draws."""
    return _top_sums(a, family, (ell,), width=ell, samples=samples, seed=seed)[0]


# ---------------------------------------------------------------------------
# hit counts: how many of the m largest positions does a path cross?


@dataclass(frozen=True, eq=False)
class HitCountTable:
    """Integer tallies of path hit ranks for one (family, ordering) pair.

    For each member g, its n path positions have ranks in 1..n*N under the
    ordering; ``hist[k][j]`` counts members whose k-th smallest rank equals j.
    Every hit-count tail probability follows by prefix summation:
    #(X_m >= k) = sum over j <= m of hist[k][j].  A counted ``map`` table
    holds Python ints (object dtype), which no size wraps; an enumerated
    one holds int64, as its counts are at most the size of a family that
    was enumerated.  Two tables are equal when their fields are; a table is
    not hashable.
    """

    size: int
    n: int
    N: int
    hist: np.ndarray

    def __eq__(self, other):
        if not isinstance(other, HitCountTable):
            return NotImplemented
        return ((self.size, self.n, self.N) == (other.size, other.n, other.N)
                and np.array_equal(self.hist, other.hist))

    @cached_property
    def _lemma_rows(self) -> dict:
        # C -> (the _LemmaBatch whose columns hold this table's instances,
        # its row), set by the batch
        return {}


def build_hit_table(
    family: MapFamily, order: OrderMap, cap: int | None = None
) -> HitCountTable:
    """Tally hit ranks over the whole family (exact integer counts).

    A ``map:n:N`` table is counted, not enumerated: the positions of a map
    are independent, and position i hits the m best ranks with c_i(m) of its
    N values, so #(X_m = k) is the coefficient of x**k in the product over i
    of (N - c_i(m)) + c_i(m) x, in Python integers, which the table keeps.
    The k-th smallest hit rank is m exactly when X_m >= k > X_(m-1).  A
    family enumerated as one run is read through its path index with one
    take.  Every family, counted or not, is refused above the enumeration
    cap, with the advice to raise it.
    """
    if (order.n, order.N) != (family.n, family.N):
        raise DomainError("ordering and family dimensions differ")
    # the lemma suite, the one reader of hit tables, has no Monte Carlo mode
    require_enumerable(family, cap, "raise --enum-cap or OSB_ENUM_CAP")
    n, N = family.n, family.N
    nN = n * N
    counted = family.kind == KIND_FULL_MAPPING
    hist = np.zeros((n + 1, nN + 1), dtype=object if counted else np.int64)
    if counted:
        hits = np.zeros((n, nN + 1), dtype=np.int64)
        hits[np.arange(n)[:, None], order.rank_of] = 1
        counts = np.zeros((n + 1, nN + 1), dtype=object)
        counts[0] = 1
        for c in hits.cumsum(axis=1).astype(object):  # c_i(m), m = 0..nN
            counts[1:] = counts[1:] * (N - c) + counts[:-1] * c
            counts[0] = counts[0] * (N - c)
        tails = counts[::-1].cumsum(axis=0)[::-1]  # tails[k, m] = #(X_m >= k)
        hist[1:, 1:] = np.diff(tails[1:], axis=1)
    else:
        # ranks 1..nN in the narrowest type, one byte up to nN = 255: the
        # taken ranks, their row sort and the bincounts read no wider values
        rank = order.rank_of.astype(np.min_scalar_type(nN))
        for pos in _path_blocks(rank, family, cap):
            pos.sort(axis=1)
            for k in range(1, n + 1):
                hist[k] += np.bincount(pos[:, k - 1], minlength=nN + 1)
    hist.setflags(write=False)
    return HitCountTable(size=family.size, n=n, N=N, hist=hist)


# ---------------------------------------------------------------------------
# the tail-inequality suite (report ids lemma3.1 .. lemma3.6)
#
# Every side of every inequality is a ratio of integers formed from the hit
# table's cumulative counts, the pairwise constant C = p/q and theta = a/b.
# The instances of a corpus cell are decided together: each check id is one
# set of columns over the (ell, matrix, parameter row) axes, numerator and
# denominator arrays of Python ints (object dtype, so no product can wrap).
# A check that depends on no ell has one ell row for all of them.  Reports
# are built only for the rows that are read.

DEFAULT_THETAS = tuple(Fraction(t, 10) for t in range(1, 10))

_AGGREGATE_NOTE = "aggregated: worst margin over the swept instances"


@dataclass
class _Columns:
    """One check id over a cell's instances.

    ``params`` maps each swept input name to its values on the parameter
    rows; ``lhs`` and ``rhs`` are (numerators, denominators), arrays or ints
    that broadcast to (ells, matrices, rows), with positive denominators.
    Instance (l, b) has the first ``count[l, b]`` rows (all of them by
    default); with none it is one vacuous instance with ``note``, as is each
    of its rows where ``live`` is False.  The float margin of a row is the
    correctly rounded quotient of its exact margin, as float(Fraction)
    gives, and a row fails iff its exact margin is negative.
    """

    check_id: str
    direction: str
    params: dict
    lhs: tuple
    rhs: tuple
    constant: Optional[float]
    count: object = None
    live: object = True
    note: Optional[str] = None
    extra: Optional[Callable[[int, int], dict]] = None

    def __post_init__(self):
        (ln, ld), (rn, rd) = (tuple(np.asarray(x, dtype=object) for x in side)
                              for side in (self.lhs, self.rhs))
        num = ln * rd - rn * ld
        num = num[(None,) * (3 - num.ndim)]
        if self.direction == "le":
            num = -num
        self.margins = (num / (ld * rd)).astype(np.float64)
        self.failed = (num < 0).astype(bool)
        self.sides = [np.broadcast_to(x, num.shape) for x in (ln, ld, rn, rd)]
        rows = np.arange(num.shape[2])
        count = np.asarray(rows.size if self.count is None else self.count)
        self.live = np.broadcast_to(self.live & (rows < count[..., None]), num.shape)
        self.count = np.broadcast_to(count, num.shape[:2]).tolist()

    def _inputs(self, base: dict, i: int) -> dict:
        return {**base, **{name: values[i] for name, values in self.params.items()}}

    def _floats(self, index) -> list:
        """The float lhs, rhs and margin of the rows at ``index`` (an index
        into each array), as lists."""
        ln, ld, rn, rd = (x[index] for x in self.sides)
        return [(ln / ld).tolist(), (rn / rd).tolist(), self.margins[index].tolist()]

    def _report(self, inputs: dict, lhs: float, rhs: float, margin: float,
                failed, extra: dict) -> VerificationReport:
        return VerificationReport(
            check_id=self.check_id, inputs=inputs, lhs=lhs, rhs=rhs, margin=margin,
            status=STATUS_FAIL if failed else STATUS_PASS, direction=self.direction,
            mode="exact", constant=self.constant, extra=extra)

    def reports(self, l: int, b: int, base: dict) -> list[VerificationReport]:
        """Instance (l, b)'s reports, one per row."""
        l = min(l, len(self.count) - 1)
        count = self.count[l][b]
        if not count:
            return [vacuous_report(self.check_id, base, self.note)]
        rows = (l, b, slice(count))
        return [self._report(self._inputs(base, i), lhs, rhs, margin, failed,
                             self.extra(b, i) if self.extra else {})
                if live else vacuous_report(self.check_id, self._inputs(base, i), self.note)
                for i, (lhs, rhs, margin, failed, live) in enumerate(zip(
                    *self._floats(rows), self.failed[rows].tolist(), self.live[rows].tolist()))]

    def reduce(self) -> "_Columns":
        """Keep each instance's first live row of least float margin, with
        its sides and failure count, found along the row axis for every
        instance at once; then drop the arrays, after which only
        ``aggregate`` reads this check."""
        any_live = self.live.any(axis=2)
        self.worst = [[None] * len(by_b) for by_b in self.count]
        if any_live.any():
            worst = np.where(self.live, self.margins, np.inf).argmin(axis=2)
            at = np.ix_(*map(range, worst.shape)) + (worst,)
            stats = [any_live.tolist(), worst.tolist(),
                     np.count_nonzero(self.failed & self.live, axis=2).tolist(), *self._floats(at)]
            self.worst = [[row[1:] if row[0] else None for row in zip(*by_b)]
                          for by_b in zip(*stats)]
        del self.sides, self.margins, self.failed, self.live
        return self

    def aggregate(self, l: int, b: int, base: dict) -> VerificationReport:
        """Instance (l, b)'s one report: its first row of least float
        margin, with the instance and failure counts."""
        l = min(l, len(self.count) - 1)
        inputs = {**base, "instances": self.count[l][b] or 1}
        if self.worst[l][b] is None:
            return vacuous_report(self.check_id, inputs, self.note)
        i, failed, lhs, rhs, margin = self.worst[l][b]
        return self._report(inputs, lhs, rhs, margin, failed,
                            {"note": _AGGREGATE_NOTE, "failed_instances": failed,
                             "worst_case": self._inputs(base, i)})


class _LemmaBatch:
    """The suite's columns for the (matrix, ell) instances of a corpus cell
    on ``family``, whose pairwise constant is ``c_pair``: matrix row b is
    ``matrices[b]`` on its hit table ``tables[b]`` (one at least), at each
    ell of ``ells``.  Making the batch points each table's slot for C at its
    row; the batch keeps the tables' counts, not the tables, and builds its
    columns when first read."""

    def __init__(self, family: MapFamily, matrices: Sequence[Matrix],
                 tables: Sequence[HitCountTable], ells: Sequence[int]):
        self.matrices, self._hists = list(matrices), np.stack([t.hist for t in tables])
        self._size = tables[0].size
        self.c_pair = c_pair = pairwise_constant(family).pairwise_bound
        self.ell_index = {ell: l for l, ell in enumerate(ells)}
        for b, table in enumerate(tables):
            table._lemma_rows[c_pair] = self, b

    @cached_property
    def columns(self) -> list[_Columns]:
        """Every check's columns, in check-id order, for per-instance reports."""
        return list(self._build())

    @cached_property
    def reduced(self) -> list[_Columns]:
        """Every check reduced to its aggregates, in check-id order; each
        check's arrays are dropped before the next check is built."""
        return [col.reduce() for col in self._build()]

    def _build(self):
        """The columns in check-id order: lemma3.1, lemma3.2, lemma3.3a,
        lemma3.3b, lemma3.4, lemma3.5, lemma3.6, paley-zygmund.  The first
        two and the last depend on no ell."""
        B, n, nN = self._hists.shape[0], self._hists.shape[1] - 1, self._hists.shape[2] - 1
        N, S = nN // n, self._size
        p, q = self.c_pair.numerator, self.c_pair.denominator
        column = partial(_Columns, constant=float(self.c_pair))
        # tails[b, k, m] = #(X_m >= k) on table b, k = 0..n+1
        tails = np.zeros((B, n + 2, nN + 1), dtype=object)
        tails[:, 0] = S
        tails[:, 1: n + 1] = np.cumsum(self._hists[:, 1:].astype(object), axis=2)
        bs = np.arange(B)[:, None]
        m_idx = np.arange(1, nN + 1)
        ms = m_idx.astype(object)
        hit1 = tails[:, 1, 1:]

        # the (m, theta) grid, m outer
        T = len(DEFAULT_THETAS)
        ta = np.tile(np.array([t.numerator for t in DEFAULT_THETAS], dtype=object), nN)
        tb = np.tile(np.array([t.denominator for t in DEFAULT_THETAS], dtype=object), nN)
        grid_m_idx = np.repeat(m_idx, T)
        grid_m = grid_m_idx.astype(object)
        grid = {"m": grid_m.tolist(), "theta": [float(t) for t in DEFAULT_THETAS] * nN}

        yield column("lemma3.1", "ge", {"m": ms.tolist()}, (hit1, S),
                     (ms * (2 * N * q - p * (ms - 1)), 2 * N * N * q))

        k = np.clip(-(-ta * grid_m // (tb * N)), 1, n + 1).astype(np.int64)
        yield column("lemma3.2", "ge", grid, (tails[:, k, grid_m_idx], S),
                     ((tb - ta) ** 2 * grid_m * q, tb * tb * (N * q + grid_m * p)))

        ells = np.array(list(self.ell_index), dtype=np.int64)
        tops = ells * N
        at_top = tops[:, None, None]  # the (ell, matrix, row) axes

        # min(m/2N, 1/2C) * P(X_{ell N} >= 1)
        small = (ms * p <= N * q).astype(bool)
        yield column("lemma3.3a", "ge", {"m": ms.tolist()}, (hit1, S),
                     (np.where(small, ms, q) * tails[bs, 1, at_top],
                      np.where(small, 2 * N, 2 * p).astype(object) * S))

        km = np.array([(k, m) for k in range(1, n // 2 + 1) for m in range(2 * k * N, nN + 1)],
                      dtype=np.int64).reshape(-1, 2)
        ks, ms_b = km.T
        yield column("lemma3.3b", "ge", {"m": ms_b.tolist(), "k": ks.tolist()},
                     (tails[:, ks, ms_b], S),
                     (tails[bs, ks, at_top] * q, S * (2 * q + 4 * p)),
                     note="no (m, k) satisfies 2kN <= m <= nN")

        # indicator expectations: sum over k <= ell of #(X_m >= k), over S,
        # on the rows m <= ell N
        plain = np.cumsum(tails[:, 1: n + 1, 1:], axis=1)[:, ells - 1].transpose(1, 0, 2)
        plain_top = np.take_along_axis(plain, at_top - 1, 2)
        yield column("lemma3.4", "le", {"m": ms.tolist()},
                     (ms * plain_top, at_top.astype(object) * S),
                     ((8 * q + 16 * p) * plain, q * S), count=tops[:, None])

        # averaging for the matrix reduced to its ell N largest entries,
        # through the exact weights plain[m] - plain[m - 1] of its ranks;
        # entries are dyadic, so over matrix b's largest denominator d_b
        # they are integers s
        ratios = [[v.as_integer_ratio() for v in a.rearrangement.tolist()] for a in self.matrices]
        d = np.array([max(den for _, den in r) for r in ratios], dtype=object)
        s = np.array([[num * (db // den) for num, den in r] for r, db in zip(ratios, d)],
                     dtype=object)
        weights = np.diff(plain, axis=2, prepend=0)
        reduced = np.where(m_idx <= at_top, weights * s, 0).sum(axis=2)
        averaged = plain_top * np.take_along_axis(np.cumsum(s, axis=1)[None], at_top - 1, 2)
        yield column("lemma3.5", "le", {},
                     (averaged, at_top.astype(object) * S * d[:, None]),
                     ((8 * q + 16 * p) * reduced[..., None], q * S * d[:, None]))

        ks = np.arange(1, n // 2 + 1)
        yield column("lemma3.6", "ge", {"k": ks.tolist()},
                     (tails[bs, ks, at_top], S), (q, 2 * q + 4 * p), count=(ells // 2)[:, None],
                     note="k range 1..floor(ell/2) is empty for ell = 1")

        # Z = X_m: E Z = M/S and E Z^2 = Q/S, and P(Z >= theta E Z) is the tail
        # at the first integer reaching theta M/S
        M = tails[:, 1: n + 1, 1:].sum(axis=1)
        Q = (np.arange(1, 2 * n, 2, dtype=object)[:, None] * tails[:, 1: n + 1, 1:]).sum(axis=1)
        grid_M, grid_Q = np.repeat(M, T, axis=1), np.repeat(Q, T, axis=1)
        live = (grid_M > 0).astype(bool)
        k = np.clip(-(-ta * grid_M // (tb * S)), 0, n + 1).astype(np.int64)
        yield column(
            "paley-zygmund", "ge", grid, (tails[bs, k, grid_m_idx], S),
            ((tb - ta) ** 2 * grid_M * grid_M, tb * tb * S * np.where(live, grid_Q, 1)),
            constant=None, live=live, note="E Z = 0; inequality is vacuous",
            extra=lambda b, i: {"mean": M[b, i // T] / S, "second_moment": Q[b, i // T] / S})


class _LemmaInstance:
    """The suite's reports for one (matrix, family, ell) instance: matrix
    row ``b`` of a batch, at ``ell``.  Iterating builds the per-instance
    reports in check-id order, each check's rows in sweep order;
    ``aggregate`` gives one report per check id."""

    def __init__(self, batch: _LemmaBatch, b: int, ell: int, base: dict):
        self._batch, self._b, self._l, self._base = batch, b, batch.ell_index[ell], base

    def __iter__(self):
        for col in self._batch.columns:
            yield from col.reports(self._l, self._b, self._base)

    def aggregate(self) -> list[VerificationReport]:
        """One report per check id, in check-id order: the first instance of
        least float margin, with the instance and failure counts."""
        return [col.aggregate(self._l, self._b, self._base) for col in self._batch.reduced]


def lemma_suite(
    a: Matrix,
    family: MapFamily,
    ell: int,
    *,
    table: HitCountTable | None = None,
    extra_inputs: dict | None = None,
) -> _LemmaInstance:
    """Run every tail inequality on one (matrix, family, ell) instance.

    Sweeps: m over 1..nN (restricted to m <= ell*N where the statement
    requires it), theta over ``DEFAULT_THETAS`` (0.1, ..., 0.9), and k over
    the admissible ranges.  Instances with an empty parameter range are
    reported as vacuous.  Every instance is decided in exact integer
    arithmetic; reports are built when the returned instance is read.  The
    instance is read from the batch that ``table`` holds if that batch was
    made from ``a`` itself and covers ``ell``, else from a new batch of one
    over every ell.
    """
    _check_dims(a, family)
    if not 1 <= ell <= family.n:
        raise DomainError(f"ell={ell} out of range 1..{family.n}")
    require_uniform_marginals(family)
    c_pair = pairwise_constant(family).pairwise_bound
    if table is None:
        table = build_hit_table(family, order_map(a))
    batch, b = table._lemma_rows.get(c_pair, (None, 0))
    if batch is None or batch.matrices[b] is not a or ell not in batch.ell_index:
        batch, b = _LemmaBatch(family, [a], [table], range(1, family.n + 1)), 0
    base = {
        **(extra_inputs or {}),
        "matrix": a.digest(), "family": family.descriptor(), "ell": ell,
    }
    return _LemmaInstance(batch, b, ell, base)
