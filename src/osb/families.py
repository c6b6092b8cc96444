"""Finite families of maps {1..n} -> {1..N} with normalized counting measure.

Built-in kinds (the full symmetric group and the set of all mappings) are
never materialized for measure certificates; closed-form counts are used.
Enumeration-requiring operations stream members in chunks and refuse families
above the size cap (``OSB_ENUM_CAP``, default 10**7).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from . import rng
from .errors import (DomainError, FormatError, HypothesisError, ResourceError,
                     read_input_text)

DEFAULT_ENUM_CAP = 10_000_000

KIND_SYMMETRIC = "symmetric-group"
KIND_FULL_MAPPING = "full-mapping"
KIND_EXPLICIT = "explicit"

_KIND_CODES = {KIND_SYMMETRIC: 1, KIND_FULL_MAPPING: 2, KIND_EXPLICIT: 3}
_SAMPLE_STREAM = 101


def enumeration_cap() -> int:
    raw = os.environ.get("OSB_ENUM_CAP")
    if not raw:
        return DEFAULT_ENUM_CAP
    try:
        return int(raw)
    except ValueError:
        raise DomainError(
            f"OSB_ENUM_CAP from the environment must be an integer, got {raw!r}"
        ) from None


@dataclass(frozen=True, eq=False)
class MapFamily:
    """A multiset of maps {1..n} -> {1..N}; probability of E is |E| / |G|.

    An explicit family holds its members, in list order, as one read-only
    (size, n) int64 array.  Two families are equal when their kinds, n, N
    and member lists, in order, are equal.
    """

    n: int
    N: int
    kind: str
    members: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in _KIND_CODES:
            raise DomainError(f"unknown family kind {self.kind!r}")
        # bool is an int subclass, and numpy integers are not ints
        if type(self.n) is not int or type(self.N) is not int:
            raise DomainError(f"n and N must be integers, got {self.n!r} and {self.N!r}")
        if self.n < 1 or self.N < 1:
            raise DomainError("n and N must be positive")
        if self.kind == KIND_SYMMETRIC and self.N != self.n:
            raise DomainError("symmetric-group families require N == n")
        if self.kind == KIND_EXPLICIT:
            object.__setattr__(self, "members",
                               _member_array(self.members, self.n, self.N))
        elif self.members is not None:
            raise DomainError("built-in kinds carry no explicit member list")

    def __eq__(self, other):
        if not isinstance(other, MapFamily):
            return NotImplemented
        return ((self.kind, self.n, self.N) == (other.kind, other.n, other.N)
                and np.array_equal(self.members, other.members))

    def __hash__(self):
        return hash(self.descriptor())

    @property
    def size(self) -> int:
        if self.kind == KIND_SYMMETRIC:
            return math.factorial(self.n)
        if self.kind == KIND_FULL_MAPPING:
            return self.N**self.n
        return self.members.shape[0]

    def descriptor(self) -> str:
        if self.kind == KIND_SYMMETRIC:
            return f"sym:{self.n}"
        if self.kind == KIND_FULL_MAPPING:
            return f"map:{self.n}:{self.N}"
        return self._explicit_descriptor

    @cached_property
    def _explicit_descriptor(self) -> str:
        # hashes every member, so it is computed once per family object.  The
        # payload is "n:N:" and the members, values joined by "," and members
        # by ";", in ASCII: each value's digits right-aligned after zero
        # bytes, then its separator, and the zero bytes dropped.  It is
        # hashed MEMBER_BLOCK_ROWS members at a time.
        top = int(self.members.max())
        digits = len(str(top))
        sha = hashlib.sha256(f"{self.n}:{self.N}:".encode())
        for lo in range(0, self.size, MEMBER_BLOCK_ROWS):
            q = self.members[lo : lo + MEMBER_BLOCK_ROWS].astype(np.min_scalar_type(top))
            text = np.full(q.shape + (digits + 1,), ord(","), dtype=np.uint8)
            text[:, -1, digits] = ord(";")
            for j in range(digits - 1, -1, -1):
                text[..., j] = (q % 10 + ord("0")) * (q > 0)
                q //= 10
            text = text[text != 0]
            sha.update(text[:-1] if lo + MEMBER_BLOCK_ROWS >= self.size else text)
        return "explicit:" + sha.hexdigest()[:8]

    # The certificate is exact and the family is immutable, so it is computed
    # once per family object, however often it is asked for.
    @cached_property
    def _certificate(self) -> MeasureCertificate:
        return _compute_certificate(self)

    # So is the path index of a family whose enumeration is one run without
    # prefix (see _member_runs): each member's path as the flat positions of
    # an (n, N) table, read-only.  Other families have none.
    @cached_property
    def _path_index(self) -> Optional[np.ndarray]:
        if self.size > MEMBER_BLOCK_ROWS or _run_width(self) < self.n:
            return None
        index = next(iter_member_arrays(self, self.size))
        index += _offsets(self.n, self.N)
        index.setflags(write=False)
        return index


def symmetric_group(n: int) -> MapFamily:
    """All n! permutations of {1..n}."""
    return MapFamily(n=n, N=n, kind=KIND_SYMMETRIC)


def full_mapping_family(n: int, N: int) -> MapFamily:
    """All N**n maps from {1..n} to {1..N}."""
    return MapFamily(n=n, N=N, kind=KIND_FULL_MAPPING)


def explicit_family(maps: Sequence[Sequence[int]], n: int, N: int) -> MapFamily:
    """A listed family; duplicates weight the counting measure.  ``maps`` is
    a sequence of sequences or an array, copied once."""
    return MapFamily(n=n, N=N, kind=KIND_EXPLICIT, members=maps)


def _member_array(maps, n: int, N: int) -> np.ndarray:
    try:
        arr = np.array(maps)
    except ValueError:  # a ragged nested list
        raise DomainError(f"each map must list {n} values") from None
    if maps is None or arr.shape[:1] == (0,):
        raise DomainError("explicit families must be nonempty")
    if arr.ndim != 2 or arr.shape[1] != n:
        raise DomainError(f"each map must list {n} values")
    # two reductions, no boolean temporaries
    if arr.dtype.kind not in "iu" or not (arr.min() >= 1 and arr.max() <= N):
        raise DomainError(f"map values must be integers in 1..{N}")
    arr = arr.astype(np.int64, copy=False)
    arr.setflags(write=False)
    return arr


def load_family(path: str) -> MapFamily:
    """Read an explicit family from JSON {"n": ..., "N": ..., "maps": [[...]]}."""
    text = read_input_text(path)
    try:
        obj = json.loads(text)
    except ValueError as e:  # JSONDecodeError, or an integer too long to parse
        raise FormatError(f"invalid JSON: {e}") from e
    if not isinstance(obj, dict) or not {"n", "N", "maps"} <= set(obj):
        raise FormatError('family JSON needs keys "n", "N", "maps"')
    n, N, maps = obj["n"], obj["N"], obj["maps"]
    if type(n) is not int or type(N) is not int or n < 1 or N < 1:
        raise FormatError("n and N must be positive integers")
    if not isinstance(maps, list) or not maps:
        raise FormatError("maps must be a nonempty list")
    # JSON gives int, bool, float, str, list, dict or None, and numpy reads
    # a bool among ints as an int: a 2-d int64 table holds only ints and
    # bools, and JSON writes a bool as true or false.  So the values' types
    # are scanned, to name the first that is not an int, only for another
    # table or a text with one of those words in it.  The text is not held
    # beside the table
    words = "true" in text or "false" in text
    del text
    try:
        table = np.array(maps)
    except ValueError:  # ragged, or a map nested deeper
        table = None
    if table is None or table.dtype != np.int64 or table.ndim != 2 or words:
        if any(type(g) is not list for g in maps):
            raise FormatError(f"each map must list {n} values")
        if set(map(type, itertools.chain.from_iterable(maps))) - {int}:
            bad = next(v for v in itertools.chain.from_iterable(maps) if type(v) is not int)
            raise FormatError(f"map value {bad!r} is not an integer")
    # a ragged list fails the shape check.  The JSON's lists are not held
    # while MapFamily checks the table and copies it
    members = maps if table is None else table
    del obj, maps, table
    try:  # MapFamily checks the shape and the range
        return explicit_family(members, n, N)
    except DomainError as e:
        raise FormatError(str(e)) from e


# ---------------------------------------------------------------------------
# enumeration


def require_enumerable(family: MapFamily, cap: int | None = None,
                       advice: str = "use Monte Carlo sampling instead"):
    """Refuse a family above the enumeration cap, with ``advice`` on what
    to do instead."""
    cap = enumeration_cap() if cap is None else cap
    if family.size > cap:
        raise ResourceError(
            f"family {family.descriptor()} has {family.size} members, above the "
            f"enumeration cap {cap}; {advice}"
        )


# rows per enumerated block; the cut points are part of the output contract
MEMBER_BLOCK_ROWS = 65_536


def iter_member_arrays(
    family: MapFamily, cap: int | None = None
) -> Iterator[np.ndarray]:
    """Stream all members as int64 arrays of shape (B, n), values 1..N.

    Iteration order is fixed: lexicographic for built-in kinds, list order for
    explicit families.  Every block but the last holds ``MEMBER_BLOCK_ROWS``
    rows.  The order and the cut points are part of the output contract:
    exact expectations add per-block float sums, whose last bits depend on
    both.  Each block is a fresh array.
    """
    for groups in _member_runs(family, cap):
        yield _member_block(groups, family.n)


def _member_runs(family: MapFamily, cap: int | None = None):
    """The enumeration of ``iter_member_arrays``, block by block: each block
    is a list of (prefixes, rows) groups in order, where ``prefixes`` is a
    (g, n - r) int64 array and each of its rows is followed by every row of
    ``rows``, an (R, r) integer array.  Consecutive runs that share their
    table, as every ``map`` run of a block does, form one group; a run that
    a block boundary cuts is a group of its own, its rows a slice.

    - ``map``: the high n - r digits stay fixed over a run of the N**r maps
      {1..r} -> {1..N}, prefixes and table rows both lexicographic;
    - ``sym``: each prefix of n - r values, in lexicographic order, is
      followed by the permutations of the values it leaves out, in
      lexicographic order, held in the narrowest type of 1..n;
    - explicit: one run with no prefix, holding the members.

    Raises ResourceError above the cap when called, before any block."""
    require_enumerable(family, cap)
    n, N, r = family.n, family.N, _run_width(family)
    if family.kind == KIND_EXPLICIT:
        runs = [((), family.members)]
    elif family.kind == KIND_SYMMETRIC:
        table = _permutation_table(r).astype(np.min_scalar_type(n), copy=False)
        runs = ((prefix, _left_out(table, prefix))
                for prefix in itertools.permutations(range(1, n + 1), n - r))
    else:
        table = _mapping_table(N, r)
        runs = ((prefix, table)
                for prefix in itertools.product(range(1, N + 1), repeat=n - r))
    return _group_runs(runs, MEMBER_BLOCK_ROWS)


def _one_run_index(family: MapFamily, cap: int | None = None) -> Optional[np.ndarray]:
    """The family's path index, or None, after the cap check that every
    enumeration makes."""
    require_enumerable(family, cap)
    return family._path_index


def _offsets(n: int, N: int) -> np.ndarray:
    """Value v at path position i of an (n, N) table is at flat position
    offsets[i] + v."""
    return np.arange(n) * N - 1


def _left_out(table: np.ndarray, prefix: tuple) -> np.ndarray:
    """Each value k of ``table`` replaced by the k-th smallest value that
    ``prefix`` leaves out: k passes each prefix value, in increasing order,
    that it reaches."""
    rows = table.copy()
    for v in sorted(prefix):
        rows += rows >= v
    return rows


def _group_runs(runs, chunk: int):
    """(prefix, rows) runs as blocks of ``chunk`` rows, the last shorter,
    each a list of (prefixes, rows) groups."""
    def grouped(block):
        return [(np.array(prefixes, dtype=np.int64), rows) for prefixes, rows in block]

    block, room = [], chunk
    for prefix, rows in runs:
        pos = 0
        while pos < rows.shape[0]:
            k = min(rows.shape[0] - pos, room)
            piece = rows if k == rows.shape[0] else rows[pos : pos + k]
            if block and block[-1][1] is piece:  # a whole run of the same table
                block[-1][0].append(prefix)
            else:
                block.append(([prefix], piece))
            pos += k
            room -= k
            if room == 0:
                yield grouped(block)
                block, room = [], chunk
    if block:
        yield grouped(block)


def _member_block(groups: list, n: int) -> np.ndarray:
    """The members of a block of ``_member_runs`` groups as one fresh (B, n)
    int64 array, each group written as one broadcast into a (g, R, n)
    view."""
    block = np.empty((sum(p.shape[0] * rows.shape[0] for p, rows in groups), n),
                     dtype=np.int64)
    filled = 0
    for prefixes, rows in groups:
        g, width = prefixes.shape
        view = block[filled : filled + g * rows.shape[0]].reshape(g, rows.shape[0], n)
        view[:, :, :width] = prefixes[:, None, :]
        view[:, :, width:] = rows
        filled += g * rows.shape[0]
    return block


# r = 7 keeps a permutation table (the enumeration's, or the sampler's shuffle
# table) at 5040 rows; N**r <= 4096 (or r = 1) keeps a mapping table at a few
# hundred KB.  All are far below MEMBER_BLOCK_ROWS.
_SYM_TABLE_WIDTH = 7
_MAP_TABLE_ROWS = 4096


def _run_width(family: MapFamily) -> int:
    """The positions r that each run's table of ``_member_runs`` holds."""
    if family.kind == KIND_EXPLICIT:
        return family.n
    if family.kind == KIND_SYMMETRIC:
        return min(family.n, _SYM_TABLE_WIDTH)
    return _map_table_width(family.n, family.N)


def _map_table_width(n: int, N: int) -> int:
    """The positions r of a ``map`` run's table: the most, up to n, whose
    N**r maps fit in _MAP_TABLE_ROWS rows, and at least one."""
    r = 1
    while r < n and N ** (r + 1) <= _MAP_TABLE_ROWS:
        r += 1
    return r


@lru_cache(maxsize=None)
def _permutation_table(r: int) -> np.ndarray:
    """All permutations of 1..r in lexicographic order, read-only."""
    table = np.array(list(itertools.permutations(range(1, r + 1))), dtype=np.uint8)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=32)
def _mapping_table(N: int, r: int) -> np.ndarray:
    """All maps {1..r} -> {1..N} in lexicographic order, read-only; by
    arithmetic, since numpy arrays have at most 64 axes and N = 1 allows
    any r."""
    codes = np.arange(N**r, dtype=np.int64)[:, None]
    table = codes // N ** np.arange(r - 1, -1, -1, dtype=np.int64) % N + 1
    table.setflags(write=False)
    return table


# ---------------------------------------------------------------------------
# measure certificates


@dataclass(frozen=True)
class MeasureCertificate:
    """Exact marginal and pairwise-correlation data for a family.

    ``worst_marginal_deviation`` is the largest |P(g(i) = j) - 1/N|, and
    ``pairwise_bound`` is N**2 times the largest probability of fixing two
    distinct (index, value) pairs, attained at ``argmax_pair``; no such pair
    exists when n = N = 1, and it is None.  All probabilities are exact
    rationals.
    """

    family: str
    size: int
    marginals_uniform: bool
    worst_marginal_deviation: Fraction
    pairwise_bound: Fraction
    argmax_pair: Optional[tuple[tuple[int, int], tuple[int, int]]]

    def to_json_obj(self) -> dict:
        def rational(f):
            return {"fraction": f"{f.numerator}/{f.denominator}", "real": float(f)}

        return {
            "family": self.family,
            "size": self.size,
            "marginals_uniform": self.marginals_uniform,
            "worst_marginal_deviation": rational(self.worst_marginal_deviation),
            "pairwise_constant": rational(self.pairwise_bound),
            "argmax_pair": None if self.argmax_pair is None else
                [list(self.argmax_pair[0]), list(self.argmax_pair[1])],
        }


def check_marginals(family: MapFamily) -> MeasureCertificate:
    """The family's certificate, whose ``marginals_uniform`` says whether
    every event {g(i) = j} has probability exactly 1/N."""
    return family._certificate


def pairwise_constant(family: MapFamily) -> MeasureCertificate:
    """The family's certificate, whose ``pairwise_bound`` is the exact
    smallest constant C with P(g(i1)=j1, g(i2)=j2) <= C / N**2.

    Computed as N**2 times the maximal probability over distinct pairs; the
    maximum over an empty pair set (n = N = 1) is 0.
    """
    return family._certificate


def _compute_certificate(family: MapFamily) -> MeasureCertificate:
    n, N, size = family.n, family.N, family.size
    if family.kind != KIND_EXPLICIT:
        # each value j is attained by exactly |G|/N members at every index
        worst = Fraction(0)
        if n == 1:
            # pairs (1,j1),(1,j2) with j1 != j2 have probability 0
            bound, argmax = Fraction(0), None if N == 1 else ((1, 1), (1, 2))
        elif family.kind == KIND_SYMMETRIC:
            # exactly (n-2)! permutations fix two compatible values
            bound, argmax = Fraction(n, n - 1), ((1, 1), (2, 2))
        else:
            bound, argmax = Fraction(1), ((1, 1), (2, 1))
    else:
        # row i of codes holds i * N + g(i) - 1 for every member g, so
        # counts[i, j - 1] members map i to j; |count/size - 1/N| is
        # |count*N - size| / (N*size)
        codes = np.add(family.members.T, (N * np.arange(n) - 1)[:, None], order="C")
        counts = np.bincount(codes.ravel(), minlength=n * N).reshape(n, N)
        worst = Fraction(int(np.abs(counts * N - size).max()), N * size)
        # one count per i1 of every (i2, j1, j2) with i2 > i1, i2 outermost,
        # in the same array, from the rows below row i1 shifted in place:
        # count(i1, j1, i2, j2) = count(i2, j2, i1, j1), so the first
        # maximal pair in (i1, i2, j1, j2) order has i1 < i2, and argmax
        # gives it, as every such i2 holds a positive count
        codes += (N * N - N) * np.arange(n)[:, None]
        best_count, argmax = 0, None
        for i1 in range(n - 1):
            first, rows = (codes[i1] - i1 * N * N) * N, codes[i1 + 1 :]
            rows += first
            pair_counts = np.bincount(rows.ravel(), minlength=n * N * N)
            rows -= first
            top = int(pair_counts.argmax())
            if int(pair_counts[top]) > best_count:
                best_count = int(pair_counts[top])
                i2, code = divmod(top, N * N)
                argmax = ((i1 + 1, code // N + 1), (i2 + 1, code % N + 1))
        del codes  # not held while the descriptor is built
        if argmax is None and N > 1:
            argmax = ((1, 1), (1, 2))  # probability-0 pair; no two indices exist
        bound = Fraction(N * N * best_count, size)
    return MeasureCertificate(
        family=family.descriptor(), size=size, marginals_uniform=worst == 0,
        worst_marginal_deviation=worst, pairwise_bound=bound, argmax_pair=argmax,
    )


def require_uniform_marginals(family: MapFamily):
    """Raise HypothesisError, with the family's certificate attached, unless
    every event {g(i) = j} has probability exactly 1/N."""
    cert = check_marginals(family)
    if not cert.marginals_uniform:
        raise HypothesisError(
            f"family {family.descriptor()} violates the uniform-marginal "
            f"hypothesis (worst deviation {cert.worst_marginal_deviation})",
            certificate=cert,
        )


# ---------------------------------------------------------------------------
# sampling

# Draw d of the stream owns words [d*n, (d+1)*n); permutations use a
# Fisher-Yates sweep, mappings one word per coordinate, explicit families one
# word as a member index.  The result is a pure function of (seed, d), so any
# partitioning of a draw range reproduces the serial sequence.  A sampler
# that reads one word of each draw, such as swap t or the member index, asks
# for that column alone: the words from d*n + t with stride n.


def _sample_key(family: MapFamily, seed: int) -> int:
    code = _KIND_CODES[family.kind]
    return rng.derive_key(seed, _SAMPLE_STREAM, code, family.n, family.N, family.size)


def _remainder(w: np.ndarray, r: int) -> np.ndarray:
    """``w % r`` in place on contiguous uint64 words, computed as
    ``w - (w // r) * r``: numpy divides by a scalar through a multiplication
    by its inverse (Granlund and Montgomery, PLDI 1994), but its remainder
    divides each word.  Pieces of 16,384 words keep the quotient buffer in a
    core's cache; a strided column loses the fast division, so ``w`` must be
    contiguous."""
    piece = 16384
    r = np.uint64(r)
    quotient = np.empty(min(w.size, piece), dtype=np.uint64)
    for lo in range(0, w.size, piece):
        z = w[lo : lo + piece]
        q = quotient[: z.size]
        np.floor_divide(z, r, out=q)
        q *= r
        z -= q
    return w


def sample_array(
    family: MapFamily, seed: int, count: int, start: int = 0
) -> np.ndarray:
    """Draws ``start .. start+count-1`` as an int64 array of shape (count, n)."""
    if count < 1:
        raise DomainError("count must be >= 1")
    n, N = family.n, family.N
    if (start + count) * n >= 2**64:
        raise DomainError(f"draws {start}..{start + count - 1} run past the "
                          "64-bit word counter of the sample stream")
    key = _sample_key(family, seed)

    def column(t: int, r: int) -> np.ndarray:
        # word t of every draw, mod r; the remainders are below 2**63, so
        # int64 reads them
        return _remainder(rng.words(key, start * n + t, count, n), r).view(np.int64)

    if family.kind == KIND_FULL_MAPPING:
        w = _remainder(rng.words(key, start * n, count * n), N)
        draws = w.view(np.int64).reshape(count, n)
        draws += 1
        return draws
    if family.kind == KIND_EXPLICIT:
        return family.members[column(0, family.size)]
    choices = (column(t, n - t) for t in range(n - 1))
    if n > _SYM_TABLE_WIDTH:
        return _fisher_yates(choices, n, count)
    # the swap choices, read as digits of radices n, n-1, ..., 2, index the
    # table of the permutations those swaps produce; word n - 1 of a draw is
    # never read
    code = np.zeros(count, dtype=np.int64)
    for radix, choice in zip(range(n, 1, -1), choices):
        code *= radix
        code += choice
    return _shuffle_table(n).take(code, axis=0)


def _fisher_yates(choices: Iterable[np.ndarray], n: int, count: int) -> np.ndarray:
    """Durstenfeld's sweep on ``count`` rows of 1..n: step t swaps position
    n-1-t with the position its choice names, in 0..n-1-t."""
    perm = np.tile(np.arange(1, n + 1, dtype=np.int64), (count, 1))
    rows = np.arange(count)
    for t, choice in enumerate(choices):
        i = n - 1 - t
        j = choice.astype(np.int64)
        vi = perm[rows, i].copy()
        perm[rows, i] = perm[rows, j]
        perm[rows, j] = vi
    return perm


@lru_cache(maxsize=None)
def _shuffle_table(n: int) -> np.ndarray:
    """Row c is the sweep's permutation for the choices whose mixed-radix
    code (radices n, n-1, ..., 2, first choice most significant) is c;
    read-only, n! rows (n <= _SYM_TABLE_WIDTH)."""
    size = math.factorial(n)
    code = np.arange(size, dtype=np.int64)
    choices = []
    for radix in range(2, n + 1):
        choices.append(code % radix)
        code //= radix
    table = _fisher_yates(reversed(choices), n, size)
    table.setflags(write=False)
    return table


# ---------------------------------------------------------------------------
# family specifiers ("sym:3", "map:2:3", "file:PATH"; bare "sym"/"map" adapt
# to each corpus cell)


@dataclass(frozen=True)
class FamilySpec:
    kind: str
    n: Optional[int] = None
    N: Optional[int] = None
    path: Optional[str] = None

    @cached_property
    def file_family(self) -> MapFamily:
        """The family a ``file:`` spec names, read on first use and kept."""
        return load_family(self.path)


def parse_family_spec(text: str) -> FamilySpec:
    parts = text.split(":")
    spec = None
    try:
        if parts[0] == "sym":
            if len(parts) == 1:
                return FamilySpec("sym")
            if len(parts) == 2:
                spec = FamilySpec("sym", n=int(parts[1]), N=int(parts[1]))
        elif parts[0] == "map":
            if len(parts) == 1:
                return FamilySpec("map")
            if len(parts) == 3:
                spec = FamilySpec("map", n=int(parts[1]), N=int(parts[2]))
        elif parts[0] == "file" and len(parts) >= 2:
            return FamilySpec("file", path=text.split(":", 1)[1])
    except ValueError:
        pass
    if spec is None:
        raise DomainError(
            f"bad family specifier {text!r}; expected sym[:n], map[:n:N], or file:PATH"
        )
    if spec.n < 1 or spec.N < 1:
        raise DomainError(f"bad family specifier {text!r}; n and N must be positive")
    return spec


def family_for_cell(spec: FamilySpec, n: int, N: int) -> Optional[MapFamily]:
    """The family this spec denotes on an (n, N) cell, or None if inapplicable."""
    if spec.kind == "sym":
        if spec.n is not None and spec.n != n:
            return None
        return symmetric_group(n) if n == N else None
    if spec.kind == "map":
        if spec.n is not None and (spec.n, spec.N) != (n, N):
            return None
        return full_mapping_family(n, N)
    fam = spec.file_family
    return fam if (fam.n, fam.N) == (n, N) else None
