"""Nonnegative matrices, decreasing rearrangements, and position orderings.

Row/column indices, map values, and rank indices are 1-based throughout the
public API; they name mathematical objects, not array offsets.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import DomainError, FormatError, read_input_text


def render_float(x: float) -> str:
    """Canonical decimal rendering with 17 significant digits (round-trips).
    A non-finite value raises DomainError."""
    if not math.isfinite(x):
        raise DomainError(f"non-finite value cannot be rendered: {x!r}")
    return format(float(x), ".17g")


@dataclass(frozen=True)
class Matrix:
    """Immutable n x N matrix of nonnegative reals.

    Construction takes absolute values, so downstream code never re-checks
    sign.  The decreasing rearrangement of all entries is computed once and
    cached.
    """

    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise FormatError(f"matrix must be 2-d and nonempty, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise FormatError("matrix entries must be finite")
        arr = np.abs(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

    @cached_property
    def rearrangement(self) -> np.ndarray:
        """All entries sorted in nonincreasing order (read-only, length n*N)."""
        s = np.sort(self.entries.ravel())[::-1].copy()
        s.setflags(write=False)
        return s

    @cached_property
    def _partial_sums(self) -> np.ndarray:
        # _partial_sums[m] = sum of the m largest entries, m = 0..n*N
        ps = np.concatenate(([0.0], np.cumsum(self.rearrangement)))
        ps.setflags(write=False)
        return ps

    @cached_property
    def _top_records(self) -> dict:
        # the exact top-sum record of each family's width-n pass, filled by
        # orderstats._top_record on the first exact call for that family
        return {}

    def top_sum(self, count: int) -> float:
        """Sum of the ``count`` largest entries."""
        if not 0 <= count <= self.rows * self.cols:
            raise DomainError(f"count {count} out of range 0..{self.rows * self.cols}")
        return float(self._partial_sums[count])

    @cached_property
    def _digest(self) -> str:
        # the entries are finite by construction, so each is rendered as
        # render_float renders it, without its check
        payload = f"{self.rows}x{self.cols}:" + ",".join(
            [format(v, ".17g") for v in self.entries.ravel().tolist()]
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:12]

    def digest(self) -> str:
        """Short content hash used to identify matrices in reports."""
        return self._digest

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[float]]) -> "Matrix":
        return cls(np.array([list(r) for r in rows], dtype=np.float64))


@dataclass(frozen=True)
class OrderMap:
    """Bijection from ranks 1..n*N to matrix positions, nonincreasing in value.

    ``pairs[r-1]`` is the (row, col) holding the r-th largest entry of the
    source matrix; ties are broken lexicographically by (row, col), so the
    ordering is deterministic.
    """

    n: int
    N: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        grid = {(i, j) for i in range(1, self.n + 1) for j in range(1, self.N + 1)}
        if len(self.pairs) != len(grid) or set(self.pairs) != grid:
            raise DomainError("pairs must enumerate every position exactly once")

    @cached_property
    def rank_of(self) -> np.ndarray:
        """rank_of[i-1, j-1] = rank r with pairs[r-1] == (i, j)."""
        rank = np.empty((self.n, self.N), dtype=np.int64)
        for r, (i, j) in enumerate(self.pairs, start=1):
            rank[i - 1, j - 1] = r
        rank.setflags(write=False)
        return rank


def order_map(m: Matrix) -> OrderMap:
    """Canonical ordering of positions by entry value, largest first."""
    positions = [(i, j) for i in range(1, m.rows + 1) for j in range(1, m.cols + 1)]
    positions.sort(key=lambda p: (-m.entries[p[0] - 1, p[1] - 1], p[0], p[1]))
    return OrderMap(m.rows, m.cols, tuple(positions))


def reduce_to_top(m: Matrix, order: OrderMap, ell: int) -> Matrix:
    """Zero every entry outside the ell*N largest (ties resolved by ``order``)."""
    if (m.rows, m.cols) != (order.n, order.N):
        raise DomainError(f"matrix is {m.rows}x{m.cols}, ordering is {order.n}x{order.N}")
    if not 1 <= ell <= m.rows:
        raise DomainError(f"ell={ell} out of range 1..{m.rows}")
    out = np.zeros((order.n, order.N))
    for i, j in order.pairs[: ell * order.N]:
        out[i - 1, j - 1] = m.entries[i - 1, j - 1]
    return Matrix(out)


# ---------------------------------------------------------------------------
# file formats


def matrix_to_json_obj(m: Matrix) -> dict:
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [[float(v) for v in row] for row in m.entries],
    }


def _validate_grid(rows_field, cols_field, grid) -> Matrix:
    if type(rows_field) is not int or type(cols_field) is not int:
        raise FormatError("rows/cols must be integers")
    if rows_field < 1 or cols_field < 1:
        raise FormatError("dimensions must be positive")
    if not isinstance(grid, list) or not all(isinstance(row, list) for row in grid):
        raise FormatError("entries must be a list of rows")
    if len(grid) != rows_field:
        raise FormatError(f"expected {rows_field} rows, got {len(grid)}")
    for row in grid:
        if len(row) != cols_field:
            raise FormatError("ragged rows are not allowed")
        for v in row:
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                raise FormatError(f"non-numeric entry {v!r}")
            try:
                finite = math.isfinite(v)
            except OverflowError:  # an integer beyond the float range
                finite = False
            if not finite:
                raise FormatError(f"non-finite entry {v!r}")
    return Matrix.from_rows(grid)


def parse_matrix_json(text: str) -> Matrix:
    try:
        obj = json.loads(text)
    except ValueError as e:  # JSONDecodeError, or an integer too long to parse
        raise FormatError(f"invalid JSON: {e}") from e
    if not isinstance(obj, dict) or not {"rows", "cols", "entries"} <= set(obj):
        raise FormatError('matrix JSON needs keys "rows", "cols", "entries"')
    return _validate_grid(obj["rows"], obj["cols"], obj["entries"])


def parse_matrix_csv(text: str) -> Matrix:
    grid = []
    for record in csv.reader(io.StringIO(text)):
        if not record or all(not f.strip() for f in record):
            continue
        try:
            grid.append([float(f) for f in record])
        except ValueError as e:
            raise FormatError(f"bad CSV field: {e}") from e
    if not grid:
        raise FormatError("empty matrix file")
    width = len(grid[0])
    if any(len(r) != width for r in grid):
        raise FormatError("ragged rows are not allowed")
    for row in grid:
        for v in row:
            if not np.isfinite(v):
                raise FormatError(f"non-finite entry {v!r}")
    return Matrix.from_rows(grid)


def load_matrix(path: str) -> Matrix:
    """Load a matrix from a .json or .csv file (format chosen by suffix)."""
    text = read_input_text(path)
    if path.endswith(".json"):
        return parse_matrix_json(text)
    return parse_matrix_csv(text)
