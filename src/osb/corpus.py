"""Deterministic matrix corpora for verification campaigns.

The default corpus covers every shape (n, N) in {1..5}^2 with 50 uniform,
10 integer-grid, and 10 sparse matrices per cell.  Entries are pure functions
of (seed, distribution, n, N, index), so corpora regenerate identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import rng
from .errors import FormatError, parse_json, read_input_text
from .matrices import Matrix, _validate_grid
from .reports import canonical_json

DEFAULT_SEED = 123456789
DEFAULT_GRID = tuple((n, N) for n in range(1, 6) for N in range(1, 6))
DEFAULT_SPARSE_DENSITY = 0.3

_DIST_CODES = {"uniform": 1, "integer": 2, "sparse": 3}
_DIST_PREFIX = {"uniform": "u", "integer": "i", "sparse": "s"}


@dataclass(frozen=True)
class CorpusSpec:
    """One homogeneous slice of a corpus: a shape grid, a count per cell, and
    an entry distribution (uniform [0,1], integer grid 0..9, or sparse with
    density ``DEFAULT_SPARSE_DENSITY`` of uniform entries)."""

    cells: tuple[tuple[int, int], ...] = DEFAULT_GRID
    matrices_per_cell: int = 50
    distribution: str = "uniform"
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.distribution not in _DIST_CODES:
            raise FormatError(f"unknown distribution {self.distribution!r}")
        if self.matrices_per_cell < 0:
            raise FormatError("matrices_per_cell must be nonnegative")


@dataclass(frozen=True)
class CorpusCell:
    n: int
    N: int
    matrices: tuple[tuple[str, Matrix], ...]  # (id, matrix) pairs


@dataclass(frozen=True)
class Corpus:
    seed: int
    cells: tuple[CorpusCell, ...]

    def __iter__(self) -> Iterator[CorpusCell]:
        return iter(self.cells)

    def total_matrices(self) -> int:
        return sum(len(c.matrices) for c in self.cells)


def _cell_matrices(spec: CorpusSpec, n: int, N: int) -> list[Matrix]:
    """The spec's matrices of one cell.  Matrix i's entries are the first
    words of stream derive_key(seed, 202, dist, n, N, i); the streams of
    every i are drawn together, as the rows of one array."""
    count = n * N
    keys = rng.derive_key(spec.seed, 202, _DIST_CODES[spec.distribution], n, N,
                          np.arange(spec.matrices_per_cell, dtype=np.uint64))
    words = rng.words(keys, 0, 2 * count if spec.distribution == "sparse" else count)
    if spec.distribution == "integer":
        flat = (words % np.uint64(10)).astype(np.float64)
    else:  # uniform [0, 1) from the 53 high bits of each word
        flat = (words >> np.uint64(11)).astype(np.float64) * 2.0**-53
    if spec.distribution == "sparse":  # words 0..count-1 gate the next count
        flat = np.where(flat[:, :count] < DEFAULT_SPARSE_DENSITY, flat[:, count:], 0.0)
    return [Matrix(row.reshape(n, N)) for row in flat]


def generate_corpus(specs: Sequence[CorpusSpec], seed: int = DEFAULT_SEED) -> Corpus:
    """Materialize the union of several corpus slices, grouped by cell."""
    by_cell: dict[tuple[int, int], list[tuple[str, Matrix]]] = {}
    for spec in specs:
        prefix = _DIST_PREFIX[spec.distribution]
        for n, N in spec.cells:
            by_cell.setdefault((n, N), []).extend(
                (f"{prefix}{idx:02d}", m)
                for idx, m in enumerate(_cell_matrices(spec, n, N)))
    cells = tuple(
        CorpusCell(n=n, N=N, matrices=tuple(by_cell[(n, N)]))
        for (n, N) in sorted(by_cell)
    )
    return Corpus(seed=seed, cells=cells)


def default_corpus(seed: int = DEFAULT_SEED) -> Corpus:
    return generate_corpus(
        [
            CorpusSpec(matrices_per_cell=50, distribution="uniform", seed=seed),
            CorpusSpec(matrices_per_cell=10, distribution="integer", seed=seed),
            CorpusSpec(matrices_per_cell=10, distribution="sparse", seed=seed),
        ],
        seed=seed,
    )


def single_matrix_corpus(a: Matrix) -> Corpus:
    """Wrap one matrix, with id m00, so campaigns can run on it directly."""
    return Corpus(
        seed=0,
        cells=(CorpusCell(n=a.rows, N=a.cols, matrices=(("m00", a),)),),
    )


# ---------------------------------------------------------------------------
# serialization


def corpus_to_json(corpus: Corpus) -> str:
    doc = {
        "seed": corpus.seed,
        "cells": [
            {
                "n": cell.n,
                "N": cell.N,
                "matrices": [
                    {
                        "id": mid,
                        "entries": m.entries.tolist(),
                    }
                    for mid, m in cell.matrices
                ],
            }
            for cell in corpus.cells
        ],
    }
    return canonical_json(doc) + "\n"


def parse_corpus_json(text: str) -> Corpus:
    obj = parse_json(text)
    if not isinstance(obj, dict) or not isinstance(obj.get("cells"), list):
        raise FormatError('corpus JSON needs a "cells" list')
    seed = obj.get("seed", 0)
    if type(seed) is not int:  # JSON true/false load as bool, 1.9 as float
        raise FormatError(f"corpus seed must be an integer, got {seed!r}")
    cells = []
    for cell in obj["cells"]:
        if not isinstance(cell, dict):
            raise FormatError("each corpus cell must be an object")
        n, N = cell.get("n"), cell.get("N")
        if type(n) is not int or type(N) is not int or n < 1 or N < 1:
            raise FormatError("cell dimensions must be positive integers")
        items = cell.get("matrices", [])
        if not isinstance(items, list) or not all(isinstance(i, dict) for i in items):
            raise FormatError(f"cell {n}x{N} needs a list of matrix objects")
        mats = []
        for item in items:
            m = _validate_grid(n, N, item.get("entries"))
            mid = item.get("id", f"m{len(mats):02d}")
            if type(mid) is not str:  # osb writes string ids; str() would rename others
                raise FormatError(f"matrix id {mid!r} in cell {n}x{N} is not a string")
            mats.append((mid, m))
        cells.append(CorpusCell(n=n, N=N, matrices=tuple(mats)))
    return Corpus(seed=seed, cells=tuple(cells))


def load_corpus(path: str) -> Corpus:
    return parse_corpus_json(read_input_text(path))

