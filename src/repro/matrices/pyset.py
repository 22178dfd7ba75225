"""Pure-Python boolean matrix backend (sets of coordinate pairs).

The dependency-free reference implementation: a matrix is a set of
(row, column) pairs plus a shape.  Slowest of the bundled backends but
the easiest to audit; the property tests use it as the ground truth the
NumPy/SciPy backends must agree with.

The value-semantics operations return fresh matrices; the mutable
kernels (``union_update`` / ``difference``) work directly on the
internal pair set and keep the per-row index coherent, so the delta
closure engine can grow a matrix without rebuilding it.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Iterator

from .base import BooleanMatrix, MatrixBackend, Pair, register_backend


class PySetMatrix(BooleanMatrix):
    """Coordinate-set boolean matrix with in-place union support."""

    __slots__ = ("_shape", "_pairs", "_rows_index")

    backend_name = "pyset"
    supports_inplace = True

    def __init__(self, shape: tuple[int, int], pairs: Iterable[Pair]):
        self._shape = shape
        pair_set = set(pairs)
        for i, j in pair_set:
            if not (0 <= i < shape[0] and 0 <= j < shape[1]):
                raise ValueError(f"pair {(i, j)} outside shape {shape}")
        self._pairs = pair_set
        rows_index: dict[int, set[int]] = defaultdict(set)
        for i, j in pair_set:
            rows_index[i].add(j)
        self._rows_index = dict(rows_index)

    @property
    def shape(self) -> tuple[int, int]:
        return self._shape

    def __getitem__(self, index: Pair) -> bool:
        return index in self._pairs

    def nonzero_pairs(self) -> Iterator[Pair]:
        return iter(self._pairs)

    def nnz(self) -> int:
        return len(self._pairs)

    def multiply(self, other: BooleanMatrix) -> "PySetMatrix":
        self._require_chainable(other)
        # Index other's rows: k -> columns j with other[k, j].
        other_rows = _rows_of(other)
        result: set[Pair] = set()
        for i, ks in self._rows_index.items():
            for k in ks:
                for j in other_rows.get(k, ()):
                    result.add((i, j))
        return PySetMatrix((self._shape[0], other.shape[1]), result)

    def union(self, other: BooleanMatrix) -> "PySetMatrix":
        self._require_same_shape(other)
        return PySetMatrix(self._shape, self._pairs | set(other.nonzero_pairs()))

    def transpose(self) -> "PySetMatrix":
        return PySetMatrix(
            (self._shape[1], self._shape[0]),
            ((j, i) for i, j in self._pairs),
        )

    def difference(self, other: BooleanMatrix) -> "PySetMatrix":
        self._require_same_shape(other)
        return PySetMatrix(self._shape,
                           self._pairs - set(other.nonzero_pairs()))

    def union_update(self, other: BooleanMatrix) -> "PySetMatrix":
        self._require_same_shape(other)
        new_pairs = set(other.nonzero_pairs()) - self._pairs
        self._pairs |= new_pairs
        for i, j in new_pairs:
            self._rows_index.setdefault(i, set()).add(j)
        return PySetMatrix(self._shape, new_pairs)


def _rows_of(matrix: BooleanMatrix) -> dict[int, set[int]]:
    if isinstance(matrix, PySetMatrix):
        return matrix._rows_index
    rows: dict[int, set[int]] = defaultdict(set)
    for k, j in matrix.nonzero_pairs():
        rows[k].add(j)
    return rows


class PySetBackend(MatrixBackend):
    """Factory for :class:`PySetMatrix`."""

    name = "pyset"

    def zeros(self, rows: int, cols: int | None = None) -> PySetMatrix:
        return PySetMatrix((rows, cols if cols is not None else rows), ())

    def from_pairs(self, size: int, pairs: Iterable[Pair],
                   cols: int | None = None) -> PySetMatrix:
        return PySetMatrix((size, cols if cols is not None else size), pairs)

    def clone(self, matrix: BooleanMatrix) -> PySetMatrix:
        rows, cols = matrix.shape
        return PySetMatrix((rows, cols), matrix.nonzero_pairs())

    def mask_rows(self, matrix: BooleanMatrix, keep) -> PySetMatrix:
        n_rows, n_cols = matrix.shape
        wanted = set(keep)
        for row in wanted:
            if not 0 <= row < n_rows:
                raise IndexError(
                    f"row {row} out of range for shape {matrix.shape}"
                )
        by_row = _rows_of(matrix)
        pairs = [
            (i, j) for i, columns in by_row.items()
            if i in wanted for j in columns
        ]
        return PySetMatrix((n_rows, n_cols), pairs)


BACKEND = register_backend(PySetBackend())
