"""Array-native annotated matrices for the scalar-valued semirings.

The dict-of-cells :class:`repro.core.semiring.AnnotatedMatrix` pays one
Python object and one interpreter step per cell.  For the semirings
whose annotation is a single machine scalar (length: int64 min-plus;
Viterbi: float64 max-times; counting: int64 plus-times clipped to the
cap — each declares its dtype and ⊗/⊕ ufuncs in ``Semiring.array_ops``)
the same kernel API runs on two parallel NumPy arrays per matrix
instead:

* ``_keys``   — the flat cell addresses ``i * cols + j``, sorted and
  unique (disco-dop's ``DenseCFGChart`` addressing, kept sparse);
* ``_values`` — the annotation of each address, same order.

``multiply`` is one gather over the right operand's row pointers, ⊗ on
the gathered values and a sort + ``⊕.reduceat`` over each run of equal
output addresses; ``union_update`` is a ``searchsorted`` merge whose
delta holds the new cells and the cells ⊕ moved (min/max: the
strictly improved ones; counting: the ones the addition raised), so
refinements re-enter the semi-naive frontier exactly as the row
layout's ``union_update`` makes them.  Candidates, products and the ⊕
fold are the same IEEE/integer operations the scalar semiring methods
perform, so every strategy reaches the bit-identical fixpoint on either
layout.

The arrays are **never written after they are bound**: every kernel
rebinds fresh arrays, so clones, tiles, payloads and deltas may share
them freely.  Lengths are int64 and would wrap where Python ints grow;
a minimal witness that long (2⁶³ edges) is out of reach of any graph
this stores.  Counts are clipped to the cap at the end of every kernel,
and the counting semiring only declares ``array_ops`` for caps whose
un-clipped product rows cannot wrap.

This module needs NumPy; :func:`repro.core.semiring.annotated_layout`
decides when it runs, and the row layout runs where NumPy is missing.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, Mapping

import numpy as np

from ..matrices.base import BooleanMatrix, Pair

_INDEX = np.int64


@lru_cache(maxsize=None)
def _resolve_ops(array_ops: tuple):
    """``(dtype, ⊗, ⊕, cap)`` of a ``Semiring.array_ops`` declaration;
    *cap* is None unless the semiring saturates."""
    dtype, multiply, add, *cap = array_ops
    return (np.dtype(dtype), getattr(np, multiply), getattr(np, add),
            cap[0] if cap else None)


class ScalarAnnotatedMatrix(BooleanMatrix):
    """Sorted flat keys plus a parallel value array; the full mutable
    kernel API of :class:`repro.matrices.base.BooleanMatrix` with the
    semiring's ⊗/⊕ ufuncs in place of ∧/∨."""

    __slots__ = ("semiring", "_shape", "_keys", "_values")

    backend_name = "annotated"

    def __init__(self, semiring, shape: tuple[int, int],
                 cells: "Mapping[Pair, object] | Iterable[tuple[int, int, object]]" = ()):
        if isinstance(cells, Mapping):
            count = len(cells)
            flat = np.fromiter((x for pair in cells for x in pair),
                               dtype=_INDEX, count=2 * count)
            rows, cols = flat[0::2], flat[1::2]
            values = np.fromiter(cells.values(), self._dtype(semiring), count)
        else:
            rows, cols, values = tuple(zip(*cells)) or ((), (), ())
        self._bind(semiring, shape, *self._canonical(
            shape, np.asarray(rows, dtype=_INDEX),
            np.asarray(cols, dtype=_INDEX),
            np.asarray(values, dtype=self._dtype(semiring))))

    @staticmethod
    def _dtype(semiring):
        return _resolve_ops(semiring.array_ops)[0]

    def _bind(self, semiring, shape, keys, values) -> None:
        self.semiring = semiring
        self._shape = shape
        self._keys = keys
        self._values = values

    @classmethod
    def from_arrays(cls, semiring, shape: tuple[int, int], keys, values,
                    ) -> "ScalarAnnotatedMatrix":
        """Adopt already-canonical arrays (sorted unique in-range keys,
        values of the semiring's dtype) without copying."""
        matrix = cls.__new__(cls)
        matrix._bind(semiring, shape, keys, values)
        return matrix

    @staticmethod
    def _canonical(shape, rows, cols, values):
        """Validate coordinates and return sorted ``(keys, values)``.
        Duplicate coordinates keep their last value, as a dict would."""
        if len(rows) and (rows.min() < 0 or rows.max() >= shape[0]
                          or cols.min() < 0 or cols.max() >= shape[1]):
            raise ValueError(f"cell outside shape {shape}")
        keys = rows * shape[1] + cols
        if len(keys) > 1 and not (keys[1:] > keys[:-1]).all():
            order = np.argsort(keys, kind="stable")
            keys, values = keys[order], values[order]
            last = np.append(keys[1:] != keys[:-1], True)
            keys, values = keys[last], values[last]
        return keys, values

    def _like(self, keys, values, shape=None) -> "ScalarAnnotatedMatrix":
        return self.from_arrays(self.semiring,
                                self._shape if shape is None else shape,
                                keys, values)

    def _empty(self, shape=None) -> "ScalarAnnotatedMatrix":
        return self._like(np.empty(0, _INDEX),
                          np.empty(0, self._values.dtype), shape)

    # -- shape / element access -------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return self._shape

    def _position(self, i: int, j: int) -> int:
        """Index of cell (i, j) in the arrays, or -1."""
        key = i * self._shape[1] + j
        position = int(np.searchsorted(self._keys, key))
        if position < len(self._keys) and self._keys[position] == key:
            return position
        return -1

    def __getitem__(self, index: Pair) -> bool:
        return self._position(*index) >= 0

    def value_at(self, i: int, j: int):
        """The annotation at (i, j) as a Python scalar, or None."""
        position = self._position(i, j)
        return None if position < 0 else self._values[position].item()

    def columns(self) -> tuple[list[int], list[int], list]:
        """All True cells as parallel ``(i, j, annotation)`` lists of
        Python scalars, in ``(i, j)`` order."""
        rows, cols = np.divmod(self._keys, self._shape[1])
        return rows.tolist(), cols.tolist(), self._values.tolist()

    def nonzero_pairs(self) -> Iterator[Pair]:
        rows, cols, _values = self.columns()
        return zip(rows, cols)

    def nonzero_cells(self) -> Iterator[tuple[int, int, object]]:
        """Iterate ``(i, j, annotation)`` over all True cells."""
        return zip(*self.columns())

    def nnz(self) -> int:
        return len(self._keys)

    def row_major(self) -> tuple:
        rows, cols = self._shape
        indptr = np.searchsorted(self._keys,
                                 np.arange(rows + 1, dtype=_INDEX) * cols)
        return indptr, self._keys % cols if len(self._keys) else self._keys

    @property
    def nbytes(self) -> int:
        """Exact bytes of the two arrays."""
        return self._keys.nbytes + self._values.nbytes

    # -- algebra ----------------------------------------------------------
    def multiply(self, other: BooleanMatrix) -> "ScalarAnnotatedMatrix":
        self._require_chainable(other)
        _dtype, times, plus, cap = _resolve_ops(self.semiring.array_ops)
        right_keys, right_values = _arrays_of(other, self.semiring)
        inner, out_cols = other.shape
        out_shape = (self._shape[0], out_cols)
        if not len(self._keys) or not len(right_keys):
            return self._empty(out_shape)
        left_rows, mids = np.divmod(self._keys, inner)
        # Row pointers of the right operand, then one gather: left cell
        # (i, k) meets the run right[k, *].
        row_ptr = np.searchsorted(
            right_keys, np.arange(inner + 1, dtype=_INDEX) * out_cols)
        starts = row_ptr[mids]
        counts = row_ptr[mids + 1] - starts
        total = int(counts.sum())
        if not total:
            return self._empty(out_shape)
        left_index = np.repeat(np.arange(len(counts)), counts)
        right_index = np.arange(total) - np.repeat(
            np.cumsum(counts) - counts - starts, counts)
        # right key = k·cols + j, so the output address i·cols + j is
        # (i − k)·cols + right key.
        keys = (((left_rows - mids) * out_cols)[left_index]
                + right_keys[right_index])
        values = times(self._values[left_index], right_values[right_index])
        order = np.argsort(keys)
        keys = keys[order]
        run_starts = np.flatnonzero(
            np.append(True, keys[1:] != keys[:-1]))
        values = plus.reduceat(values[order], run_starts)
        if cap is not None:
            np.minimum(values, cap, out=values)
        return self._like(keys[run_starts], values, out_shape)

    def copy(self) -> "ScalarAnnotatedMatrix":
        """An independent matrix over the same (never written) arrays."""
        return self._like(self._keys, self._values)

    def union(self, other: BooleanMatrix) -> "ScalarAnnotatedMatrix":
        merged = self.copy()
        merged.union_update(other)
        return merged

    def transpose(self) -> "ScalarAnnotatedMatrix":
        rows, cols = np.divmod(self._keys, self._shape[1])
        keys = cols * self._shape[0] + rows
        order = np.argsort(keys)
        return self._like(keys[order], self._values[order],
                          (self._shape[1], self._shape[0]))

    # -- mutable kernels --------------------------------------------------
    def union_update(self, other: BooleanMatrix) -> "ScalarAnnotatedMatrix":
        """In-place ⊕-merge; the returned delta holds every new cell
        and every cell ⊕ moved, with the merged value."""
        self._require_same_shape(other)
        _dtype, _times, plus, cap = _resolve_ops(self.semiring.array_ops)
        keys, values = _arrays_of(other, self.semiring)
        if not len(keys):
            return self._empty()
        positions = np.searchsorted(self._keys, keys)
        present = positions < len(self._keys)
        present[present] = self._keys[positions[present]] == keys[present]
        if present.any():
            held = positions[present]
            existing = self._values[held]
            merged = plus(existing, values[present])
            if cap is not None:
                np.minimum(merged, cap, out=merged)
            improved = merged != existing
            changed = ~present
            changed[present] = improved
            if improved.any():
                refined = self._values.copy()
                refined[held[improved]] = merged[improved]
                self._values = refined
                values = values.copy()
                values[present] = merged
            if not changed.all():
                keys, values = keys[changed], values[changed]
                positions, present = positions[changed], present[changed]
        if not present.all():
            fresh = ~present
            self._keys = np.insert(self._keys, positions[fresh], keys[fresh])
            self._values = np.insert(self._values, positions[fresh],
                                     values[fresh])
        return self._like(keys, values)

    # -- tiling and payloads ----------------------------------------------
    def payload(self) -> tuple:
        """The tile as a plain tuple around its two arrays (five
        fields; the row layout's payload has four)."""
        return ("annotated", self.semiring.name, self._shape, self._keys,
                self._values)

    def split_tiles(self, tile_size: int,
                    ) -> dict[tuple[int, int], "ScalarAnnotatedMatrix"]:
        """Partition into ceil(n / tile_size)² padded tiles by key
        arithmetic (one stable sort by tile id)."""
        n = self._shape[0]
        grid = (n + tile_size - 1) // tile_size
        rows, cols = np.divmod(self._keys, self._shape[1])
        tile_ids = (rows // tile_size) * grid + cols // tile_size
        order = np.argsort(tile_ids, kind="stable")
        local = ((rows % tile_size) * tile_size + cols % tile_size)[order]
        values = self._values[order]
        bounds = np.searchsorted(tile_ids[order],
                                 np.arange(grid * grid + 1)).tolist()
        shape = (tile_size, tile_size)
        tiles = {}
        for bi in range(grid):
            for bj in range(grid):
                start, stop = bounds[bi * grid + bj:bi * grid + bj + 2]
                # Copies, not views: a spilled tile must release its
                # bytes without waiting for its siblings.
                tiles[(bi, bj)] = self._like(local[start:stop].copy(),
                                             values[start:stop].copy(),
                                             shape)
        return tiles

    @classmethod
    def assemble(cls, semiring, items, size: int, tile_size: int,
                 ) -> "ScalarAnnotatedMatrix":
        """Inverse of :meth:`split_tiles` over a one-shot iterable of
        ``((bi, bj), tile)`` (drops the padding)."""
        key_parts, value_parts = [], []
        for (bi, bj), tile in items:
            tile_keys, tile_values = _arrays_of(tile, semiring)
            rows, cols = np.divmod(tile_keys, tile.shape[1])
            rows += bi * tile_size
            cols += bj * tile_size
            inside = (rows < size) & (cols < size)
            key_parts.append((rows * size + cols)[inside])
            value_parts.append(tile_values[inside])
        if not key_parts:
            return cls(semiring, (size, size))
        keys = np.concatenate(key_parts)
        order = np.argsort(keys)
        return cls.from_arrays(semiring, (size, size), keys[order],
                               np.concatenate(value_parts)[order])


def _arrays_of(matrix: BooleanMatrix, semiring) -> tuple:
    """The ``(keys, values)`` arrays of any operand.  Operands of
    another layout are lifted: annotated cells keep their values, plain
    boolean cells take the semiring identity."""
    if isinstance(matrix, ScalarAnnotatedMatrix):
        return matrix._keys, matrix._values
    if hasattr(matrix, "nonzero_cells"):
        cells = matrix.nonzero_cells()
    else:
        unit = semiring.identity()
        cells = ((i, j, unit) for i, j in matrix.nonzero_pairs())
    lifted = ScalarAnnotatedMatrix(semiring, matrix.shape, cells)
    return lifted._keys, lifted._values
