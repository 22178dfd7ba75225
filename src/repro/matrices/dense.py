"""Dense NumPy boolean matrix backend.

Stands in for the paper's **dGPU** implementation (row-major dense
matrices multiplied with CUBLAS): identical algorithm and data layout,
CPU arithmetic instead of GPU.  Dense storage is O(|V|²) regardless of
sparsity, which is exactly why the paper omits dGPU numbers for the
large g1–g3 graphs — this backend reproduces that collapse.

The mutable kernel ``union_update`` is a genuine in-place array
operation (``self |= delta`` on the boolean buffer), so the delta
closure engine never re-allocates the accumulator matrices.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from .base import BooleanMatrix, MatrixBackend, Pair, register_backend


class DenseMatrix(BooleanMatrix):
    """Wrapper over a ``numpy.ndarray`` of dtype bool.

    The constructor **takes ownership** of a writable bool array (no
    copy): the in-place kernels mutate it, so pass a copy if you keep a
    reference.  Read-only arrays are copied defensively.
    """

    __slots__ = ("_array",)

    backend_name = "dense"

    def __init__(self, array: np.ndarray):
        if array.ndim != 2:
            raise ValueError("dense matrix requires a 2-D array")
        array = array.astype(bool, copy=False)
        if not array.flags.writeable:
            array = array.copy()
        self._array = array

    @classmethod
    def _wrap(cls, array: np.ndarray) -> "DenseMatrix":
        """Kernel fast path: wrap a bool buffer we know we own.

        Skips the dtype coercion and defensive-copy check of
        ``__init__`` — kernels only produce fresh writable bool arrays,
        and the assertions (compiled out under ``-O``) enforce that.
        """
        assert array.ndim == 2 and array.dtype == np.bool_, \
            "_wrap requires a 2-D bool array"
        assert array.flags.writeable, \
            "_wrap requires a writable (owned) buffer"
        matrix = cls.__new__(cls)
        matrix._array = array
        return matrix

    @property
    def shape(self) -> tuple[int, int]:
        return self._array.shape  # type: ignore[return-value]

    def __getitem__(self, index: Pair) -> bool:
        return bool(self._array[index])

    def nonzero_pairs(self) -> Iterator[Pair]:
        rows, cols = np.nonzero(self._array)
        return zip(rows.tolist(), cols.tolist())

    def nnz(self) -> int:
        return int(self._array.sum())

    def multiply(self, other: BooleanMatrix) -> "DenseMatrix":
        self._require_chainable(other)
        other_array = _as_array(other)
        return DenseMatrix._wrap(_bool_matmul(self._array, other_array))

    def union(self, other: BooleanMatrix) -> "DenseMatrix":
        self._require_same_shape(other)
        return DenseMatrix._wrap(self._array | _as_array(other))

    def transpose(self) -> "DenseMatrix":
        return DenseMatrix._wrap(self._array.T.copy())

    def union_update(self, other: BooleanMatrix) -> "DenseMatrix":
        self._require_same_shape(other)
        # Exact delta (other & ~self) as one comparison — the only
        # allocation is the returned delta itself.
        delta = np.greater(_as_array(other), self._array)
        self._array |= delta
        return DenseMatrix._wrap(delta)


def _bool_matmul(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Boolean semiring product (OR of ANDs) as one matmul.

    float32 views keep the product on BLAS (sgemm) — the same trick
    CUBLAS-backed boolean products use; bool/uint8 matmul would fall off
    the BLAS fast path entirely (measured ~30x slower at 512 nodes).
    The threshold back to bool is exact: entries count matching
    midpoints, so any nonzero means True.
    """
    product = left.astype(np.float32) @ right.astype(np.float32)
    return product > 0.5


def _as_array(matrix: BooleanMatrix) -> np.ndarray:
    if isinstance(matrix, DenseMatrix):
        return matrix._array
    array = np.zeros(matrix.shape, dtype=bool)
    for i, j in matrix.nonzero_pairs():
        array[i, j] = True
    return array


class DenseBackend(MatrixBackend):
    """Factory for :class:`DenseMatrix`."""

    name = "dense"

    def zeros(self, rows: int, cols: int | None = None) -> DenseMatrix:
        return DenseMatrix(np.zeros((rows, cols if cols is not None else rows),
                                    dtype=bool))

    def from_pairs(self, size: int, pairs: Iterable[Pair],
                   cols: int | None = None) -> DenseMatrix:
        actual_cols = cols if cols is not None else size
        array = np.zeros((size, actual_cols), dtype=bool)
        for i, j in pairs:
            if not (0 <= i < size and 0 <= j < actual_cols):
                raise ValueError(
                    f"pair {(i, j)} outside shape {(size, actual_cols)}")
            array[i, j] = True
        return DenseMatrix(array)

    def clone(self, matrix: BooleanMatrix) -> DenseMatrix:
        return DenseMatrix._wrap(_as_array(matrix).copy())

    def mask_rows(self, matrix: BooleanMatrix, keep) -> DenseMatrix:
        array = _as_array(matrix)
        index = np.asarray(sorted(set(keep)), dtype=np.intp)
        if index.size and (index.min() < 0
                           or index.max() >= array.shape[0]):
            raise IndexError(
                f"row index out of range for shape {matrix.shape}"
            )
        out = np.zeros_like(array)
        out[index] = array[index]
        return DenseMatrix._wrap(out)

    def matrix_nbytes(self, matrix: BooleanMatrix) -> int:
        rows, cols = matrix.shape
        return rows * cols

    # -- tiling (vectorized slice fast paths) -----------------------------
    def split_into_tiles(self, matrix: BooleanMatrix, tile_size: int,
                         ) -> dict[tuple[int, int], DenseMatrix]:
        """Slice the bool array directly instead of the generic
        per-coordinate round trip."""
        if tile_size < 1 or not isinstance(matrix, DenseMatrix):
            return super().split_into_tiles(matrix, tile_size)
        array = matrix._array
        n = array.shape[0]
        grid = (n + tile_size - 1) // tile_size
        tiles: dict[tuple[int, int], DenseMatrix] = {}
        for bi in range(grid):
            row_lo = bi * tile_size
            row_hi = min(n, row_lo + tile_size)
            for bj in range(grid):
                col_lo = bj * tile_size
                col_hi = min(n, col_lo + tile_size)
                block = np.zeros((tile_size, tile_size), dtype=bool)
                block[:row_hi - row_lo, :col_hi - col_lo] = \
                    array[row_lo:row_hi, col_lo:col_hi]
                tiles[(bi, bj)] = DenseMatrix._wrap(block)
        return tiles

    def assemble_from_tile_iter(self, items, size: int, tile_size: int,
                                ) -> DenseMatrix:
        out = np.zeros((size, size), dtype=bool)
        for (bi, bj), tile in items:
            row_lo = bi * tile_size
            col_lo = bj * tile_size
            if row_lo >= size or col_lo >= size:
                continue
            row_hi = min(size, row_lo + tile_size)
            col_hi = min(size, col_lo + tile_size)
            out[row_lo:row_hi, col_lo:col_hi] = \
                _as_array(tile)[:row_hi - row_lo, :col_hi - col_lo]
        return DenseMatrix._wrap(out)

    # -- tile payloads (spill and snapshot codec) -------------------------
    def tile_payload(self, matrix: BooleanMatrix) -> tuple:
        array = _as_array(matrix)
        rows, cols = array.shape
        return ("dense", rows, cols, array.tobytes())

    def tile_from_payload(self, payload: tuple) -> DenseMatrix:
        _kind, rows, cols, raw = payload
        array = np.frombuffer(raw, dtype=bool).reshape(rows, cols).copy()
        return DenseMatrix._wrap(array)

    # -- spilling (the tile store's raw-buffer format) --------------------
    def spill_parts(self, payload: tuple) -> tuple:
        kind, rows, cols, raw = payload
        return (kind, rows, cols), raw

    def tile_from_parts(self, meta: tuple, buffer) -> DenseMatrix:
        """Zero-copy reload: a private-writable mapping (``mmap`` with
        ``ACCESS_COPY``) is wrapped directly; read-only buffers are
        copied once."""
        _kind, rows, cols = meta
        array = np.frombuffer(buffer, dtype=bool).reshape(rows, cols)
        if not array.flags.writeable:
            array = array.copy()
        return DenseMatrix._wrap(array)


BACKEND = register_backend(DenseBackend())
