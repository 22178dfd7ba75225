"""Sparse CSR boolean matrix backend (SciPy).

Stands in for both of the paper's sparse implementations — **sCPU**
(Math.NET CSR on the CPU) and **sGPU** (CUSPARSE CSR on the GPU): the
storage format (CSR) and the algorithm are identical; only the device
differs.  Sparsity makes the closure scale with the number of stored
entries rather than |V|², which is the effect behind the paper's g1–g3
rows.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np
from scipy import sparse as sp

from .base import BooleanMatrix, MatrixBackend, Pair, register_backend
from .csr import csr_arrays, csr_payload


class SparseMatrix(BooleanMatrix):
    """Wrapper over a ``scipy.sparse.csr_matrix`` of dtype bool.

    CSR has no cheap cell-level insertion, so ``union_update`` mutates
    at the wrapper level: it rebinds the internal CSR to the merged
    matrix (keeping this object's identity stable for the closure
    engine) and computes the delta with one sparse ``>`` comparison.
    """

    __slots__ = ("_matrix",)

    backend_name = "sparse"

    def __init__(self, matrix: sp.spmatrix):
        csr = matrix.tocsr().astype(bool)
        csr.eliminate_zeros()
        self._matrix = csr

    @property
    def shape(self) -> tuple[int, int]:
        return self._matrix.shape  # type: ignore[return-value]

    def __getitem__(self, index: Pair) -> bool:
        return bool(self._matrix[index])

    def nonzero_pairs(self) -> Iterator[Pair]:
        coo = self._matrix.tocoo()
        return zip(coo.row.tolist(), coo.col.tolist())

    def nnz(self) -> int:
        return int(self._matrix.nnz)

    def row_major(self) -> tuple:
        csr = self._matrix
        if not csr.has_sorted_indices:
            csr.sort_indices()  # products leave them in operation order
        return csr.indptr, csr.indices

    def multiply(self, other: BooleanMatrix) -> "SparseMatrix":
        self._require_chainable(other)
        return SparseMatrix(self._matrix @ _as_csr(other))

    def union(self, other: BooleanMatrix) -> "SparseMatrix":
        self._require_same_shape(other)
        return SparseMatrix(self._matrix + _as_csr(other))

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix(self._matrix.T)

    def union_update(self, other: BooleanMatrix) -> "SparseMatrix":
        self._require_same_shape(other)
        delta = (_as_csr(other) > self._matrix).tocsr()
        delta.eliminate_zeros()
        if delta.nnz:
            self._matrix = (self._matrix + delta).tocsr()
        return SparseMatrix(delta)


def _as_csr(matrix: BooleanMatrix) -> sp.csr_matrix:
    if isinstance(matrix, SparseMatrix):
        return matrix._matrix
    indptr, indices = matrix.row_major()
    return sp.csr_matrix((np.ones(len(indices), dtype=bool), indices, indptr),
                         shape=matrix.shape)


class SparseBackend(MatrixBackend):
    """Factory for :class:`SparseMatrix`."""

    name = "sparse"

    def zeros(self, rows: int, cols: int | None = None) -> SparseMatrix:
        return SparseMatrix(
            sp.csr_matrix((rows, cols if cols is not None else rows), dtype=bool)
        )

    def from_pairs(self, size: int, pairs: Iterable[Pair],
                   cols: int | None = None) -> SparseMatrix:
        pair_list = list(pairs)
        shape = (size, cols if cols is not None else size)
        if not pair_list:
            return SparseMatrix(sp.csr_matrix(shape, dtype=bool))
        rows = [i for i, _ in pair_list]
        columns = [j for _, j in pair_list]
        data = np.ones(len(pair_list), dtype=bool)
        return SparseMatrix(sp.csr_matrix((data, (rows, columns)), shape=shape,
                                          dtype=bool))

    def clone(self, matrix: BooleanMatrix) -> SparseMatrix:
        return SparseMatrix(_as_csr(matrix).copy())

    def mask_rows(self, matrix: BooleanMatrix, keep) -> SparseMatrix:
        csr = _as_csr(matrix)
        index = np.asarray(sorted(set(keep)), dtype=np.intp)
        if index.size and (index.min() < 0
                           or index.max() >= csr.shape[0]):
            raise IndexError(
                f"row index out of range for shape {matrix.shape}"
            )
        selector = sp.csr_matrix(
            (np.ones(index.size, dtype=bool), (index, index)),
            shape=(csr.shape[0], csr.shape[0]),
        )
        return SparseMatrix(selector @ csr)

    def matrix_nbytes(self, matrix: BooleanMatrix) -> int:
        if isinstance(matrix, SparseMatrix):
            csr = matrix._matrix
            return int(csr.data.nbytes + csr.indices.nbytes
                       + csr.indptr.nbytes)
        return super().matrix_nbytes(matrix)

    # -- tile payloads (spill and snapshot codec) -------------------------
    def tile_payload(self, matrix: BooleanMatrix) -> tuple:
        """The :mod:`repro.matrices.csr` payload of any matrix."""
        return csr_payload(matrix.shape, *matrix.row_major())

    def tile_from_payload(self, payload: tuple) -> SparseMatrix:
        shape, indptr, indices = csr_arrays(payload)
        data = np.ones(len(indices), dtype=bool)
        return SparseMatrix(
            sp.csr_matrix((data, indices, indptr), shape=shape)
        )


BACKEND = register_backend(SparseBackend())
