"""The ``sparse`` backend's tile payload, written and read with NumPy
alone.

A CSR payload is ``("sparse", rows, cols, indptr, indices)``: the two
index arrays as raw int64 bytes (bool data is implicit), column indices
ascending within each row, so equal matrices encode to equal bytes
(snapshots are compared byte for byte).  This module is the format's
one owner.  :meth:`repro.matrices.sparse.SparseBackend.tile_payload`
hands it a SciPy matrix's arrays; the snapshot writers hand it sorted
flat keys or pair lists and never load SciPy.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .base import Pair

#: The registry key the payload carries (and the backend it decodes to).
CSR_BACKEND = "sparse"

_INDEX = np.int64


def csr_payload(shape: tuple[int, int], indptr, indices) -> tuple:
    """The payload of a CSR structure whose column indices ascend
    within each row."""
    rows, cols = shape
    return (CSR_BACKEND, rows, cols,
            np.asarray(indptr, dtype=_INDEX).tobytes(),
            np.asarray(indices, dtype=_INDEX).tobytes())


def keys_payload(shape: tuple[int, int], keys) -> tuple:
    """The payload of the cells at sorted unique flat keys ``i·cols + j``
    (the layout of :class:`repro.core.scalar_matrix.ScalarAnnotatedMatrix`)."""
    rows, cols = shape
    keys = np.asarray(keys, dtype=_INDEX)
    indptr = np.searchsorted(keys, np.arange(rows + 1, dtype=_INDEX) * cols)
    return csr_payload(shape, indptr, keys % cols if len(keys) else keys)


def pairs_payload(shape: tuple[int, int], pairs: Iterable[Pair]) -> tuple:
    """The payload of the cells *pairs*, in any order, repeats allowed."""
    flat = np.fromiter((x for pair in pairs for x in pair), dtype=_INDEX)
    return keys_payload(shape, np.unique(flat[0::2] * shape[1] + flat[1::2]))


def csr_arrays(payload: tuple) -> tuple:
    """Inverse of :func:`csr_payload`: ``(shape, indptr, indices)`` as
    read-only views over the payload's bytes."""
    _kind, rows, cols, indptr_raw, indices_raw = payload
    return ((rows, cols), np.frombuffer(indptr_raw, dtype=_INDEX),
            np.frombuffer(indices_raw, dtype=_INDEX))
