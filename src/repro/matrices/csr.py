"""The ``sparse`` backend's tile payload.

A CSR payload is ``("sparse", rows, cols, indptr, indices)``: the two
index arrays as raw int64 bytes (bool data is implicit), column indices
ascending within each row, so equal matrices encode to equal bytes
(snapshots are compared byte for byte).  This module is the format's
one owner.  :func:`csr_payload` takes SciPy's or NumPy's arrays, or a
pure-Python ``row_major()`` export, whose ``array('q')`` bytes are the
same; only :func:`csr_arrays`, the reader, imports NumPy.
"""

from __future__ import annotations

from array import array
from typing import Iterable

from .base import Pair, row_map_csr

#: The registry key the payload carries (and the backend it decodes to).
CSR_BACKEND = "sparse"


def _int64_bytes(values) -> bytes:
    """*values* as native int64 bytes (a NumPy array converts itself)."""
    if hasattr(values, "astype"):
        return values.astype("int64", copy=False).tobytes()
    return array("q", values).tobytes()


def csr_payload(shape: tuple[int, int], indptr, indices) -> tuple:
    """The payload of a CSR structure whose column indices ascend
    within each row."""
    rows, cols = shape
    return (CSR_BACKEND, rows, cols, _int64_bytes(indptr),
            _int64_bytes(indices))


def pairs_payload(shape: tuple[int, int], pairs: Iterable[Pair]) -> tuple:
    """The payload of the cells *pairs*, in any order, repeats allowed."""
    rows: dict[int, set[int]] = {}
    for i, j in pairs:
        rows.setdefault(i, set()).add(j)
    return csr_payload(shape, *row_map_csr(rows, shape[0]))


def csr_arrays(payload: tuple) -> tuple:
    """Inverse of :func:`csr_payload`: ``(shape, indptr, indices)`` as
    read-only views over the payload's bytes."""
    import numpy as np

    _kind, rows, cols, indptr_raw, indices_raw = payload
    return ((rows, cols), np.frombuffer(indptr_raw, dtype=np.int64),
            np.frombuffer(indices_raw, dtype=np.int64))
