"""Boolean matrix substrate with interchangeable backends.

The pure-Python backend (``setmatrix``) is always available; the
NumPy/SciPy-backed ones (``dense``, ``bitset``, ``sparse``) are optional
extras (install ``repro-cfpq[backends]`` to get all four).
:mod:`repro.matrices.base` knows the four names and the
dependency each needs, and imports a backend's module only when that
backend is asked for, so a run loads NumPy and SciPy only if its backend
uses them.  A backend class re-exported here is None when its dependency
is missing.
"""

from .._lazy import lazy_exports
from .base import (
    BooleanMatrix,
    MatrixBackend,
    Pair,
    available_backends,
    get_backend,
    register_backend,
)

_resolve, __dir__, _lazy_names = lazy_exports(globals(), {
    ".setmatrix": ("RowSetMatrix", "SetMatrix", "SetMatrixBackend",
                   "initial_matrix"),
    ".dense": ("DenseBackend", "DenseMatrix"),
    ".bitset": ("BitsetBackend", "BitsetMatrix"),
    ".sparse": ("SparseBackend", "SparseMatrix"),
})


def __getattr__(name: str):
    try:
        return _resolve(name)
    except ImportError:  # NumPy or SciPy missing
        globals()[name] = None
        return None


__all__ = sorted(["BooleanMatrix", "MatrixBackend", "Pair",
                  "available_backends", "get_backend", "register_backend",
                  *_lazy_names])
