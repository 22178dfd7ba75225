"""Boolean matrix abstraction.

The paper's Algorithm 1 reduces, per Valiant, to ``|N|²`` *Boolean*
matrix multiplications per closure step.  The paper evaluates three
implementations of this kernel (dense GPU, sparse CPU, sparse GPU); we
mirror the design with interchangeable backends behind one interface:

* ``dense``     — NumPy boolean arrays (row-major dense, stands in for
  the paper's dGPU/CUBLAS implementation),
* ``sparse``    — SciPy CSR matrices (stands in for sCPU/Math.NET and
  sGPU/CUSPARSE),
* ``bitset``    — NumPy rows packed into 64-bit words, so one word
  operation processes 64 cells,
* ``setmatrix`` — pure-Python per-row column sets (the dependency-free
  layout, no third-party arithmetic).

The value-semantics operations (``multiply``/``union``/``transpose``)
return new matrices, which keeps the closure loop honest
(``T ← T ∪ T×T``) and makes fixpoint detection (`nnz` stability /
equality) trivial and backend independent.

On top of that sits one **mutable kernel** powering the delta-driven
closure engine (:mod:`repro.core.closure`): ``union_update(other) ->
delta``, an in-place element-wise OR that returns the matrix of
*genuinely new* entries (the semi-naive frontier).

The registry at the end of this module knows the four bundled names and
the third-party imports each needs.  :func:`get_backend` imports one
backend's module, which registers itself, the first time that backend
is asked for; :func:`available_backends` and :func:`default_backend`
decide from whether NumPy and SciPy can be *found*, without importing
them.  A process therefore loads only the backend it runs.
"""

from __future__ import annotations

import abc
import importlib
import importlib.util
from array import array
from itertools import accumulate, chain
from typing import Iterable, Iterator, Mapping

from ..errors import DimensionMismatchError, UnknownBackendError

#: A matrix coordinate (row, column).
Pair = tuple[int, int]


def row_map_csr(rows: Mapping[int, Iterable[int]], n_rows: int) -> tuple:
    """The CSR ``(indptr, indices)`` of a row map ``{i: {j}}`` as
    ``array('q')``, one sort per row."""
    ordered = [sorted(rows.get(i, ())) for i in range(n_rows)]
    return (array("q", accumulate(map(len, ordered), initial=0)),
            array("q", chain.from_iterable(ordered)))


class BooleanMatrix(abc.ABC):
    """A square-or-rectangular boolean matrix.

    The core algebra (``multiply``/``union``/``transpose``) is
    value-semantics; the in-place kernel ``union_update`` serves the
    delta closure.
    """

    __slots__ = ()

    #: Registry key of the backend this matrix belongs to (e.g.
    #: ``"dense"``); every concrete matrix type sets it.
    backend_name: str

    # -- shape ----------------------------------------------------------
    @property
    @abc.abstractmethod
    def shape(self) -> tuple[int, int]:
        """(rows, columns)."""

    @property
    def is_square(self) -> bool:
        """True when rows == columns."""
        rows, cols = self.shape
        return rows == cols

    # -- element access --------------------------------------------------
    @abc.abstractmethod
    def __getitem__(self, index: Pair) -> bool:
        """Value at (row, column)."""

    @abc.abstractmethod
    def nonzero_pairs(self) -> Iterator[Pair]:
        """Iterate the coordinates of all True entries."""

    @abc.abstractmethod
    def nnz(self) -> int:
        """Number of True entries."""

    def row_major(self) -> tuple:
        """All True entries as CSR ``(indptr, indices)``, both slicing
        and with ``tolist()``: row ``i``'s columns, ascending, are
        ``indices[indptr[i]:indptr[i + 1]]``.  Built here from
        ``nonzero_pairs()`` grouped by row; array-backed matrices return
        the arrays they hold (do not mutate)."""
        rows: dict[int, list[int]] = {}
        for i, j in self.nonzero_pairs():
            rows.setdefault(i, []).append(j)
        return row_map_csr(rows, self.shape[0])

    # -- algebra ----------------------------------------------------------
    @abc.abstractmethod
    def multiply(self, other: "BooleanMatrix") -> "BooleanMatrix":
        """Boolean matrix product (∨ of ∧)."""

    @abc.abstractmethod
    def union(self, other: "BooleanMatrix") -> "BooleanMatrix":
        """Element-wise boolean OR."""

    @abc.abstractmethod
    def transpose(self) -> "BooleanMatrix":
        """The transposed matrix."""

    def __matmul__(self, other: "BooleanMatrix") -> "BooleanMatrix":
        return self.multiply(other)

    def __or__(self, other: "BooleanMatrix") -> "BooleanMatrix":
        return self.union(other)

    # -- mutable kernel ----------------------------------------------------
    @abc.abstractmethod
    def union_update(self, other: "BooleanMatrix") -> "BooleanMatrix":
        """In-place element-wise OR of *other* into this matrix.

        Returns the **delta**: a matrix holding exactly the entries that
        were newly set by this call (empty when *other* adds nothing).
        """

    # -- comparisons -------------------------------------------------------
    def same_pairs(self, other: "BooleanMatrix") -> bool:
        """Structural equality (same shape, same True coordinates)."""
        if self.shape != other.shape or self.nnz() != other.nnz():
            return False
        return set(self.nonzero_pairs()) == set(other.nonzero_pairs())

    def dominates(self, other: "BooleanMatrix") -> bool:
        """True when every True entry of *other* is True here — the
        boolean projection of the paper's ⪰ partial order."""
        if self.shape != other.shape:
            return False
        return set(other.nonzero_pairs()) <= set(self.nonzero_pairs())

    def to_pair_set(self) -> frozenset[Pair]:
        """All True coordinates as a frozenset."""
        return frozenset(self.nonzero_pairs())

    def _require_same_shape(self, other: "BooleanMatrix") -> None:
        if self.shape != other.shape:
            raise DimensionMismatchError(
                f"shape mismatch: {self.shape} vs {other.shape}"
            )

    def _require_chainable(self, other: "BooleanMatrix") -> None:
        if self.shape[1] != other.shape[0]:
            raise DimensionMismatchError(
                f"cannot multiply {self.shape} by {other.shape}"
            )

    def __repr__(self) -> str:
        rows, cols = self.shape
        return f"{type(self).__name__}({rows}x{cols}, nnz={self.nnz()})"


class MatrixBackend(abc.ABC):
    """Factory for one :class:`BooleanMatrix` implementation."""

    #: Registry key, e.g. ``"dense"``.
    name: str = "abstract"

    @abc.abstractmethod
    def zeros(self, rows: int, cols: int | None = None) -> BooleanMatrix:
        """An all-False matrix (square when *cols* is omitted)."""

    @abc.abstractmethod
    def from_pairs(self, size: int, pairs: Iterable[Pair],
                   cols: int | None = None) -> BooleanMatrix:
        """A matrix with True exactly at *pairs*."""

    def identity(self, size: int) -> BooleanMatrix:
        """The size×size identity."""
        return self.from_pairs(size, ((i, i) for i in range(size)))

    def clone(self, matrix: BooleanMatrix) -> BooleanMatrix:
        """An independent copy of *matrix* (mutating one never affects
        the other).  Generic coordinate round-trip; backends override
        with a storage-level copy."""
        rows, cols = matrix.shape
        return self.from_pairs(rows, matrix.nonzero_pairs(), cols=cols)

    # -- row kernel (mask_rows: the RPQ demux and batch row reads) -------
    def mask_rows(self, matrix: BooleanMatrix,
                  keep: Iterable[int]) -> BooleanMatrix:
        """Apply a row mask: a same-shape copy of *matrix* keeping only
        the rows listed in *keep* (every other row becomes all-False).

        Out-of-range row indexes are rejected — a silent drop would
        hide an off-by-one in a caller's mask layout.  Generic
        coordinate filter; backends override with storage-level row
        selection.
        """
        n_rows, n_cols = matrix.shape
        wanted = set(keep)
        for row in wanted:
            if not 0 <= row < n_rows:
                raise IndexError(
                    f"row {row} out of range for shape {matrix.shape}"
                )
        pairs = [(i, j) for i, j in matrix.nonzero_pairs() if i in wanted]
        return self.from_pairs(n_rows, pairs, cols=n_cols)

    # -- mutable kernel entry point ---------------------------------------
    def union_update(self, target: BooleanMatrix, other: BooleanMatrix,
                     ) -> tuple[BooleanMatrix, BooleanMatrix]:
        """Merge *other* into *target* in place; return ``(target,
        delta)``, where ``delta`` holds exactly the genuinely-new
        entries."""
        return target, target.union_update(other)

    # -- tiling hooks (the blocked closure strategy) ----------------------
    def split_into_tiles(self, matrix: BooleanMatrix, tile_size: int,
                         ) -> dict[tuple[int, int], BooleanMatrix]:
        """Partition a square matrix into ceil(n/tile_size)² tiles.

        Edge tiles are padded to full tile size (padding cells stay
        False and never affect the product).  The coordinate round-trip
        here loses per-cell payloads, so backends whose matrices carry
        more than presence (the annotated adapter) override both tiling
        hooks.
        """
        if tile_size < 1:
            raise ValueError("tile_size must be positive")
        n = matrix.shape[0]
        grid = (n + tile_size - 1) // tile_size
        buckets: dict[tuple[int, int], list[Pair]] = {
            (bi, bj): [] for bi in range(grid) for bj in range(grid)
        }
        for i, j in matrix.nonzero_pairs():
            buckets[(i // tile_size, j // tile_size)].append(
                (i % tile_size, j % tile_size)
            )
        return {
            index: self.from_pairs(tile_size, pairs)
            for index, pairs in buckets.items()
        }

    def assemble_from_tile_iter(self, items, size: int, tile_size: int,
                                ) -> BooleanMatrix:
        """Inverse of :meth:`split_into_tiles` (drops the padding),
        from a one-shot iterable of ``((bi, bj), tile)``: tiles can be
        produced (and released) one at a time, so a spill-backed caller
        never needs the whole tile set resident at once.
        """
        pairs = []
        for (bi, bj), tile in items:
            base_i, base_j = bi * tile_size, bj * tile_size
            for ti, tj in tile.nonzero_pairs():
                i, j = base_i + ti, base_j + tj
                if i < size and j < size:
                    pairs.append((i, j))
        return self.from_pairs(size, pairs)

    # -- tile payloads (spill and snapshot codec) -------------------------
    def tile_payload(self, matrix: BooleanMatrix) -> tuple:
        """Serialize a tile as a plain tuple of raw buffers/coordinates.

        Payloads are what spill files and snapshots store, so they
        must be cheap to pickle: no matrix objects, only primitive
        containers.  The first element is the backend registry key a
        reload resolves to deserialize.  The generic
        form ships the coordinate list; array-storage backends override
        with their raw word/bool/index buffers.
        """
        rows, cols = matrix.shape
        return (self.name, rows, cols, tuple(matrix.nonzero_pairs()))

    def tile_from_payload(self, payload: tuple) -> BooleanMatrix:
        """Inverse of :meth:`tile_payload` for this backend's payloads."""
        _name, rows, cols, pairs = payload
        return self.from_pairs(rows, pairs, cols=cols)

    # -- working-set accounting & spilling (the tile store) ---------------
    def matrix_nbytes(self, matrix: BooleanMatrix) -> int:
        """Approximate resident bytes of *matrix*'s storage.

        Drives the :class:`repro.core.tilestore.TileStore` budget
        accounting, so it should track the dominant buffer, not Python
        object overhead exactly.  The generic estimate assumes
        coordinate storage (two boxed ints plus set slot per entry);
        array backends override with their buffer sizes.
        """
        return 112 + 48 * matrix.nnz()

    def spill_parts(self, payload: tuple) -> tuple:
        """Split a tile payload into ``(meta, raw_buffer)`` for spilling.

        ``raw_buffer`` (bytes-like) is what the tile store writes to the
        spill file, and ``meta`` is the small picklable remainder needed
        to rebuild the tile around the buffer.  Backends whose
        payload is dominated by one flat buffer (bitset words, dense
        bools) override this so reload can ``mmap`` the file zero-copy;
        the default ``(payload, None)`` routes the store to its pickle
        fallback.
        """
        return payload, None

    def tile_from_parts(self, meta: tuple, buffer) -> BooleanMatrix:
        """Rebuild a tile directly from spilled parts.

        *buffer* may be an ``mmap`` over the spill file: implementations
        should wrap it zero-copy when the platform hands out a writable
        private mapping, copying only as a fallback.  Only called for
        backends whose :meth:`spill_parts` returned a raw buffer.
        """
        raise NotImplementedError(
            f"{type(self).__name__}.spill_parts returned a raw buffer but "
            "tile_from_parts is not implemented"
        )

    def __repr__(self) -> str:
        return f"<MatrixBackend {self.name}>"


_REGISTRY: dict[str, MatrixBackend] = {}

#: The bundled backends: registry key (also the module name under
#: :mod:`repro.matrices`) -> the third-party imports it needs.
_BUNDLED: dict[str, tuple[str, ...]] = {
    "dense": ("numpy",),
    "sparse": ("numpy", "scipy"),
    "bitset": ("numpy",),
    "setmatrix": (),
}

#: Every bundled backend name, whether or not its dependency is
#: installed: the CLI's ``--backend`` choices.
BACKEND_NAMES: tuple[str, ...] = tuple(sorted(_BUNDLED))

#: Preference order for :func:`default_backend`.
_DEFAULT_PREFERENCE = ("sparse", "dense", "bitset", "setmatrix")


def register_backend(backend: MatrixBackend) -> MatrixBackend:
    """Register *backend* under ``backend.name`` (idempotent overwrite)."""
    _REGISTRY[backend.name] = backend
    return backend


def get_backend(name: "str | MatrixBackend | None" = None) -> MatrixBackend:
    """Resolve a backend by name (or pass an instance through; None is
    :func:`default_backend`).  A bundled backend's module is imported on
    first use; one whose dependency is missing, or found but failing to
    import (say, SciPy built against another NumPy), is unknown."""
    if isinstance(name, MatrixBackend):
        return name
    if name is None:
        name = default_backend()
    if name not in _REGISTRY and backend_installed(name):
        try:
            importlib.import_module(f".{name}", __package__)
        except ImportError as error:
            others = [other for other in available_backends()
                      if other != name]
            raise UnknownBackendError(name, others, str(error)) from error
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownBackendError(name, available_backends()) from None


def backend_installed(name: str) -> bool:
    """True when *name* is registered, or is a bundled backend whose
    dependencies can be found (found, not imported)."""
    return name in _REGISTRY or (
        name in _BUNDLED and all(map(_findable, _BUNDLED[name])))


def available_backends() -> list[str]:
    """Names of every registered or installable backend."""
    return sorted(set(_REGISTRY) | set(filter(backend_installed, _BUNDLED)))


def default_backend() -> str:
    """The best installed backend: ``sparse`` when SciPy is present,
    degrading through the NumPy and pure-Python backends otherwise, so
    entry-point defaults keep working on a dependency-free install."""
    return next(filter(backend_installed, _DEFAULT_PREFERENCE))


def _findable(module: str) -> bool:
    try:
        return importlib.util.find_spec(module) is not None
    except (ImportError, ValueError):
        return False
