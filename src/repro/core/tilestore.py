"""Spillable tile store: the out-of-core working set of the blocked closure.

The paper's §7 out-of-core question — can graphs larger than device
memory be closed by the partitioned technique of Katz & Kider? — needs
exactly one mechanism on top of the tiled closure: a bounded working
set.  This module provides it as a first-class store:

* **Keyed cache** — tiles live under hashable keys (``(nonterminal, I,
  J)`` for the blocked closure) with LRU residency tracking and a
  configurable byte budget (:func:`parse_memory_budget` accepts ``"64K"``
  / ``"8M"`` / ``"1G"`` suffixes; ``REPRO_MEMORY_BUDGET`` supplies the
  default).
* **Spill via the payload codec** — a cold tile is encoded through the
  existing :meth:`MatrixBackend.tile_payload` hook.  Backends whose
  payload is one flat buffer (bitset words, dense bools) spill that
  buffer raw, and reload ``mmap``s the file with ``ACCESS_COPY`` —
  NumPy wraps the private-writable mapping **zero-copy**, pages fault
  in lazily, and mutations never reach the file.  Other backends
  (setmatrix, sparse CSR, annotated cells) fall back to pickling
  the payload tuple.  Spill files are private to this store (written
  and read by the same process), so the pickle path needs no restricted
  unpickler.
* **Pinning** — ``pinned(keys)`` marks a task's operand tiles
  non-evictable for the duration of the computation, so the budget
  never evicts the exact tiles in flight.
* **Accounting** — :class:`TileStoreStats` counts spills/reloads/bytes
  and tracks ``peak_resident_bytes``, the number the out-of-core
  acceptance tests assert stays under the budget.

Spill-file lifecycle: each spill writes a **fresh** file and unlinks the
previous one (POSIX keeps the inode alive for any still-open mapping, so
a zero-copy reload is never invalidated by a newer spill of the same
tile).  ``close()`` removes everything on success; a crashed closure
closes with ``keep_spill=True`` so the directory survives for
post-mortem inspection.
"""

from __future__ import annotations

import contextlib
import mmap
import os
import pickle
import tempfile
from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator

from ..errors import UnknownBackendError
from ..matrices.base import BooleanMatrix, get_backend

#: Environment variable supplying the default working-set budget
#: (bytes, with optional K/M/G suffix); empty/unset means unbounded.
MEMORY_BUDGET_ENV = "REPRO_MEMORY_BUDGET"

#: Environment variable supplying the default spill directory; unset
#: means a private temporary directory created on first spill.
SPILL_DIR_ENV = "REPRO_SPILL_DIR"

_SUFFIX_MULTIPLIERS = {
    "": 1, "B": 1,
    "K": 1024, "KB": 1024, "KIB": 1024,
    "M": 1024 ** 2, "MB": 1024 ** 2, "MIB": 1024 ** 2,
    "G": 1024 ** 3, "GB": 1024 ** 3, "GIB": 1024 ** 3,
    "T": 1024 ** 4, "TB": 1024 ** 4, "TIB": 1024 ** 4,
}


def parse_memory_budget(value) -> "int | None":
    """Parse a byte budget: an int, or a string like ``"65536"`` /
    ``"64K"`` / ``"8M"`` / ``"1G"`` (suffixes are powers of 1024; an
    optional ``B``/``iB`` is accepted).  ``None``, ``""``, ``"0"`` and
    ``"none"``/``"off"`` mean unbounded and return None."""
    if value is None:
        return None
    if isinstance(value, (int, float)):
        budget = int(value)
        return budget if budget > 0 else None
    text = str(value).strip().upper()
    if not text or text in {"0", "NONE", "OFF", "UNBOUNDED"}:
        return None
    number = text
    suffix = ""
    for index, char in enumerate(text):
        if not (char.isdigit() or char in ".+"):
            number, suffix = text[:index], text[index:]
            break
    try:
        multiplier = _SUFFIX_MULTIPLIERS[suffix.strip()]
        budget = int(float(number) * multiplier)
    except (KeyError, ValueError):
        raise ValueError(
            f"unparseable memory budget {value!r}; expected bytes or a "
            "K/M/G-suffixed size like '64K' or '8M'"
        ) from None
    return budget if budget > 0 else None


def resolve_memory_budget(value=None) -> "int | None":
    """Budget from *value* when given, else ``$REPRO_MEMORY_BUDGET``."""
    if value is not None:
        return parse_memory_budget(value)
    return parse_memory_budget(os.environ.get(MEMORY_BUDGET_ENV))


def resolve_spill_dir(value=None) -> "str | None":
    """Spill directory from *value* when given, else ``$REPRO_SPILL_DIR``."""
    if value is not None:
        return os.fspath(value)
    return os.environ.get(SPILL_DIR_ENV) or None


def tile_payload_of(matrix: BooleanMatrix) -> tuple:
    """Encode *matrix* through its backend's payload hook (the spill
    and snapshot codec)."""
    backend_name = matrix.backend_name
    if backend_name == "annotated":
        return matrix.payload()
    return get_backend(backend_name).tile_payload(matrix)


def matrix_from_payload(payload: tuple) -> BooleanMatrix:
    """Rebuild a tile from any backend's payload (inverse of
    :func:`tile_payload_of`)."""
    kind = payload[0]
    if kind == "annotated":
        from .semiring import annotated_tile_from_payload

        return annotated_tile_from_payload(payload)
    return get_backend(kind).tile_from_payload(payload)


def matrix_nbytes(matrix: BooleanMatrix) -> int:
    """Approximate resident bytes of any matrix, dispatching to its
    backend's :meth:`MatrixBackend.matrix_nbytes`."""
    backend_name = matrix.backend_name
    if backend_name == "annotated":
        from .semiring import AnnotatedBackend

        return AnnotatedBackend.matrix_nbytes(matrix)
    return get_backend(backend_name).matrix_nbytes(matrix)


@dataclass
class TileStoreStats:
    """Mutable counters for one store's lifetime.

    ``tiles_spilled`` counts spill-file *writes* (an unchanged tile
    evicted twice writes once), ``tiles_reloaded`` counts
    materializations from disk, ``spill_bytes`` sums the bytes written,
    ``evictions`` counts residency drops, and ``peak_resident_bytes`` is
    the high-water mark of the accounted working set.
    """

    tiles_spilled: int = 0
    tiles_reloaded: int = 0
    spill_bytes: int = 0
    evictions: int = 0
    peak_resident_bytes: int = 0


class _Entry:
    """Per-key state: the resident tile (if any), its content version,
    and the spill-file bookkeeping.  A non-resident entry always has a
    spill file of its current version."""

    __slots__ = ("tile", "nbytes", "version", "spill_path", "spill_version",
                 "spill_meta", "spill_raw")

    def __init__(self) -> None:
        self.tile: "BooleanMatrix | None" = None
        self.nbytes = 0
        self.version = 0
        self.spill_path: "str | None" = None
        self.spill_version = -1
        self.spill_meta: "tuple | None" = None
        self.spill_raw = False


class TileStore:
    """A budgeted, spillable, LRU cache of matrix tiles.

    Single-threaded: its one owner, the ``blocked`` closure, runs its
    tile tasks on the calling thread.
    ``budget_bytes`` None means nothing ever spills.
    Pinned keys (see :meth:`pinned`) are never evicted, so a working
    set larger than the budget keeps the run correct: the budget is
    enforced against every *unpinned* tile.
    """

    def __init__(self, budget_bytes=None, spill_dir: "str | None" = None):
        self._budget = parse_memory_budget(budget_bytes)
        self._requested_dir = spill_dir
        self._entries: dict[Hashable, _Entry] = {}
        self._lru: OrderedDict[Hashable, bool] = OrderedDict()
        self._pins: dict[Hashable, int] = {}
        self._resident_bytes = 0
        self._dir_path: "str | None" = None
        self._created_dir = False
        self._file_counter = 0
        self._closed = False
        self.stats = TileStoreStats()

    # -- introspection ----------------------------------------------------
    @property
    def budget_bytes(self) -> "int | None":
        return self._budget

    @property
    def resident_bytes(self) -> int:
        """Accounted bytes of all currently-resident tiles."""
        return self._resident_bytes

    @property
    def spill_dir(self) -> "str | None":
        """The spill directory path, once anything has spilled."""
        return self._dir_path

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self) -> list:
        return list(self._entries)

    # -- writes -----------------------------------------------------------
    def put(self, key: Hashable, tile: BooleanMatrix,
            changed: bool = True) -> None:
        """Store *tile* under *key* and make it resident.

        ``changed=False`` declares the content identical to what the
        store already holds (e.g. a merge whose delta was empty): the
        version — and with it any current spill file — stays valid, so
        nothing is re-spilled.
        """
        nbytes = matrix_nbytes(tile)
        entry = self._entries.get(key)
        if entry is None:
            entry = _Entry()
            self._entries[key] = entry
            changed = True
        if entry.tile is not None:
            self._resident_bytes -= entry.nbytes
            self._lru.pop(key, None)
            entry.tile = None
        if changed:
            entry.version += 1
        # Make room *before* the tile becomes resident, so the
        # accounted peak stays within the budget whenever the pinned
        # working set allows it (a single tile larger than the whole
        # budget still goes in — correctness over strictness).
        self._evict_over_budget(protect=key, headroom=nbytes)
        entry.tile = tile
        entry.nbytes = nbytes
        self._make_resident(key, entry)

    def discard(self, key: Hashable) -> None:
        """Drop *key* entirely (residency and spill file)."""
        entry = self._entries.pop(key, None)
        if entry is None:
            return
        self._drop_resident(key, entry)
        if entry.spill_path:
            with contextlib.suppress(OSError):
                os.unlink(entry.spill_path)

    # -- reads ------------------------------------------------------------
    def get(self, key: Hashable) -> BooleanMatrix:
        """The tile under *key*, reloading from its spill file if cold."""
        entry = self._entries[key]
        if entry.tile is not None:
            self._lru.move_to_end(key)
            return entry.tile
        tile = self._reload(entry)
        nbytes = matrix_nbytes(tile)
        self._evict_over_budget(protect=key, headroom=nbytes)
        entry.tile = tile
        entry.nbytes = nbytes
        self._make_resident(key, entry)
        return tile

    # -- pinning ----------------------------------------------------------
    @contextlib.contextmanager
    def pinned(self, keys: Iterable[Hashable]) -> Iterator[None]:
        """Context manager: *keys* are not evictable while active.

        Re-entrant (pin counts); unknown keys are tolerated so callers
        can pin before the tile exists.
        """
        keys = list(keys)
        for key in keys:
            self._pins[key] = self._pins.get(key, 0) + 1
        try:
            yield
        finally:
            for key in keys:
                remaining = self._pins.get(key, 0) - 1
                if remaining > 0:
                    self._pins[key] = remaining
                else:
                    self._pins.pop(key, None)

    # -- eviction ---------------------------------------------------------
    def evict_to_budget(self) -> None:
        """Spill cold tiles until the resident set fits the budget."""
        self._evict_over_budget()

    # -- lifecycle --------------------------------------------------------
    def close(self, keep_spill: bool = False) -> None:
        """Release all entries; remove spill files unless *keep_spill*.

        A crashed run should pass ``keep_spill=True`` so the spill
        directory survives for inspection; a clean close removes the
        files and (when this store created it) the directory.
        """
        entries = list(self._entries.values())
        self._entries.clear()
        self._lru.clear()
        self._pins.clear()
        self._resident_bytes = 0
        self._closed = True
        if keep_spill:
            return
        for entry in entries:
            if entry.spill_path:
                with contextlib.suppress(OSError):
                    os.unlink(entry.spill_path)
        if self._dir_path and self._created_dir:
            with contextlib.suppress(OSError):
                os.rmdir(self._dir_path)
            self._dir_path = None

    # -- internals ---------------------------------------------------------
    def _make_resident(self, key: Hashable, entry: _Entry) -> None:
        self._lru[key] = True
        self._lru.move_to_end(key)
        self._resident_bytes += entry.nbytes
        if self._resident_bytes > self.stats.peak_resident_bytes:
            self.stats.peak_resident_bytes = self._resident_bytes

    def _drop_resident(self, key: Hashable, entry: _Entry) -> None:
        if entry.tile is None:
            return
        entry.tile = None
        self._resident_bytes -= entry.nbytes
        self._lru.pop(key, None)

    def _evict_over_budget(self, protect: Hashable = None,
                           headroom: int = 0) -> None:
        if self._budget is None:
            return
        while self._resident_bytes + headroom > self._budget:
            victim = None
            for key in self._lru:
                if key != protect and not self._pins.get(key):
                    victim = key
                    break
            if victim is None:
                break
            self._spill(victim, self._entries[victim])

    def _spill(self, key: Hashable, entry: _Entry) -> None:
        if entry.tile is None:
            return
        if entry.spill_version != entry.version:
            self._write_spill(entry)
        self._drop_resident(key, entry)
        self.stats.evictions += 1

    def _write_spill(self, entry: _Entry) -> None:
        payload = tile_payload_of(entry.tile)
        backend = None
        kind = payload[0]
        if isinstance(kind, str):
            try:
                backend = get_backend(kind)
            except UnknownBackendError:
                backend = None
        meta, buffer = (payload, None)
        if backend is not None:
            meta, buffer = backend.spill_parts(payload)
        if buffer is None:
            blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
            meta, raw = None, False
        else:
            blob, raw = buffer, True
        path = self._next_spill_path()
        with open(path, "wb") as handle:
            handle.write(blob)
        previous = entry.spill_path
        entry.spill_path = path
        entry.spill_version = entry.version
        entry.spill_meta = meta
        entry.spill_raw = raw
        self.stats.tiles_spilled += 1
        self.stats.spill_bytes += len(blob)
        if previous:
            # Fresh file per spill: unlinking the superseded one is safe
            # even while an older zero-copy mapping still reads it (the
            # inode lives until the mapping dies).
            with contextlib.suppress(OSError):
                os.unlink(previous)

    def _reload(self, entry: _Entry) -> BooleanMatrix:
        self.stats.tiles_reloaded += 1
        if entry.spill_raw:
            with open(entry.spill_path, "rb") as handle:
                size = os.fstat(handle.fileno()).st_size
                if size == 0:
                    buffer = b""
                else:
                    # ACCESS_COPY: pages fault in lazily, writes stay
                    # private — the mapping outlives the closed fd.
                    buffer = mmap.mmap(handle.fileno(), 0,
                                       access=mmap.ACCESS_COPY)
            meta = entry.spill_meta
            return get_backend(meta[0]).tile_from_parts(meta, buffer)
        with open(entry.spill_path, "rb") as handle:
            payload = pickle.load(handle)
        return matrix_from_payload(payload)

    def _next_spill_path(self) -> str:
        directory = self._spill_directory()
        self._file_counter += 1
        return os.path.join(directory, f"tile-{self._file_counter:08d}.bin")

    def _spill_directory(self) -> str:
        if self._dir_path is None:
            if self._requested_dir is not None:
                path = os.path.abspath(self._requested_dir)
                self._created_dir = not os.path.isdir(path)
                os.makedirs(path, exist_ok=True)
                self._dir_path = path
            else:
                self._dir_path = tempfile.mkdtemp(prefix="repro-spill-")
                self._created_dir = True
        return self._dir_path

