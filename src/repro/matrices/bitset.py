"""Bit-packed boolean matrix backend.

Each matrix row is packed into ``ceil(cols / 64)`` unsigned 64-bit
words; the boolean product ORs whole words instead of touching
individual cells — the classic bitset trick used by high-performance
Boolean-matrix CFPQ implementations (and, conceptually, by the GPU
kernels the paper targets: one machine word processes 64 matrix cells).

The product kernel is fully vectorized: the left operand is bit-expanded
once (``np.unpackbits``), the set-bit coordinates select ("gather") the
packed right-matrix rows, and one segmented ``np.bitwise_or.reduceat``
folds each output row — no Python inner loop, so the word-level
parallelism the paper attributes to the GPU actually reaches NumPy's C
kernels.  The historical per-row/per-bit loop survives as
:meth:`BitsetMatrix.multiply_rowloop`, the reference the benchmark suite
measures the vectorized kernel against.
"""

from __future__ import annotations

import sys
from typing import Iterable, Iterator

import numpy as np

from .base import BooleanMatrix, MatrixBackend, Pair, register_backend

_WORD = 64

#: The byte-view kernels (unpackbits/packbits on a uint8 view of the
#: word array) assume bit j of word w lives in byte j//8 — true only on
#: little-endian hosts, since bits are *written* value-wise
#: (``1 << j % 64``).  Big-endian hosts take the endian-agnostic
#: fallbacks instead.
_LITTLE_ENDIAN = sys.byteorder == "little"

#: Upper bound on set left bits gathered per ``reduceat`` chunk: caps
#: the peak temporary at ``_GATHER_CHUNK_BITS × row_bytes(right)``
#: (≈ 32 MB at 4096 columns) instead of ``nnz(left) × row_bytes`` —
#: which on dense operands would be O(n³/8).
_GATHER_CHUNK_BITS = 1 << 16


def _word_count(cols: int) -> int:
    return max(1, (cols + _WORD - 1) // _WORD)


def _multiply_words(left_words: np.ndarray, right_words: np.ndarray,
                    inner: int) -> np.ndarray:
    """The vectorized packed product: for every set bit (i, k) of the
    left operand OR the packed right row ``k`` into output row ``i``.

    Implemented as bit-expansion + gather + segmented
    ``np.bitwise_or.reduceat`` over the gathered rows (``np.nonzero``
    returns coordinates row-major, so each output row is one contiguous
    segment).  The gather runs in row-aligned chunks of at most
    :data:`_GATHER_CHUNK_BITS` set bits, bounding the temporary
    working set on dense operands.  Returns a fresh writable word array.
    """
    rows = left_words.shape[0]
    out = np.zeros((rows, right_words.shape[1]), dtype=np.uint64)
    if rows == 0 or inner == 0:
        return out
    bits = np.unpackbits(left_words.view(np.uint8), axis=1,
                         bitorder="little")[:, :inner]
    row_idx, k_idx = np.nonzero(bits)
    total = len(row_idx)
    if not total:
        return out
    # Global segment starts: one segment per nonzero output row.
    starts = np.concatenate(([0], np.flatnonzero(np.diff(row_idx)) + 1))
    segment = 0
    while segment < len(starts):
        begin = int(starts[segment])
        # Extend to whole row segments until the chunk budget is hit;
        # a single row denser than the budget still goes in one piece
        # (its gather is bounded by inner × row_bytes).
        segment_end = int(np.searchsorted(starts, begin + _GATHER_CHUNK_BITS,
                                          side="right"))
        segment_end = max(segment_end, segment + 1)
        end = (int(starts[segment_end]) if segment_end < len(starts)
               else total)
        gathered = right_words[k_idx[begin:end]]
        sub_starts = starts[segment:segment_end] - begin
        out[row_idx[starts[segment:segment_end]]] = \
            np.bitwise_or.reduceat(gathered, sub_starts, axis=0)
        segment = segment_end
    return out


class BitsetMatrix(BooleanMatrix):
    """Bit-packed boolean matrix (rows × ceil(cols/64) words).

    The constructor **takes ownership** of the word array (no copy):
    the in-place kernels OR whole rows into it, so pass a copy if you
    keep a reference.  Read-only arrays are copied defensively; the
    kernels construct their results through :meth:`_wrap`, which skips
    that check entirely (they only ever produce fresh writable buffers).
    """

    __slots__ = ("_words", "_cols")

    backend_name = "bitset"

    def __init__(self, words: np.ndarray, cols: int):
        if words.ndim != 2 or words.dtype != np.uint64:
            raise ValueError("bitset matrix requires a 2-D uint64 word array")
        if not words.flags.writeable:
            words = words.copy()
        self._words = words
        self._cols = cols

    @classmethod
    def _wrap(cls, words: np.ndarray, cols: int) -> "BitsetMatrix":
        """Kernel fast path: wrap a word buffer we know we own.

        Skips the defensive-copy check of ``__init__`` — every kernel
        result is a fresh writable uint64 array, and the assertions
        (compiled out under ``-O``) keep that invariant honest.
        """
        assert words.ndim == 2 and words.dtype == np.uint64, \
            "_wrap requires a 2-D uint64 word array"
        assert words.flags.writeable, \
            "_wrap requires a writable (owned) buffer"
        matrix = cls.__new__(cls)
        matrix._words = words
        matrix._cols = cols
        return matrix

    @property
    def shape(self) -> tuple[int, int]:
        return (self._words.shape[0], self._cols)

    def __getitem__(self, index: Pair) -> bool:
        i, j = index
        return bool((self._words[i, j // _WORD] >> np.uint64(j % _WORD))
                    & np.uint64(1))

    def nonzero_pairs(self) -> Iterator[Pair]:
        rows, words = np.nonzero(self._words)
        for i, w in zip(rows.tolist(), words.tolist()):
            value = int(self._words[i, w])
            base = w * _WORD
            while value:
                low = value & -value
                yield (i, base + low.bit_length() - 1)
                value ^= low

    def nnz(self) -> int:
        # popcount via uint8 view lookup
        as_bytes = self._words.view(np.uint8)
        return int(_POPCOUNT_TABLE[as_bytes].sum())

    def multiply(self, other: BooleanMatrix) -> "BitsetMatrix":
        self._require_chainable(other)
        if not _LITTLE_ENDIAN:  # pragma: no cover - exotic hosts
            return self.multiply_rowloop(other)
        other_bits = _as_bitset(other)
        product = _multiply_words(self._words, other_bits._words,
                                  self.shape[1])
        return BitsetMatrix._wrap(product, other_bits._cols)

    def multiply_rowloop(self, other: BooleanMatrix) -> "BitsetMatrix":
        """The seed scalar kernel: per row, walk every set bit in Python
        and OR the matching packed right rows.  Kept as the reference
        implementation the vectorized :meth:`multiply` is differentially
        tested and benchmarked against (``BENCH_backends.json``)."""
        self._require_chainable(other)
        other_bits = _as_bitset(other)
        rows = self.shape[0]
        result = np.zeros((rows, other_bits._words.shape[1]), dtype=np.uint64)
        left_words = self._words
        right_words = other_bits._words
        for i in range(rows):
            row = left_words[i]
            nonzero_word_indexes = np.nonzero(row)[0]
            if not len(nonzero_word_indexes):
                continue
            accumulator = result[i]
            for w in nonzero_word_indexes.tolist():
                value = int(row[w])
                base = w * _WORD
                while value:
                    low = value & -value
                    k = base + low.bit_length() - 1
                    np.bitwise_or(accumulator, right_words[k], out=accumulator)
                    value ^= low
        return BitsetMatrix._wrap(result, other_bits._cols)

    def union(self, other: BooleanMatrix) -> "BitsetMatrix":
        self._require_same_shape(other)
        other_bits = _as_bitset(other)
        return BitsetMatrix._wrap(self._words | other_bits._words, self._cols)

    def transpose(self) -> "BitsetMatrix":
        rows, cols = self.shape
        if rows == 0 or cols == 0 or not _LITTLE_ENDIAN:
            transposed = np.zeros((cols, _word_count(rows)), dtype=np.uint64)
            for i, j in self.nonzero_pairs():  # pragma: no cover - BE hosts
                transposed[j, i // _WORD] |= np.uint64(1) << np.uint64(
                    i % _WORD)
            return BitsetMatrix._wrap(transposed, rows)
        bits = np.unpackbits(self._words.view(np.uint8), axis=1,
                             bitorder="little")[:, :cols]
        padded = np.zeros((cols, _word_count(rows) * _WORD), dtype=np.uint8)
        padded[:, :rows] = bits.T
        transposed = np.packbits(padded, axis=1,
                                 bitorder="little").view(np.uint64)
        return BitsetMatrix._wrap(np.ascontiguousarray(transposed), rows)

    def union_update(self, other: BooleanMatrix) -> "BitsetMatrix":
        self._require_same_shape(other)
        other_words = _as_bitset(other)._words
        # Exact delta with one allocation (the returned matrix): merged
        # = self | other, delta = merged ^ self, then merge in place.
        delta = np.bitwise_or(self._words, other_words)
        np.bitwise_xor(delta, self._words, out=delta)
        np.bitwise_or(self._words, delta, out=self._words)
        return BitsetMatrix._wrap(delta, self._cols)


_POPCOUNT_TABLE = np.array([bin(b).count("1") for b in range(256)],
                           dtype=np.uint32)


def _as_bitset(matrix: BooleanMatrix) -> BitsetMatrix:
    if isinstance(matrix, BitsetMatrix):
        return matrix
    rows, cols = matrix.shape
    words = np.zeros((rows, _word_count(cols)), dtype=np.uint64)
    for i, j in matrix.nonzero_pairs():
        words[i, j // _WORD] |= np.uint64(1) << np.uint64(j % _WORD)
    return BitsetMatrix._wrap(words, cols)


class BitsetBackend(MatrixBackend):
    """Factory for :class:`BitsetMatrix`."""

    name = "bitset"

    def zeros(self, rows: int, cols: int | None = None) -> BitsetMatrix:
        actual_cols = cols if cols is not None else rows
        return BitsetMatrix._wrap(
            np.zeros((rows, _word_count(actual_cols)), dtype=np.uint64),
            actual_cols,
        )

    def from_pairs(self, size: int, pairs: Iterable[Pair],
                   cols: int | None = None) -> BitsetMatrix:
        actual_cols = cols if cols is not None else size
        words = np.zeros((size, _word_count(actual_cols)), dtype=np.uint64)
        for i, j in pairs:
            if not (0 <= i < size and 0 <= j < actual_cols):
                raise ValueError(f"pair {(i, j)} outside shape {(size, actual_cols)}")
            words[i, j // _WORD] |= np.uint64(1) << np.uint64(j % _WORD)
        return BitsetMatrix._wrap(words, actual_cols)

    def clone(self, matrix: BooleanMatrix) -> BitsetMatrix:
        bits = _as_bitset(matrix)
        return BitsetMatrix._wrap(bits._words.copy(), bits._cols)

    def mask_rows(self, matrix: BooleanMatrix, keep) -> BitsetMatrix:
        bits = _as_bitset(matrix)
        index = np.asarray(sorted(set(keep)), dtype=np.intp)
        if index.size and (index.min() < 0
                           or index.max() >= bits._words.shape[0]):
            raise IndexError(
                f"row index out of range for shape {matrix.shape}"
            )
        words = np.zeros_like(bits._words)
        words[index] = bits._words[index]
        return BitsetMatrix._wrap(words, bits._cols)

    def matrix_nbytes(self, matrix: BooleanMatrix) -> int:
        if isinstance(matrix, BitsetMatrix):
            return int(matrix._words.nbytes)
        rows, cols = matrix.shape
        return rows * _word_count(cols) * 8

    # -- tiling (vectorized word-aligned fast paths) ----------------------
    def split_into_tiles(self, matrix: BooleanMatrix, tile_size: int,
                         ) -> dict[tuple[int, int], BitsetMatrix]:
        """Word-aligned tile sizes split by slicing the packed word
        array — no per-bit Python loop.  Unaligned sizes (and foreign
        matrix types) fall back to the generic coordinate path."""
        if (tile_size < 1 or tile_size % _WORD
                or not isinstance(matrix, BitsetMatrix)):
            return super().split_into_tiles(matrix, tile_size)
        n = matrix.shape[0]
        grid = (n + tile_size - 1) // tile_size
        words = matrix._words
        words_per_tile = tile_size // _WORD
        tiles: dict[tuple[int, int], BitsetMatrix] = {}
        for bi in range(grid):
            row_lo = bi * tile_size
            row_hi = min(n, row_lo + tile_size)
            for bj in range(grid):
                word_lo = bj * words_per_tile
                word_hi = min(words.shape[1], word_lo + words_per_tile)
                block = np.zeros((tile_size, words_per_tile), dtype=np.uint64)
                block[:row_hi - row_lo, :word_hi - word_lo] = \
                    words[row_lo:row_hi, word_lo:word_hi]
                tiles[(bi, bj)] = BitsetMatrix._wrap(block, tile_size)
        return tiles

    def assemble_from_tile_iter(self, items, size: int, tile_size: int,
                                ) -> BooleanMatrix:
        if tile_size < 1 or tile_size % _WORD:
            return super().assemble_from_tile_iter(items, size, tile_size)
        words_per_tile = tile_size // _WORD
        total_words = _word_count(size)
        words = np.zeros((size, total_words), dtype=np.uint64)
        for (bi, bj), tile in items:
            row_lo = bi * tile_size
            word_lo = bj * words_per_tile
            if row_lo >= size or word_lo >= total_words:
                continue
            row_hi = min(size, row_lo + tile_size)
            word_hi = min(total_words, word_lo + words_per_tile)
            words[row_lo:row_hi, word_lo:word_hi] = \
                _as_bitset(tile)._words[:row_hi - row_lo, :word_hi - word_lo]
        if size % _WORD:
            # Mask the padding columns the edge tiles may carry.
            words[:, -1] &= np.uint64((1 << (size % _WORD)) - 1)
        return BitsetMatrix._wrap(words, size)

    # -- tile payloads (spill and snapshot codec) -------------------------
    def tile_payload(self, matrix: BooleanMatrix) -> tuple:
        bits = _as_bitset(matrix)
        rows, cols = bits.shape
        return ("bitset", rows, cols, bits._words.tobytes())

    def tile_from_payload(self, payload: tuple) -> BitsetMatrix:
        _kind, rows, cols, raw = payload
        words = np.frombuffer(raw, dtype=np.uint64).reshape(
            rows, _word_count(cols)).copy()
        return BitsetMatrix._wrap(words, cols)

    # -- spilling (the tile store's raw-buffer format) --------------------
    def spill_parts(self, payload: tuple) -> tuple:
        kind, rows, cols, raw = payload
        return (kind, rows, cols), raw

    def tile_from_parts(self, meta: tuple, buffer) -> BitsetMatrix:
        """Zero-copy reload: a private-writable mapping (``mmap`` with
        ``ACCESS_COPY``) is wrapped directly; read-only buffers (plain
        ``bytes``) are copied once."""
        _kind, rows, cols = meta
        words = np.frombuffer(buffer, dtype=np.uint64).reshape(
            rows, _word_count(cols))
        if not words.flags.writeable:
            words = words.copy()
        return BitsetMatrix._wrap(words, cols)


BACKEND = register_backend(BitsetBackend())
