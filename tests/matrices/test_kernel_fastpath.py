"""Regression tests for the kernel buffer fast path and the vectorized
bitset/dense kernels.

The hot-path contract: kernels construct results through ``_wrap`` —
buffers they freshly own — and therefore never pay the defensive
read-only copy of the public constructors; external callers passing
read-only arrays still get the copy.  The vectorized bitset product
(gather + segmented ``bitwise_or.reduceat``) must agree bit-for-bit
with the seed per-row/per-bit loop it replaced
(:meth:`BitsetMatrix.multiply_rowloop`).
"""

from __future__ import annotations

import random

import pytest

np = pytest.importorskip("numpy")

from repro.matrices.bitset import BACKEND as BITSET, BitsetMatrix
from repro.matrices.dense import BACKEND as DENSE, DenseMatrix


def _random_pairs(rng, rows, cols, count):
    return {(rng.randrange(rows), rng.randrange(cols)) for _ in range(count)}


class TestWrapFastPath:
    def test_bitset_wrap_does_not_copy(self):
        words = np.zeros((4, 1), dtype=np.uint64)
        matrix = BitsetMatrix._wrap(words, 64)
        assert matrix._words is words

    def test_dense_wrap_does_not_copy(self):
        array = np.zeros((4, 4), dtype=bool)
        matrix = DenseMatrix._wrap(array)
        assert matrix._array is array

    def test_bitset_wrap_rejects_read_only(self):
        words = np.zeros((4, 1), dtype=np.uint64)
        words.setflags(write=False)
        with pytest.raises(AssertionError):
            BitsetMatrix._wrap(words, 64)

    def test_dense_wrap_rejects_read_only(self):
        array = np.zeros((4, 4), dtype=bool)
        array.setflags(write=False)
        with pytest.raises(AssertionError):
            DenseMatrix._wrap(array)

    def test_public_constructors_still_copy_read_only(self):
        """The defensive copy stays for external callers."""
        words = np.zeros((4, 1), dtype=np.uint64)
        words.setflags(write=False)
        matrix = BitsetMatrix(words, 64)
        assert matrix._words is not words
        assert matrix._words.flags.writeable

        array = np.zeros((4, 4), dtype=bool)
        array.setflags(write=False)
        dense = DenseMatrix(array)
        assert dense._array is not array
        assert dense._array.flags.writeable

    def test_kernel_results_own_writable_buffers(self):
        """Every kernel result must come out of the fast path: a fresh
        writable buffer (mutating it cannot throw or alias operands)."""
        rng = random.Random(7)
        a = BITSET.from_pairs(20, _random_pairs(rng, 20, 20, 60))
        b = BITSET.from_pairs(20, _random_pairs(rng, 20, 20, 60))
        for result in (a.multiply(b), a.union(b), a.transpose(),
                       BITSET.clone(a)):
            assert result._words.flags.writeable
        delta = BITSET.clone(a).union_update(b)
        assert delta._words.flags.writeable

        da = DENSE.from_pairs(20, _random_pairs(rng, 20, 20, 60))
        db = DENSE.from_pairs(20, _random_pairs(rng, 20, 20, 60))
        for result in (da.multiply(db), da.union(db), da.transpose(),
                       DENSE.clone(da)):
            assert result._array.flags.writeable
        delta = DENSE.clone(da).union_update(db)
        assert delta._array.flags.writeable


class TestVectorizedBitsetKernels:
    @pytest.mark.parametrize("seed", range(8))
    def test_multiply_matches_rowloop(self, seed):
        """The vectorized product equals the seed scalar kernel on
        random rectangular cases spanning word boundaries."""
        rng = random.Random(0xB1757 ^ seed)
        rows = rng.randrange(1, 80)
        inner = rng.randrange(1, 150)
        cols = rng.randrange(1, 150)
        a = BITSET.from_pairs(
            rows, _random_pairs(rng, rows, inner, rng.randrange(0, 200)),
            cols=inner)
        b = BITSET.from_pairs(
            inner, _random_pairs(rng, inner, cols, rng.randrange(0, 200)),
            cols=cols)
        fast = a.multiply(b)
        slow = a.multiply_rowloop(b)
        assert np.array_equal(fast._words, slow._words)
        assert fast.shape == slow.shape == (rows, cols)

    def test_multiply_empty_operands(self):
        a = BITSET.zeros(5, 7)
        b = BITSET.zeros(7, 3)
        assert a.multiply(b).nnz() == 0
        assert a.multiply_rowloop(b).nnz() == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_union_update_exact_delta(self, seed):
        rng = random.Random(0xDE17A ^ seed)
        n = 30
        base_pairs = _random_pairs(rng, n, n, 90)
        other_pairs = _random_pairs(rng, n, n, 90)
        for backend in (BITSET, DENSE):
            base = backend.from_pairs(n, base_pairs)
            other = backend.from_pairs(n, other_pairs)
            delta = base.union_update(other)
            assert delta.to_pair_set() == \
                frozenset(other_pairs - base_pairs)
            assert base.to_pair_set() == frozenset(base_pairs | other_pairs)

    def test_transpose_matches_pairs(self):
        rng = random.Random(5)
        pairs = _random_pairs(rng, 70, 130, 150)
        matrix = BITSET.from_pairs(70, pairs, cols=130)
        transposed = matrix.transpose()
        assert transposed.shape == (130, 70)
        assert transposed.to_pair_set() == \
            frozenset((j, i) for i, j in pairs)
