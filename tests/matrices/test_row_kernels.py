"""The row kernels ``mask_rows`` and ``row_major`` across all backends.

``mask_rows`` restricts a matrix to a row subset without changing its
shape: the RPQ demux reads its start-state rows through it, and a cold
batch its source rows.  Every backend's native override must agree
exactly with the generic coordinate implementation on
:class:`~repro.matrices.base.MatrixBackend`.  ``row_major`` is the CSR
export path answers read rows from; every matrix type, annotated ones
included, must give each row's columns in ascending order.
"""

from __future__ import annotations

import random

import pytest

from repro.matrices.base import MatrixBackend, available_backends, get_backend

PAIRS = {(0, 1), (0, 3), (1, 2), (2, 0), (3, 3), (3, 1)}


def _generic(backend, method, *args):
    """Call the base-class (generic) implementation against a backend's
    own matrices, bypassing any native override."""
    return getattr(MatrixBackend, method)(backend, *args)


class TestMaskRows:
    def test_keeps_only_listed_rows(self, backend):
        matrix = backend.from_pairs(4, PAIRS)
        masked = backend.mask_rows(matrix, [0, 3])
        assert masked.shape == (4, 4)
        assert set(masked.nonzero_pairs()) == {
            (0, 1), (0, 3), (3, 3), (3, 1)
        }

    def test_empty_keep(self, backend):
        matrix = backend.from_pairs(4, PAIRS)
        masked = backend.mask_rows(matrix, [])
        assert masked.shape == (4, 4)
        assert masked.nnz() == 0

    def test_result_is_a_copy(self, backend):
        matrix = backend.from_pairs(4, PAIRS)
        masked = backend.mask_rows(matrix, [0])
        backend.union_update(masked, backend.from_pairs(4, {(2, 2)}))
        assert not matrix[2, 2]

    def test_out_of_range(self, backend):
        matrix = backend.from_pairs(4, PAIRS)
        with pytest.raises(IndexError):
            backend.mask_rows(matrix, [7])

    def test_negative_row_out_of_range(self, backend):
        matrix = backend.from_pairs(4, PAIRS)
        with pytest.raises(IndexError):
            backend.mask_rows(matrix, [0, -1])

    def test_duplicates_and_order(self, backend):
        """*keep* is a row set: repeats and order change nothing, and a
        one-shot iterator works as well as a list."""
        matrix = backend.from_pairs(4, PAIRS)
        expected = set(backend.mask_rows(matrix, [0, 3]).nonzero_pairs())
        for keep in ([3, 0, 3, 0], (3, 3, 0), iter([0, 3, 0])):
            masked = backend.mask_rows(matrix, keep)
            assert masked.shape == (4, 4)
            assert set(masked.nonzero_pairs()) == expected

    def test_keep_every_row(self, backend):
        matrix = backend.from_pairs(4, PAIRS)
        masked = backend.mask_rows(matrix, range(4))
        assert set(masked.nonzero_pairs()) == PAIRS
        backend.union_update(masked, backend.from_pairs(4, {(2, 2)}))
        assert not matrix[2, 2]

    def test_rectangular(self, backend):
        matrix = backend.from_pairs(3, {(0, 4), (1, 0), (2, 1)}, cols=5)
        masked = backend.mask_rows(matrix, [2, 0])
        assert masked.shape == (3, 5)
        assert set(masked.nonzero_pairs()) == {(0, 4), (2, 1)}
        with pytest.raises(IndexError):
            backend.mask_rows(matrix, [3])

    def test_other_backends_matrix(self, backend):
        """The native kernel accepts a matrix of any other backend."""
        for name in available_backends():
            other = get_backend(name)
            if other is backend:
                continue
            masked = backend.mask_rows(other.from_pairs(4, PAIRS), [3, 0])
            assert masked.shape == (4, 4)
            assert set(masked.nonzero_pairs()) == {
                (0, 1), (0, 3), (3, 3), (3, 1)
            }, name


def _csr_rows(matrix) -> list:
    indptr, indices = matrix.row_major()
    starts = indptr.tolist()
    return [indices[starts[i]:starts[i + 1]].tolist()
            for i in range(len(starts) - 1)]


class TestRowMajor:
    def test_rectangular_rows_ascend(self, backend):
        matrix = backend.from_pairs(4, PAIRS | {(1, 4), (0, 0)}, cols=5)
        assert _csr_rows(matrix) == [[0, 1, 3], [2, 4], [0], [1, 3]]

    def test_empty(self, backend):
        assert _csr_rows(backend.zeros(3)) == [[], [], []]

    def test_product_rows_match_its_pairs(self, backend):
        """A product may hold its columns in operation order; the
        export sorts them."""
        rng = random.Random(3)
        left = backend.from_pairs(
            12, {(rng.randrange(12), rng.randrange(12)) for _ in range(40)})
        product = left.multiply(left)
        expected = [[] for _ in range(12)]
        for i, j in sorted(product.nonzero_pairs()):
            expected[i].append(j)
        assert _csr_rows(product) == expected

    def test_annotated_matrices(self):
        from repro.core.semiring import LENGTH_SEMIRING, AnnotatedBackend

        matrix = AnnotatedBackend(LENGTH_SEMIRING).from_cells(
            (3, 4), {(2, 3): 1, (0, 2): 4, (2, 0): 2})
        assert _csr_rows(matrix) == [[2], [], [0, 3]]


class TestNativeMatchesGeneric:
    """Every backend's fast path must agree with the generic kernel."""

    def test_mask_parity(self, backend):
        rng = random.Random(13)
        for _ in range(10):
            pairs = {(rng.randrange(6), rng.randrange(6))
                     for _ in range(rng.randrange(1, 14))}
            matrix = backend.from_pairs(6, pairs)
            keep = {rng.randrange(6) for _ in range(rng.randrange(0, 5))}
            native = backend.mask_rows(matrix, keep)
            generic = _generic(backend, "mask_rows", matrix, keep)
            assert native.shape == generic.shape
            assert set(native.nonzero_pairs()) \
                == set(generic.nonzero_pairs())

    def test_mask_parity_rectangular(self, backend):
        rng = random.Random(17)
        for _ in range(10):
            rows, cols = rng.randrange(1, 7), rng.randrange(1, 9)
            pairs = {(rng.randrange(rows), rng.randrange(cols))
                     for _ in range(rng.randrange(1, 14))}
            matrix = backend.from_pairs(rows, pairs, cols=cols)
            keep = [rng.randrange(rows) for _ in range(rng.randrange(0, 8))]
            native = backend.mask_rows(matrix, keep)
            generic = _generic(backend, "mask_rows", matrix, keep)
            assert native.shape == generic.shape == (rows, cols)
            assert set(native.nonzero_pairs()) \
                == set(generic.nonzero_pairs())


def test_foreign_matrix_mask():
    """The generic kernel masks rows of another backend's matrix (it
    goes through nonzero_pairs, so this is exercised whenever fewer
    than two backends are installed too)."""
    names = available_backends()
    if len(names) < 2:
        pytest.skip("needs two backends")
    left = get_backend(names[0])
    right = get_backend(names[1])
    matrix = right.from_pairs(4, PAIRS)
    masked = MatrixBackend.mask_rows(left, matrix, [3, 0])
    assert masked.shape == (4, 4)
    assert set(masked.nonzero_pairs()) == {
        (0, 1), (0, 3), (3, 3), (3, 1)
    }
