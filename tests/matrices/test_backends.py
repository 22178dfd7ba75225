"""Backend-parametrized and property tests for boolean matrices.

The four backends must be observationally identical; the pure-Python
``setmatrix`` backend serves as the specification the NumPy/SciPy ones
are checked against.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DimensionMismatchError, UnknownBackendError
from repro.matrices.base import available_backends, get_backend


class TestRegistry:
    def test_bundled_backends_registered(self):
        assert set(available_backends()) >= {"bitset", "dense", "setmatrix",
                                             "sparse"}

    def test_get_backend_by_name(self):
        assert get_backend("dense").name == "dense"

    def test_get_backend_passthrough(self):
        backend = get_backend("sparse")
        assert get_backend(backend) is backend

    def test_unknown_backend(self):
        with pytest.raises(UnknownBackendError) as excinfo:
            get_backend("gpu")
        assert "dense" in str(excinfo.value)

    def test_retired_pyset_is_unknown(self):
        with pytest.raises(UnknownBackendError):
            get_backend("pyset")


class TestBasics:
    def test_zeros(self, backend):
        matrix = backend.zeros(3)
        assert matrix.shape == (3, 3)
        assert matrix.nnz() == 0
        assert matrix.is_square

    def test_rectangular(self, backend):
        matrix = backend.zeros(2, 5)
        assert matrix.shape == (2, 5)
        assert not matrix.is_square

    def test_from_pairs_and_getitem(self, backend):
        matrix = backend.from_pairs(3, [(0, 1), (2, 2)])
        assert matrix[(0, 1)] and matrix[(2, 2)]
        assert not matrix[(1, 1)]
        assert matrix.nnz() == 2

    def test_nonzero_pairs(self, backend):
        pairs = {(0, 1), (1, 2), (2, 0)}
        matrix = backend.from_pairs(3, pairs)
        assert set(matrix.nonzero_pairs()) == pairs

    def test_identity(self, backend):
        matrix = backend.identity(4)
        assert matrix.to_pair_set() == {(i, i) for i in range(4)}

    @pytest.mark.parametrize("pair", [(-1, 0), (3, 0), (0, -2)])
    def test_from_pairs_rejects_pairs_outside_shape(self, backend, pair):
        with pytest.raises(ValueError):
            backend.from_pairs(3, [pair])

    @pytest.mark.parametrize("pair", [(2, 0), (0, 5), (-1, 4), (1, -1)])
    def test_from_pairs_rejects_pairs_outside_rectangular_shape(self, backend,
                                                                pair):
        # Rows are bounded by 2 and columns by 5, not the other way round.
        with pytest.raises(ValueError):
            backend.from_pairs(2, [pair], cols=5)

    def test_from_pairs_keeps_the_corner_cells(self, backend):
        matrix = backend.from_pairs(2, [(0, 0), (1, 4)], cols=5)
        assert matrix.shape == (2, 5)
        assert matrix.to_pair_set() == {(0, 0), (1, 4)}

    def test_transpose(self, backend):
        matrix = backend.from_pairs(3, [(0, 2), (1, 0)])
        assert matrix.transpose().to_pair_set() == {(2, 0), (0, 1)}


class TestAlgebra:
    def test_multiply_path_composition(self, backend):
        # edges 0->1, 1->2: the product holds exactly 0->2
        matrix = backend.from_pairs(3, [(0, 1), (1, 2)])
        product = matrix.multiply(matrix)
        assert product.to_pair_set() == {(0, 2)}

    def test_multiply_operator(self, backend):
        matrix = backend.from_pairs(2, [(0, 1)])
        assert (matrix @ matrix).nnz() == 0

    def test_union(self, backend):
        left = backend.from_pairs(2, [(0, 0)])
        right = backend.from_pairs(2, [(1, 1)])
        assert (left | right).to_pair_set() == {(0, 0), (1, 1)}

    def test_union_idempotent(self, backend):
        matrix = backend.from_pairs(2, [(0, 1)])
        assert matrix.union(matrix).same_pairs(matrix)

    def test_multiply_identity(self, backend):
        matrix = backend.from_pairs(3, [(0, 1), (2, 2)])
        identity = backend.identity(3)
        assert matrix.multiply(identity).same_pairs(matrix)
        assert identity.multiply(matrix).same_pairs(matrix)

    def test_rectangular_multiply(self, backend):
        left = backend.from_pairs(2, [(0, 0), (1, 2)], cols=3)
        right = backend.from_pairs(3, [(0, 1), (2, 0)], cols=2)
        product = left.multiply(right)
        assert product.shape == (2, 2)
        assert product.to_pair_set() == {(0, 1), (1, 0)}

    def test_shape_mismatch_union(self, backend):
        with pytest.raises(DimensionMismatchError):
            backend.zeros(2).union(backend.zeros(3))

    def test_shape_mismatch_multiply(self, backend):
        with pytest.raises(DimensionMismatchError):
            backend.zeros(2, 3).multiply(backend.zeros(2, 3))

    def test_dominates(self, backend):
        big = backend.from_pairs(2, [(0, 0), (0, 1)])
        small = backend.from_pairs(2, [(0, 0)])
        assert big.dominates(small)
        assert not small.dominates(big)

    def test_same_pairs(self, backend):
        a = backend.from_pairs(2, [(0, 1)])
        b = backend.from_pairs(2, [(0, 1)])
        c = backend.from_pairs(2, [(1, 0)])
        assert a.same_pairs(b)
        assert not a.same_pairs(c)


class TestCrossBackendMixing:
    """Operations accept matrices from other backends (conversion)."""

    def test_union_mixed(self):
        dense = get_backend("dense").from_pairs(2, [(0, 0)])
        sparse = get_backend("sparse").from_pairs(2, [(1, 1)])
        assert dense.union(sparse).to_pair_set() == {(0, 0), (1, 1)}

    def test_multiply_mixed(self):
        rowset = get_backend("setmatrix").from_pairs(2, [(0, 1)])
        dense = get_backend("dense").from_pairs(2, [(1, 0)])
        assert rowset.multiply(dense).to_pair_set() == {(0, 0)}


# ----------------------------------------------------------------------
# Property tests: all backends agree with the setmatrix specification.
# ----------------------------------------------------------------------

_SIZE = 5
pair_sets = st.sets(
    st.tuples(st.integers(0, _SIZE - 1), st.integers(0, _SIZE - 1)),
    max_size=12,
)


@given(left_pairs=pair_sets, right_pairs=pair_sets)
@settings(max_examples=100, deadline=None)
def test_backends_agree_on_multiply(left_pairs, right_pairs):
    reference = None
    for name in available_backends():
        backend = get_backend(name)
        left = backend.from_pairs(_SIZE, left_pairs)
        right = backend.from_pairs(_SIZE, right_pairs)
        result = left.multiply(right).to_pair_set()
        if reference is None:
            reference = result
        else:
            assert result == reference, f"{name} disagrees on multiply"


@given(left_pairs=pair_sets, right_pairs=pair_sets)
@settings(max_examples=100, deadline=None)
def test_backends_agree_on_union(left_pairs, right_pairs):
    expected = left_pairs | right_pairs
    for name in available_backends():
        backend = get_backend(name)
        left = backend.from_pairs(_SIZE, left_pairs)
        right = backend.from_pairs(_SIZE, right_pairs)
        assert left.union(right).to_pair_set() == expected


@given(pairs=pair_sets)
@settings(max_examples=50, deadline=None)
def test_transpose_involution(pairs):
    for name in available_backends():
        backend = get_backend(name)
        matrix = backend.from_pairs(_SIZE, pairs)
        assert matrix.transpose().transpose().to_pair_set() == pairs


@given(a=pair_sets, b=pair_sets, c=pair_sets)
@settings(max_examples=60, deadline=None)
def test_multiply_distributes_over_union(a, b, c):
    """(a ∪ b) × c == (a × c) ∪ (b × c) — the semiring law the closure
    correctness rests on."""
    backend = get_backend("setmatrix")
    ma = backend.from_pairs(_SIZE, a)
    mb = backend.from_pairs(_SIZE, b)
    mc = backend.from_pairs(_SIZE, c)
    left = ma.union(mb).multiply(mc).to_pair_set()
    right = ma.multiply(mc).union(mb.multiply(mc)).to_pair_set()
    assert left == right
