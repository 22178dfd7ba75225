"""Property tests for the mutable kernel API.

Contracts under test, for every registered backend:

* ``union_update`` mutates the target to the union and returns
  **exactly** the genuinely-new entries (the semi-naive frontier);
* each kernel accepts an operand from any other backend, and every
  abstract kernel is mandatory (no generic fallback stands behind it).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DimensionMismatchError
from repro.matrices.base import BooleanMatrix, available_backends, get_backend

_SIZE = 5
pair_sets = st.sets(
    st.tuples(st.integers(0, _SIZE - 1), st.integers(0, _SIZE - 1)),
    max_size=12,
)


@given(target_pairs=pair_sets, other_pairs=pair_sets)
@settings(max_examples=100, deadline=None)
def test_union_update_returns_exact_delta(target_pairs, other_pairs):
    for name in available_backends():
        backend = get_backend(name)
        target = backend.from_pairs(_SIZE, target_pairs)
        other = backend.from_pairs(_SIZE, other_pairs)
        merged, delta = backend.union_update(target, other)
        assert merged is target, f"{name} did not merge in place"
        assert delta.to_pair_set() == other_pairs - target_pairs, name
        assert merged.to_pair_set() == target_pairs | other_pairs, name
        # The source operand must be untouched.
        assert other.to_pair_set() == other_pairs, name


@given(pairs=pair_sets)
@settings(max_examples=50, deadline=None)
def test_clone_is_independent(pairs):
    for name in available_backends():
        backend = get_backend(name)
        original = backend.from_pairs(_SIZE, pairs)
        copy = backend.clone(original)
        assert copy.to_pair_set() == frozenset(pairs), name
        backend.union_update(copy, backend.from_pairs(_SIZE, [(0, 0), (4, 4)]))
        assert original.to_pair_set() == frozenset(pairs), (
            f"{name} clone shares storage"
        )


@pytest.mark.parametrize("name", available_backends())
def test_union_update_self_is_empty_delta(name):
    backend = get_backend(name)
    matrix = backend.from_pairs(_SIZE, [(0, 1), (2, 3)])
    merged, delta = backend.union_update(matrix, matrix)
    assert delta.nnz() == 0
    assert merged.to_pair_set() == {(0, 1), (2, 3)}


@pytest.mark.parametrize("name", available_backends())
def test_union_update_shape_mismatch(name):
    backend = get_backend(name)
    with pytest.raises(DimensionMismatchError):
        backend.union_update(backend.zeros(2), backend.zeros(3))


@pytest.mark.parametrize("name", available_backends())
def test_union_update_with_own_product(name):
    """The closure step ``R ← R ∪ R×R``: the product is computed
    before the target is mutated, so merging it into an operand of the
    product is safe."""
    backend = get_backend(name)
    # chain 0->1->2->3 squared into itself: adds the distance-2 pairs.
    matrix = backend.from_pairs(4, [(0, 1), (1, 2), (2, 3)])
    merged, delta = backend.union_update(matrix, matrix.multiply(matrix))
    assert merged is matrix
    assert merged.to_pair_set() == {(0, 1), (1, 2), (2, 3), (0, 2), (1, 3)}
    assert delta.to_pair_set() == {(0, 2), (1, 3)}


@pytest.mark.parametrize("kernel", sorted(BooleanMatrix.__abstractmethods__))
def test_every_abstract_kernel_is_required(kernel):
    """A matrix type that leaves any abstract method out cannot be
    built: there is no generic fallback behind ``union_update`` (or
    any other kernel)."""
    namespace = {name: (lambda self, *args: None)
                 for name in BooleanMatrix.__abstractmethods__
                 if name != kernel}
    namespace["backend_name"] = "incomplete"
    incomplete = type("Incomplete", (BooleanMatrix,), namespace)
    with pytest.raises(TypeError, match=kernel):
        incomplete()


# ----------------------------------------------------------------------
# Operands from another backend: each kernel reads the other matrix
# through its coordinates, so every (target, operand) backend pair works.
# ----------------------------------------------------------------------

_TARGET = [(0, 1), (1, 2), (3, 3)]
_OPERAND = [(1, 2), (2, 0), (3, 4)]


@pytest.mark.parametrize("operand_name", available_backends())
@pytest.mark.parametrize("target_name", available_backends())
def test_union_update_merges_other_backend_in_place(target_name,
                                                   operand_name):
    backend = get_backend(target_name)
    target = backend.from_pairs(_SIZE, _TARGET)
    operand = get_backend(operand_name).from_pairs(_SIZE, _OPERAND)
    merged, delta = backend.union_update(target, operand)
    assert merged is target
    assert merged.backend_name == target_name
    assert merged.to_pair_set() == set(_TARGET) | set(_OPERAND)
    assert delta.to_pair_set() == {(2, 0), (3, 4)}
    assert operand.to_pair_set() == set(_OPERAND)


# ----------------------------------------------------------------------
# Rectangular operands: the kernels keep the shape and check it.
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", available_backends())
def test_union_update_rectangular(name):
    backend = get_backend(name)
    target = backend.from_pairs(2, [(0, 4)], cols=5)
    other = backend.from_pairs(2, [(0, 4), (1, 0)], cols=5)
    merged, delta = backend.union_update(target, other)
    assert merged.shape == delta.shape == (2, 5)
    assert merged.to_pair_set() == {(0, 4), (1, 0)}
    assert delta.to_pair_set() == {(1, 0)}


@pytest.mark.parametrize("name", available_backends())
def test_union_update_transposed_shape_mismatch(name):
    backend = get_backend(name)
    with pytest.raises(DimensionMismatchError):
        backend.union_update(backend.zeros(2, 5), backend.zeros(5, 2))
