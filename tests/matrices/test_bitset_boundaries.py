"""Word-boundary tests for the bit-packed backend.

The bitset backend packs 64 columns per uint64 word; sizes at and
around the word boundary (63/64/65, 127/128/129) are where packing
bugs live, so they get dedicated coverage beyond the generic
backend-parametrized suite (which uses small matrices).
"""

import pytest

from repro.core.transitive_closure import boolean_closure_naive
from repro.matrices.base import get_backend

BOUNDARY_SIZES = [1, 63, 64, 65, 127, 128, 130]


@pytest.fixture
def bitset():
    return get_backend("bitset")


@pytest.fixture
def rowset():
    return get_backend("setmatrix")


@pytest.mark.parametrize("size", BOUNDARY_SIZES)
def test_corner_cells_round_trip(bitset, size):
    corners = {(0, 0), (0, size - 1), (size - 1, 0), (size - 1, size - 1)}
    matrix = bitset.from_pairs(size, corners)
    assert matrix.to_pair_set() == corners
    assert matrix.nnz() == len(corners)
    for pair in corners:
        assert matrix[pair]


@pytest.mark.parametrize("size", BOUNDARY_SIZES)
def test_identity_multiply_at_boundaries(bitset, size):
    identity = bitset.identity(size)
    diagonal_shifted = bitset.from_pairs(
        size, [(i, (i + 1) % size) for i in range(size)]
    )
    product = diagonal_shifted.multiply(identity)
    assert product.same_pairs(diagonal_shifted)


@pytest.mark.parametrize("size", [63, 64, 65, 128])
def test_multiply_across_word_boundary(bitset, rowset, size):
    """Entries on both sides of the 64-column split must compose."""
    pairs_left = {(0, 62), (0, 1)}
    pairs_right = {(62, 5), (1, 8)}
    if size > 63:
        pairs_left.add((0, 63))
        pairs_right.add((63, 6))
    if size > 64:
        pairs_left.add((0, size - 1))
        pairs_right.add((size - 1, 7))
    bit_product = (bitset.from_pairs(size, pairs_left)
                   .multiply(bitset.from_pairs(size, pairs_right)))
    ref_product = (rowset.from_pairs(size, pairs_left)
                   .multiply(rowset.from_pairs(size, pairs_right)))
    assert bit_product.to_pair_set() == ref_product.to_pair_set()


def test_rectangular_padding_isolated(bitset):
    """Padding bits beyond the logical column count must never leak
    into products (a 70-column matrix uses two words, 58 bits padding)."""
    left = bitset.from_pairs(2, [(0, 69)], cols=70)
    right = bitset.from_pairs(70, [(69, 1)], cols=2)
    assert left.multiply(right).to_pair_set() == {(0, 1)}


def test_transpose_at_boundary(bitset):
    pairs = {(0, 63), (63, 0), (64, 65), (65, 64)}
    matrix = bitset.from_pairs(66, pairs)
    assert matrix.transpose().to_pair_set() == {(j, i) for i, j in pairs}


def test_closure_on_long_cycle(bitset):
    """A 100-node cycle closes to the complete relation — exercises
    repeated cross-word products."""
    matrix = bitset.from_pairs(100, [(i, (i + 1) % 100) for i in range(100)])
    closed = boolean_closure_naive(matrix)
    assert closed.nnz() == 100 * 100


def test_nnz_popcount_large(bitset):
    pairs = {(i, (i * 37) % 200) for i in range(200)}
    assert bitset.from_pairs(200, pairs).nnz() == len(pairs)


def test_out_of_range_pair_rejected(bitset):
    with pytest.raises(ValueError):
        bitset.from_pairs(4, [(0, 4)])


# ----------------------------------------------------------------------
# Spill/mmap round-trips at word boundaries
# ----------------------------------------------------------------------
# The tile store spills bitset tiles as raw word buffers and reloads
# them through a private mmap; widths not divisible by 64 are where a
# sliced or mis-sized buffer would corrupt the pad bits.

def _dense_boundary_pairs(size):
    """Every cell of the last column plus a diagonal — touches the
    highest bit of the last word in every row."""
    pairs = {(i, size - 1) for i in range(size)}
    pairs.update((i, i) for i in range(size))
    return pairs


@pytest.mark.parametrize("size", BOUNDARY_SIZES)
def test_spill_reload_round_trip_at_boundaries(bitset, size, tmp_path):
    from repro.core.tilestore import TileStore

    pairs = _dense_boundary_pairs(size)
    store = TileStore(budget_bytes=1, spill_dir=str(tmp_path))
    store.put(("A", 0, 0), bitset.from_pairs(size, pairs))
    store.put(("B", 0, 0), bitset.identity(size))  # evicts A to disk
    reloaded = store.get(("A", 0, 0))
    assert reloaded.to_pair_set() == pairs
    assert reloaded.nnz() == len(pairs)
    store.close()


@pytest.mark.parametrize("size", [63, 65, 127, 130])
def test_pad_words_stay_zero_after_reload(bitset, size, tmp_path):
    """The mmap reload must hand back the exact word buffer: the pad
    bits beyond the logical column count stay zero, so popcounts and
    products after a reload match the never-spilled matrix."""
    import numpy as np

    from repro.core.tilestore import TileStore

    pairs = _dense_boundary_pairs(size)
    store = TileStore(budget_bytes=1, spill_dir=str(tmp_path))
    store.put(("A", 0, 0), bitset.from_pairs(size, pairs))
    store.put(("B", 0, 0), bitset.identity(size))
    reloaded = store.get(("A", 0, 0))
    words = reloaded._words  # the packed uint64 buffer
    pad_bits = -size % 64
    pad_mask = np.uint64(((1 << pad_bits) - 1) << (size % 64))
    assert not np.any(words[:, -1] & pad_mask)
    # A product through the reloaded matrix must not see pad columns.
    product = reloaded.multiply(bitset.identity(size))
    assert product.to_pair_set() == pairs
    store.close()


@pytest.mark.parametrize("size", [63, 65, 130])
def test_mutation_after_reload_stays_private(bitset, size, tmp_path):
    """ACCESS_COPY semantics: writing into a reloaded matrix must not
    corrupt the spill file that later reloads read."""
    from repro.core.tilestore import TileStore

    pairs = {(0, size - 1)}
    store = TileStore(budget_bytes=1, spill_dir=str(tmp_path))
    store.put(("A", 0, 0), bitset.from_pairs(size, pairs))
    store.put(("B", 0, 0), bitset.identity(size))  # spill A
    first = store.get(("A", 0, 0))
    first.union_update(bitset.from_pairs(size, [(size - 1, 0)]))
    store.put(("C", 0, 0), bitset.identity(size))  # evict A again
    # A was never marked changed, so its spill file is authoritative.
    assert store.get(("A", 0, 0)).to_pair_set() == pairs
    store.close()
