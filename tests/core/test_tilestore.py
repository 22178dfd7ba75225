"""Unit tests for the spillable tile store (out-of-core working set).

Covers budget parsing, LRU spill/reload round-trips on both spill
formats (raw buffer + mmap for bitset/dense, pickle for the rest),
pinning, the spill-file lifecycle — and the out-of-core acceptance
property: a closure whose tiles exceed the budget completes with the
store's accounted peak resident bytes within the budget.
"""

import os

import pytest

from repro.core.tilestore import TileStore, matrix_nbytes, parse_memory_budget
from repro.matrices.base import available_backends, get_backend


# ----------------------------------------------------------------------
# Budget parsing
# ----------------------------------------------------------------------

@pytest.mark.parametrize("value,expected", [
    (None, None),
    ("", None),
    ("0", None),
    ("none", None),
    ("OFF", None),
    (0, None),
    (-5, None),
    (65536, 65536),
    (65536.0, 65536),
    ("65536", 65536),
    ("64K", 64 * 1024),
    ("64k", 64 * 1024),
    ("64KB", 64 * 1024),
    ("64KiB", 64 * 1024),
    ("8M", 8 * 1024 ** 2),
    ("1.5M", int(1.5 * 1024 ** 2)),
    ("1G", 1024 ** 3),
    ("2T", 2 * 1024 ** 4),
    ("512B", 512),
])
def test_parse_memory_budget(value, expected):
    assert parse_memory_budget(value) == expected


@pytest.mark.parametrize("value", ["64Q", "lots", "K64", "6 4K"])
def test_parse_memory_budget_rejects_garbage(value):
    with pytest.raises(ValueError):
        parse_memory_budget(value)


@pytest.mark.parametrize("backend_name", available_backends())
def test_matrix_nbytes_positive(backend_name):
    backend = get_backend(backend_name)
    matrix = backend.from_pairs(8, [(0, 1), (3, 7), (5, 5)])
    assert matrix_nbytes(matrix) > 0


# ----------------------------------------------------------------------
# Spill / reload round-trips
# ----------------------------------------------------------------------

def _sample_tiles(backend, count=6, size=8):
    tiles = {}
    for t in range(count):
        pairs = [((t + k) % size, (t * 3 + k) % size) for k in range(size)]
        tiles[("A", t, 0)] = backend.from_pairs(size, pairs)
    return tiles


@pytest.mark.parametrize("backend_name", available_backends())
def test_spill_reload_round_trip(backend_name, tmp_path):
    """Every backend round-trips through its spill format (raw buffer
    or pickle) byte-identically when evicted and reloaded."""
    backend = get_backend(backend_name)
    tiles = _sample_tiles(backend)
    one_tile = matrix_nbytes(next(iter(tiles.values())))
    store = TileStore(budget_bytes=2 * one_tile, spill_dir=str(tmp_path))
    for key, tile in tiles.items():
        store.put(key, tile)
    assert store.stats.tiles_spilled > 0
    for key, original in tiles.items():
        reloaded = store.get(key)
        assert reloaded.to_pair_set() == original.to_pair_set(), key
    assert store.stats.tiles_reloaded > 0
    store.close()


def test_zero_size_tile_spills_and_reloads(tmp_path):
    pytest.importorskip("numpy")
    backend = get_backend("bitset")
    store = TileStore(budget_bytes=1, spill_dir=str(tmp_path))
    store.put(("Z", 0, 0), backend.zeros(0))
    filler = backend.from_pairs(8, [(0, 1)])
    store.put(("F", 0, 0), filler)  # evicts the zero-size tile
    reloaded = store.get(("Z", 0, 0))
    assert reloaded.shape == (0, 0)
    store.close()


def test_reloaded_tile_is_mutable_and_private(tmp_path):
    """The mmap reload must hand back a writable matrix whose mutations
    never leak into later reloads (ACCESS_COPY semantics)."""
    pytest.importorskip("numpy")
    backend = get_backend("bitset")
    store = TileStore(budget_bytes=1, spill_dir=str(tmp_path))
    store.put(("A", 0, 0), backend.from_pairs(8, [(1, 2)]))
    store.put(("B", 0, 0), backend.from_pairs(8, [(3, 4)]))  # spills A
    first = store.get(("A", 0, 0))
    first.union_update(backend.from_pairs(8, [(7, 7)]))  # private mutation
    store.put(("B2", 0, 0), backend.from_pairs(8, [(5, 6)]))  # spills A again?
    # Drop and reload A without marking it changed: the spill file is
    # authoritative and must not contain the private mutation.
    store.discard(("A", 0, 0))
    store.put(("A", 0, 0), backend.from_pairs(8, [(1, 2)]))
    assert store.get(("A", 0, 0)).to_pair_set() == {(1, 2)}
    store.close()


# ----------------------------------------------------------------------
# Pinning and eviction
# ----------------------------------------------------------------------

def test_pinned_tiles_never_evicted(tmp_path):
    pytest.importorskip("numpy")
    backend = get_backend("bitset")
    tiles = _sample_tiles(backend)
    one_tile = matrix_nbytes(next(iter(tiles.values())))
    store = TileStore(budget_bytes=one_tile, spill_dir=str(tmp_path))
    pinned_key = ("A", 0, 0)
    store.put(pinned_key, tiles[pinned_key])
    with store.pinned([pinned_key]):
        for key, tile in tiles.items():
            if key != pinned_key:
                store.put(key, tile)
        # The pinned tile stayed resident through all the evictions.
        assert store.get(pinned_key).to_pair_set() \
            == tiles[pinned_key].to_pair_set()
        assert store.stats.tiles_reloaded == 0
    store.close()


def test_evict_to_budget_unbounded_is_a_noop(tmp_path):
    pytest.importorskip("numpy")
    backend = get_backend("dense")
    store = TileStore(budget_bytes=None, spill_dir=str(tmp_path))
    for key, tile in _sample_tiles(backend).items():
        store.put(key, tile)
    assert store.resident_bytes > 0
    store.evict_to_budget()  # unbounded: no-op
    assert store.resident_bytes > 0
    assert store.stats.tiles_spilled == 0
    store.close()


# ----------------------------------------------------------------------
# Spill-file lifecycle
# ----------------------------------------------------------------------

def test_close_removes_spill_files_and_owned_dir(tmp_path):
    pytest.importorskip("numpy")
    backend = get_backend("bitset")
    target = tmp_path / "spill"
    store = TileStore(budget_bytes=1, spill_dir=str(target))
    store.put(("A", 0, 0), backend.from_pairs(8, [(0, 1)]))
    store.put(("B", 0, 0), backend.from_pairs(8, [(1, 2)]))
    assert target.is_dir() and list(target.iterdir())
    store.close()
    assert not target.exists()  # store created it, store removes it


def test_close_keep_spill_preserves_files(tmp_path):
    pytest.importorskip("numpy")
    backend = get_backend("bitset")
    target = tmp_path / "spill"
    store = TileStore(budget_bytes=1, spill_dir=str(target))
    store.put(("A", 0, 0), backend.from_pairs(8, [(0, 1)]))
    store.put(("B", 0, 0), backend.from_pairs(8, [(1, 2)]))
    store.close(keep_spill=True)
    assert target.is_dir() and list(target.iterdir())  # crash post-mortem


def test_preexisting_spill_dir_not_removed(tmp_path):
    pytest.importorskip("numpy")
    backend = get_backend("bitset")
    store = TileStore(budget_bytes=1, spill_dir=str(tmp_path))
    store.put(("A", 0, 0), backend.from_pairs(8, [(0, 1)]))
    store.put(("B", 0, 0), backend.from_pairs(8, [(1, 2)]))
    store.close()
    assert tmp_path.is_dir()  # caller-owned directory survives
    assert not list(tmp_path.iterdir())  # but the tile files are gone


def test_discard_unlinks_spill_file(tmp_path):
    pytest.importorskip("numpy")
    backend = get_backend("bitset")
    store = TileStore(budget_bytes=1, spill_dir=str(tmp_path))
    store.put(("A", 0, 0), backend.from_pairs(8, [(0, 1)]))
    store.put(("B", 0, 0), backend.from_pairs(8, [(1, 2)]))
    assert len(list(tmp_path.iterdir())) == 1  # A's spill file
    store.discard(("A", 0, 0))
    assert len(list(tmp_path.iterdir())) == 0
    store.close()


def test_respill_unlinks_superseded_file(tmp_path):
    pytest.importorskip("numpy")
    backend = get_backend("bitset")
    store = TileStore(budget_bytes=1, spill_dir=str(tmp_path))
    store.put(("A", 0, 0), backend.from_pairs(8, [(0, 1)]))
    store.put(("B", 0, 0), backend.from_pairs(8, [(1, 2)]))  # spill A v1
    store.put(("A", 0, 0), backend.from_pairs(8, [(0, 1), (5, 5)]))
    store.put(("B", 0, 0), backend.from_pairs(8, [(1, 2)]),
              changed=False)  # spill A v2 (B is clean, its file is valid)
    files = sorted(os.path.basename(p) for p in
                   (str(f) for f in tmp_path.iterdir()))
    assert len(files) == 2  # one live file per spilled tile, no leaks
    assert store.get(("A", 0, 0)).to_pair_set() == {(0, 1), (5, 5)}
    store.close()


# ----------------------------------------------------------------------
# Out-of-core acceptance: peak resident bytes within budget
# ----------------------------------------------------------------------

def test_closure_peak_resident_within_budget():
    """The ISSUE's acceptance criterion: a closure whose tiles exceed
    the budget completes, stays within the budget by the store's own
    accounting, and is byte-identical to the unbounded run."""
    pytest.importorskip("numpy")
    import sys

    sys.path.insert(0, os.path.dirname(__file__))
    from test_semiring_differential import make_case

    from repro.core.matrix_cfpq import solve_matrix

    graph, grammar = make_case(1)
    unbounded = solve_matrix(graph, grammar, backend="bitset",
                             normalize=False, strategy="blocked",
                             tile_size=2)
    total = unbounded.stats.details["blocked"].peak_resident_bytes
    assert total > 0
    budget = max(total // 3, 200)  # force spilling, allow a working set
    bounded = solve_matrix(graph, grammar, backend="bitset",
                           normalize=False, strategy="blocked",
                           tile_size=2, memory_budget=budget)
    assert bounded.relations.same_as(unbounded.relations)
    stats = bounded.stats.details["blocked"]
    assert stats.budget_bytes == budget
    assert stats.tiles_spilled > 0
    assert stats.peak_resident_bytes <= budget
