"""Tests for the tiling hooks under the blocked closure (§7 future
work); the engine itself is covered by ``test_closure_strategies`` and
``test_tile_scheduler``."""

import pytest


class TestTiling:
    def test_split_round_trip(self, backend):
        matrix = backend.from_pairs(7, [(0, 6), (3, 3), (6, 0), (5, 2)])
        tiles = backend.split_into_tiles(matrix, 3)
        assert len(tiles) == 9  # ceil(7/3)² = 3²
        back = backend.assemble_from_tiles(tiles, 7, 3)
        assert back.same_pairs(matrix)

    def test_tiles_are_uniform_size(self, backend):
        tiles = backend.split_into_tiles(backend.from_pairs(5, [(4, 4)]), 2)
        assert all(tile.shape == (2, 2) for tile in tiles.values())

    def test_invalid_tile_size(self, backend):
        with pytest.raises(ValueError):
            backend.split_into_tiles(backend.zeros(4), 0)
