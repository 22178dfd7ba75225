"""Tests for the blocked tile engine (§7 future work): the tiling hooks
it runs on, and the engine itself against the ``naive`` oracle.

The blocked strategy must be a pure implementation detail: whatever
tile edge it picks, the closure — boolean relations and length
annotations on either cell layout alike — must be byte-identical to the
``naive`` oracle.  The differentials reuse the deterministic random
cases of the semiring differential harness
(:mod:`tests.core.test_semiring_differential`).
"""

from __future__ import annotations

import math
import random

import pytest

from repro.core.closure import closure_blocked, run_closure
from repro.core.matrix_cfpq import solve_matrix
from repro.core.semiring import (
    BOOLEAN_SEMIRING,
    LENGTH_SEMIRING,
    solve_annotated,
)
from repro.core.tilestore import matrix_from_payload, tile_payload_of
from repro.matrices.base import available_backends, get_backend

from test_semiring_differential import DICT_LENGTH, make_case

SEEDS = tuple(range(6))

#: Tile edges for the differentials (the random cases have 2–5 nodes):
#: one cell per tile, the even split, a ragged edge tile on most
#: graphs, and a single tile larger than every graph.
TILE_EDGES = (1, 2, 3, 8)


class TestTiling:
    def test_split_round_trip(self, backend):
        matrix = backend.from_pairs(7, [(0, 6), (3, 3), (6, 0), (5, 2)])
        tiles = backend.split_into_tiles(matrix, 3)
        assert len(tiles) == 9  # ceil(7/3)² = 3²
        back = backend.assemble_from_tile_iter(tiles.items(), 7, 3)
        assert back.same_pairs(matrix)

    def test_tiles_are_uniform_size(self, backend):
        tiles = backend.split_into_tiles(backend.from_pairs(5, [(4, 4)]), 2)
        assert all(tile.shape == (2, 2) for tile in tiles.values())

    def test_invalid_tile_size(self, backend):
        with pytest.raises(ValueError):
            backend.split_into_tiles(backend.zeros(4), 0)


# ----------------------------------------------------------------------
# Payload round-trips (the spill and snapshot codec)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("backend_name", available_backends())
def test_payload_round_trip(backend_name):
    backend = get_backend(backend_name)
    matrix = backend.from_pairs(7, [(0, 6), (3, 3), (6, 0), (5, 2)], cols=9)
    payload = tile_payload_of(matrix)
    assert isinstance(payload, tuple)
    rebuilt = matrix_from_payload(payload)
    assert rebuilt.shape == matrix.shape
    assert rebuilt.same_pairs(matrix)


def test_sparse_payload_is_canonical():
    """Equal matrices encode to equal bytes: CSR column order follows
    the operations that produced the matrix, the payload must not."""
    sp = pytest.importorskip("scipy.sparse")
    import numpy as np

    from repro.matrices.sparse import SparseMatrix

    backend = get_backend("sparse")
    data = np.ones(3, dtype=bool)
    indptr = np.array([0, 3, 3])
    ascending = sp.csr_matrix((data, np.array([0, 2, 4]), indptr),
                              shape=(2, 5))
    shuffled = sp.csr_matrix((data, np.array([4, 0, 2]), indptr),
                             shape=(2, 5))
    assert not shuffled.has_sorted_indices
    payload = backend.tile_payload(SparseMatrix(shuffled))
    assert payload == backend.tile_payload(SparseMatrix(ascending))
    assert not shuffled.has_sorted_indices  # encoded from a sorted copy
    assert matrix_from_payload(payload).to_pair_set() \
        == {(0, 0), (0, 2), (0, 4)}


def test_annotated_payload_round_trip():
    graph, grammar = make_case(0)
    result = solve_annotated(graph, grammar, LENGTH_SEMIRING,
                             normalize=False)
    for matrix in result.matrices.values():
        rebuilt = matrix_from_payload(tile_payload_of(matrix))
        assert rebuilt.same_pairs(matrix)
        assert {(i, j): v for i, j, v in rebuilt.nonzero_cells()} == \
            {(i, j): v for i, j, v in matrix.nonzero_cells()}


# ----------------------------------------------------------------------
# Blocked × backend × semiring differential
# ----------------------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("tile_size", TILE_EDGES)
def test_blocked_byte_identical_boolean(seed, tile_size):
    """Every backend's blocked run equals the naive oracle."""
    graph, grammar = make_case(seed)
    oracle = solve_matrix(graph, grammar, normalize=False, strategy="naive")
    for backend in available_backends():
        result = solve_matrix(graph, grammar, backend=backend,
                              normalize=False, strategy="blocked",
                              tile_size=tile_size)
        assert result.relations.same_as(oracle.relations), backend
        assert (result.stats.nnz_per_nonterminal
                == oracle.stats.nnz_per_nonterminal), backend
        assert result.stats.details["blocked"].tile_size == tile_size


@pytest.mark.parametrize("seed", SEEDS[:4])
@pytest.mark.parametrize("tile_size", TILE_EDGES)
def test_blocked_byte_identical_annotations(seed, tile_size):
    """Annotations survive tiling exactly, for array tiles and for dict
    tiles whose min-plus refinements cross tiles."""
    graph, grammar = make_case(seed)
    for semiring in (LENGTH_SEMIRING, BOOLEAN_SEMIRING, DICT_LENGTH):
        reference = solve_annotated(graph, grammar, semiring,
                                    strategy="naive", normalize=False)
        tiled = solve_annotated(graph, grammar, semiring,
                                strategy="blocked", normalize=False,
                                tile_size=tile_size)
        assert tiled.cells() == reference.cells(), semiring.name


@pytest.mark.parametrize("seed", SEEDS)
def test_blocked_independent_of_rule_order(seed):
    """Groups are computed and merged in canonical key order, so any
    permutation of the rule list yields the identical closure, tile
    products and per-round growth.  Dyck-1 has three rules sharing the
    head ``S``, so their products merge into the same output tiles."""
    from repro.core.matrix_cfpq import initial_boolean_matrices
    from repro.grammar.builders import get_grammar
    from repro.grammar.cnf import to_cnf
    from repro.graph.generators import random_graph

    graph = random_graph(9, 24, ["a", "b"], seed=seed)
    grammar = to_cnf(get_grammar("dyck1"))
    backend = get_backend("setmatrix")
    rules = [(rule.head, *rule.body) for rule in grammar.binary_rules]

    def close(rule_order):
        matrices = initial_boolean_matrices(graph, grammar, backend)
        return run_closure(matrices, rule_order, backend,
                           strategy="blocked", tile_size=2)

    reference = close(rules)
    assert reference.multiplications > 0
    for shuffle_seed in range(3):
        shuffled = list(rules)
        random.Random(shuffle_seed).shuffle(shuffled)
        result = close(shuffled)
        for symbol, matrix in reference.matrices.items():
            assert result.matrices[symbol].same_pairs(matrix), shuffle_seed
        assert result.multiplications == reference.multiplications
        assert result.iterations == reference.iterations
        assert result.delta_nnz_per_round == reference.delta_nnz_per_round


# ----------------------------------------------------------------------
# Tile edge: one rule, picked from the budget
# ----------------------------------------------------------------------

def _funding_q1():
    """Funding × Q1 on the bitset backend, whose measured bytes per cell
    make a budget that spills still fit 16 tiles of 128."""
    pytest.importorskip("numpy")
    from repro.core.matrix_cfpq import initial_boolean_matrices
    from repro.datasets.registry import build_graph
    from repro.grammar.builders import same_generation_query1
    from repro.grammar.cnf import to_cnf

    grammar = to_cnf(same_generation_query1())
    backend = get_backend("bitset")
    matrices = initial_boolean_matrices(build_graph("funding"), grammar,
                                        backend)
    rules = [(rule.head, *rule.body) for rule in grammar.binary_rules]
    return matrices, rules, backend


def _budget_fitting_16_tiles_at(edge: int, matrices: dict) -> int:
    """A budget that holds 16 tiles of *edge* at the matrices' measured
    bytes per cell — and so not 16 tiles of any larger edge."""
    from repro.core.tilestore import matrix_nbytes

    size = next(iter(matrices.values())).shape[0]
    total = sum(matrix_nbytes(matrix) for matrix in matrices.values())
    bytes_per_cell = max(total / (len(matrices) * size * size), 0.125)
    return math.ceil(16 * bytes_per_cell * edge * edge)


def test_blocked_default_tile_size_is_picked_from_the_budget():
    """Without ``tile_size`` the blocked engine takes the largest edge
    whose 16-tile working set fits: 512 unbounded on funding, a smaller
    edge under a budget that 16 tiles of 512 overflow."""
    matrices, rules, backend = _funding_q1()
    unbounded = run_closure(matrices, rules, backend, strategy="blocked")
    assert unbounded.details["blocked"].tile_size == 512

    for edge, grid in ((256, 3), (128, 5)):  # ceil(598 / edge)
        matrices, rules, backend = _funding_q1()
        budget = _budget_fitting_16_tiles_at(edge, matrices)
        bounded = run_closure(matrices, rules, backend, strategy="blocked",
                              memory_budget=budget)
        stats = bounded.details["blocked"]
        assert stats.tile_size == edge
        assert stats.grid == grid
        assert stats.budget_bytes == budget
        for symbol, matrix in bounded.matrices.items():
            assert matrix.same_pairs(unbounded.matrices[symbol]), symbol


@pytest.mark.parametrize("tile_size", (0, -3))
def test_blocked_rejects_nonpositive_tile_size(tile_size):
    graph, grammar = make_case(0)
    with pytest.raises(ValueError, match="tile_size"):
        solve_matrix(graph, grammar, normalize=False, strategy="blocked",
                     tile_size=tile_size, memory_budget=1)


# ----------------------------------------------------------------------
# Frontier accounting
# ----------------------------------------------------------------------

def _all_tiles(graph, grammar, tile_size, backend=None):
    """The blocked closure with its frontier off — every tile product
    every round — as relations and stats.  ``frontier`` is a parameter
    of :func:`closure_blocked`, not a closure option, so this calls it
    directly."""
    from repro.core.matrix_cfpq import initial_boolean_matrices
    from repro.core.relations import ContextFreeRelations

    backend = get_backend(backend)
    matrices = initial_boolean_matrices(graph, grammar, backend)
    rules = [(rule.head, *rule.body) for rule in grammar.binary_rules]
    result = closure_blocked(matrices, rules, backend, tile_size=tile_size,
                             frontier=False)
    return (ContextFreeRelations(graph, result.matrices),
            result.details["blocked"])


@pytest.mark.parametrize("seed", SEEDS)
def test_frontier_accounting_exact(seed):
    """products(frontier) + skipped(frontier) == products(all-tiles),
    with identical closures — the frontier only removes provably
    redundant work."""
    graph, grammar = make_case(seed)
    frontier = solve_matrix(graph, grammar, normalize=False,
                            strategy="blocked", tile_size=2)
    full, ns = _all_tiles(graph, grammar, tile_size=2)
    assert frontier.relations.same_as(full)
    fs = frontier.stats.details["blocked"]
    assert fs.tiles_skipped_by_frontier == 0 or \
        fs.tile_products < ns.tile_products
    assert fs.tile_products + fs.tiles_skipped_by_frontier \
        == ns.tile_products
    assert ns.tiles_skipped_by_frontier == 0


def test_frontier_strictly_fewer_tiles_on_funding_x8():
    """The acceptance workload: on funding×8 (the paper's g1) the
    frontier-aware engine must multiply strictly fewer tiles than the
    all-tiles-every-round blocked loop, for the same answer."""
    from repro.datasets.registry import build_graph
    from repro.grammar.builders import same_generation_query1
    from repro.grammar.cnf import to_cnf
    from repro.graph.generators import repeat_graph

    grammar = to_cnf(same_generation_query1())
    graph = repeat_graph(build_graph("funding"), 8)
    frontier = solve_matrix(graph, grammar, backend="bitset",
                            normalize=False, strategy="blocked",
                            tile_size=256)
    full, ns = _all_tiles(graph, grammar, tile_size=256, backend="bitset")
    assert frontier.relations.same_as(full)
    fs = frontier.stats.details["blocked"]
    assert fs.tile_products < ns.tile_products
    assert fs.tiles_skipped_by_frontier > 0
    assert fs.tile_products + fs.tiles_skipped_by_frontier \
        == ns.tile_products


# ----------------------------------------------------------------------
# Stats surface
# ----------------------------------------------------------------------

def test_blocked_stats_expose_wall_time():
    graph, grammar = make_case(1)
    result = solve_matrix(graph, grammar, normalize=False,
                          strategy="blocked", tile_size=2)
    stats = result.stats.details["blocked"]
    assert stats.tile_size == 2
    assert stats.scheduler_wall_time_s >= 0.0
    rendered = stats.as_dict()
    assert rendered["tiles_skipped_by_frontier"] == \
        stats.tiles_skipped_by_frontier
    assert rendered["scheduler_wall_time_s"] == stats.scheduler_wall_time_s


def test_run_closure_empty_matrices_blocked():
    result = run_closure({}, [], "setmatrix", strategy="blocked")
    assert result.iterations == 0
    assert result.multiplications == 0
