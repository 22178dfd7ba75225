"""Out-of-core differential tests: spilling must be invisible.

A closure run under a tiny memory budget — forcing tiles to shuttle
through the spill files constantly — must produce byte-identical
results to the unbounded in-memory run, across every strategy ×
backend combination and under the boolean and length semirings on
either cell layout.  These tests are the out-of-core analogue of
:mod:`tests.core.test_blocked`'s differentials.
"""

from __future__ import annotations

import pytest

from repro.core.closure import closure_blocked
from repro.core.matrix_cfpq import solve_matrix
from repro.core.semiring import (
    BOOLEAN_SEMIRING,
    LENGTH_SEMIRING,
    AnnotatedBackend,
    initial_annotated_matrices,
    merged_cells,
    solve_annotated,
)
from repro.matrices.base import available_backends

from test_semiring_differential import DICT_LENGTH, make_case

SEEDS = tuple(range(6))

#: One byte: every tile overflows it, so the working set lives on disk
#: and every operand read is a spill-file reload.
TINY_BUDGET = 1


@pytest.mark.parametrize("seed", SEEDS)
def test_tiny_budget_blocked_matches_oracle_all_backends(seed, tmp_path):
    graph, grammar = make_case(seed)
    oracle = solve_matrix(graph, grammar, normalize=False, strategy="naive")
    for backend in available_backends():
        result = solve_matrix(graph, grammar, backend=backend,
                              normalize=False, strategy="blocked",
                              tile_size=2, memory_budget=TINY_BUDGET,
                              spill_dir=str(tmp_path / backend))
        assert result.relations.same_as(oracle.relations), backend
        assert (result.stats.nnz_per_nonterminal
                == oracle.stats.nnz_per_nonterminal), backend
        stats = result.stats.details["blocked"]
        assert stats.budget_bytes == TINY_BUDGET, backend
        assert stats.tiles_spilled > 0, backend
        assert stats.tiles_reloaded > 0, backend


@pytest.mark.parametrize("tile_size", (1, 3, 8))
@pytest.mark.parametrize("seed", SEEDS[:3])
def test_tiny_budget_tile_edges_byte_identical(seed, tile_size, tmp_path):
    """Spilling composes with every tile edge: single-cell tiles, a
    ragged edge tile, and one tile larger than the graph."""
    pytest.importorskip("numpy")
    graph, grammar = make_case(seed)
    oracle = solve_matrix(graph, grammar, normalize=False, strategy="naive")
    result = solve_matrix(graph, grammar, backend="bitset",
                          normalize=False, strategy="blocked",
                          tile_size=tile_size, memory_budget=TINY_BUDGET,
                          spill_dir=str(tmp_path))
    assert result.relations.same_as(oracle.relations), tile_size
    assert (result.stats.nnz_per_nonterminal
            == oracle.stats.nnz_per_nonterminal), tile_size
    assert result.stats.details["blocked"].tiles_spilled > 0


@pytest.mark.parametrize("strategy", ("blocked",))
@pytest.mark.parametrize("seed", SEEDS[:3])
def test_tiny_budget_strategies_match(seed, strategy, tmp_path):
    pytest.importorskip("numpy")
    graph, grammar = make_case(seed)
    oracle = solve_matrix(graph, grammar, normalize=False, strategy="naive")
    result = solve_matrix(graph, grammar, backend="bitset",
                          normalize=False, strategy=strategy,
                          tile_size=2, memory_budget=TINY_BUDGET,
                          spill_dir=str(tmp_path))
    assert result.relations.same_as(oracle.relations), strategy


@pytest.mark.parametrize("strategy", ("naive", "delta", "blocked"))
@pytest.mark.parametrize("seed", SEEDS[:3])
def test_env_budget_reaches_blocked_only(seed, strategy, monkeypatch):
    """``$REPRO_MEMORY_BUDGET`` is set for every strategy in the budgeted
    runs: ``blocked`` spills under it, the in-core strategies ignore it,
    and all three answer the oracle."""
    pytest.importorskip("numpy")
    graph, grammar = make_case(seed)
    oracle = solve_matrix(graph, grammar, normalize=False, strategy="naive")
    monkeypatch.setenv("REPRO_MEMORY_BUDGET", str(TINY_BUDGET))
    tiles = {"tile_size": 2} if strategy == "blocked" else {}
    result = solve_matrix(graph, grammar, backend="bitset",
                          normalize=False, strategy=strategy, **tiles)
    assert result.relations.same_as(oracle.relations), strategy
    blocked = result.stats.details.get("blocked")
    if strategy == "blocked":
        assert blocked.budget_bytes == TINY_BUDGET
        assert blocked.tiles_spilled > 0
    else:
        assert blocked is None


@pytest.mark.parametrize("semiring",
                         (LENGTH_SEMIRING, BOOLEAN_SEMIRING, DICT_LENGTH),
                         ids=lambda s: s.name)
@pytest.mark.parametrize("seed", SEEDS[:3])
def test_tiny_budget_annotations_byte_identical(seed, semiring, tmp_path):
    """Annotations survive the pickle spill path (the annotated
    backend has no raw-buffer format) exactly, on either layout."""
    graph, grammar = make_case(seed)
    reference = solve_annotated(graph, grammar, semiring,
                                strategy="naive", normalize=False)
    spilled = solve_annotated(graph, grammar, semiring,
                              strategy="blocked", normalize=False,
                              tile_size=2, memory_budget=TINY_BUDGET,
                              spill_dir=str(tmp_path))
    assert spilled.cells() == reference.cells(), semiring.name


def test_tiny_budget_actually_spills(tmp_path):
    """Guard: the tiny budget really exercises the spill machinery
    (otherwise this whole module is vacuous)."""
    pytest.importorskip("numpy")
    graph, grammar = make_case(0)
    result = solve_matrix(graph, grammar, backend="bitset",
                          normalize=False, strategy="blocked",
                          tile_size=2, memory_budget=TINY_BUDGET,
                          spill_dir=str(tmp_path))
    stats = result.stats.details["blocked"]
    assert stats.tiles_spilled > 0
    assert stats.tiles_reloaded > 0
    assert stats.spill_bytes > 0
    assert stats.budget_bytes == TINY_BUDGET


def test_spill_dir_cleaned_up_on_success(tmp_path):
    """The closure owns its store: tile files are removed when the run
    succeeds (the caller-provided directory itself survives)."""
    pytest.importorskip("numpy")
    graph, grammar = make_case(0)
    solve_matrix(graph, grammar, backend="bitset", normalize=False,
                 strategy="blocked", tile_size=2,
                 memory_budget=TINY_BUDGET, spill_dir=str(tmp_path))
    assert not list(tmp_path.iterdir())


def test_length_semiring_budget_spills_on_measured_bytes(tmp_path):
    """The array-native length tiles are budgeted by their arrays' real
    bytes (16 per cell), not a per-cell guess: a third of the unbounded
    peak forces spilling, stays ``within_budget`` by the store's own
    accounting, and closes to the unbounded answer."""
    np = pytest.importorskip("numpy")
    from repro.core.tilestore import TileStore, matrix_nbytes
    from repro.graph.generators import random_graph

    from test_semiring_differential import make_case

    _graph, grammar = make_case(2)
    graph = random_graph(24, 70, ["a", "b"], seed=5)

    def closed(store):
        # ``tile_store`` is a parameter of closure_blocked, not a closure
        # option: the annotated closure is set up and run directly.
        backend = AnnotatedBackend(LENGTH_SEMIRING, graph.edge_count)
        matrices = initial_annotated_matrices(graph, grammar,
                                              LENGTH_SEMIRING, backend)
        rules = [(rule.head, *rule.body) for rule in grammar.binary_rules]
        return closure_blocked(matrices, rules, backend, tile_size=4,
                               tile_store=store)

    unbounded_store = TileStore()
    unbounded = closed(unbounded_store)
    for matrix in unbounded.matrices.values():
        assert matrix_nbytes(matrix) == matrix.nnz() * (
            np.dtype("int64").itemsize * 2)
    peak = unbounded_store.stats.peak_resident_bytes
    unbounded_store.close()
    assert peak > 0

    budget = peak // 3
    store = TileStore(budget_bytes=budget, spill_dir=str(tmp_path))
    try:
        bounded = closed(store)
        stats = store.stats
        assert stats.tiles_spilled > 0 and stats.tiles_reloaded > 0
        assert stats.peak_resident_bytes <= budget  # within_budget
    finally:
        store.close()
    assert merged_cells(bounded.matrices) == merged_cells(unbounded.matrices)
    assert bounded.multiplications == unbounded.multiplications
