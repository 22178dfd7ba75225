"""Differential tests for the frontier-aware parallel tile engine.

The blocked strategy must be a pure implementation detail: whatever
scheduler executes the tile-task DAG (``serial`` in-process, ``threads``
pool, ``process`` pool with raw-buffer payloads) and whatever order the
tasks run in, the closure — boolean relations and length annotations
on either cell layout alike — must be byte-identical to the ``naive``
oracle.
These tests reuse the deterministic random cases of the semiring
differential harness (:mod:`tests.core.test_semiring_differential`).
"""

from __future__ import annotations

import random

import pytest

from repro.core.closure import run_closure
from repro.core.matrix_cfpq import solve_matrix
from repro.core.semiring import (
    BOOLEAN_SEMIRING,
    LENGTH_SEMIRING,
    solve_annotated,
)
from repro.core.tiles import (
    SCHEDULERS,
    available_schedulers,
    matrix_from_payload,
    resolve_scheduler,
    tile_payload_of,
)
from repro.errors import UnknownSchedulerError
from repro.matrices.base import available_backends, get_backend

from test_semiring_differential import DICT_LENGTH, make_case

SEEDS = tuple(range(6))


# ----------------------------------------------------------------------
# Registry / resolution
# ----------------------------------------------------------------------

class TestSchedulerRegistry:
    def test_bundled_schedulers_registered(self):
        assert set(SCHEDULERS) <= set(available_schedulers())

    def test_unknown_scheduler(self):
        with pytest.raises(UnknownSchedulerError) as excinfo:
            resolve_scheduler("gpu-cluster")
        assert "serial" in str(excinfo.value)

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCHEDULER", "threads")
        assert resolve_scheduler(None).name == "threads"
        monkeypatch.delenv("REPRO_SCHEDULER")
        assert resolve_scheduler(None).name == "serial"


# ----------------------------------------------------------------------
# Payload round-trips (the process scheduler's wire format)
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

    backend = get_backend("sparse")
    data = np.ones(3, dtype=bool)
    indptr = np.array([0, 3, 3])
    ascending = sp.csr_matrix((data, np.array([0, 2, 4]), indptr),
                              shape=(2, 5))
    shuffled = sp.csr_matrix((data, np.array([4, 0, 2]), indptr),
                             shape=(2, 5))
    assert not shuffled.has_sorted_indices
    payload = backend.tile_payload(backend.from_scipy(shuffled))
    assert payload == backend.tile_payload(backend.from_scipy(ascending))
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
# Scheduler × strategy × backend × semiring differential
# ----------------------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
def test_schedulers_byte_identical_boolean(seed):
    """Every (scheduler × backend) blocked run equals the naive oracle."""
    graph, grammar = make_case(seed)
    oracle = solve_matrix(graph, grammar, normalize=False, strategy="naive")
    for scheduler in SCHEDULERS:
        for backend in available_backends():
            result = solve_matrix(graph, grammar, backend=backend,
                                  normalize=False, strategy="blocked",
                                  tile_size=2, scheduler=scheduler)
            assert result.relations.same_as(oracle.relations), \
                (scheduler, backend)
            assert (result.stats.nnz_per_nonterminal
                    == oracle.stats.nnz_per_nonterminal), (scheduler, backend)


@pytest.mark.parametrize("seed", SEEDS[:4])
@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_schedulers_byte_identical_annotations(seed, scheduler):
    """Annotations survive every scheduler exactly — including the
    payload round trip of ``process``, for array tiles and for dict
    tiles whose min-plus refinements cross tiles."""
    graph, grammar = make_case(seed)
    for semiring in (LENGTH_SEMIRING, BOOLEAN_SEMIRING, DICT_LENGTH):
        reference = solve_annotated(graph, grammar, semiring,
                                    strategy="naive", normalize=False)
        tiled = solve_annotated(graph, grammar, semiring,
                                strategy="blocked", normalize=False,
                                tile_size=2, scheduler=scheduler)
        assert tiled.cells() == reference.cells(), (scheduler, semiring.name)


@pytest.mark.parametrize("seed", SEEDS[:4])
def test_autotune_matches_oracle(seed):
    graph, grammar = make_case(seed)
    oracle = solve_matrix(graph, grammar, normalize=False, strategy="naive")
    result = solve_matrix(graph, grammar, normalize=False,
                          strategy="autotune")
    assert result.relations.same_as(oracle.relations)
    assert result.stats.details["autotune"]["rounds"]


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_autotune_blocked_parallel_route(seed):
    """The scheduler route to the tile engine: with ``probe=False`` the
    configured parallel scheduler is trusted, and the result must still
    equal the oracle while recording the blocked-parallel decision."""
    graph, grammar = make_case(seed)
    oracle = solve_matrix(graph, grammar, normalize=False, strategy="naive")
    result = solve_matrix(graph, grammar, normalize=False,
                          strategy="autotune", scheduler="threads",
                          probe=False, tile_size=2)
    assert result.relations.same_as(oracle.relations)
    autotune = result.stats.details["autotune"]
    assert autotune["mode"] == "blocked-parallel"
    assert "threads" in autotune["reason"]
    assert result.stats.details["blocked"].scheduler == "threads"


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_autotune_spill_route(seed):
    """The budget route: a budget smaller than the measured matrices
    sends the run out-of-core, byte-identical, with spill accounting."""
    graph, grammar = make_case(seed)
    oracle = solve_matrix(graph, grammar, normalize=False, strategy="naive")
    result = solve_matrix(graph, grammar, normalize=False,
                          strategy="autotune", memory_budget=1,
                          tile_size=2)
    assert result.relations.same_as(oracle.relations)
    autotune = result.stats.details["autotune"]
    assert autotune["mode"] == "blocked-spill"
    assert autotune["budget_bytes"] == 1
    assert autotune["estimated_bytes"] > 1
    blocked = result.stats.details["blocked"]
    assert blocked.budget_bytes == 1
    assert blocked.tiles_spilled > 0
    assert blocked.tiles_reloaded > 0


def test_autotune_probe_records_measured_timings():
    """With a parallel scheduler configured and probing on, the decision
    carries the probe's measured wall times for both executors."""
    graph, grammar = make_case(2)
    oracle = solve_matrix(graph, grammar, normalize=False, strategy="naive")
    result = solve_matrix(graph, grammar, normalize=False,
                          strategy="autotune", scheduler="threads",
                          tile_size=2)
    assert result.relations.same_as(oracle.relations)
    autotune = result.stats.details["autotune"]
    if autotune["mode"] == "rounds":
        return  # probe measured serial faster — no timing surface
    probe = autotune["probe_seconds"]
    assert set(probe) == {"serial", "threads"}
    assert all(seconds >= 0.0 for seconds in probe.values())


def test_autotune_has_no_node_count_threshold():
    """The routing must be measurement-driven: no fixed node-count
    constant survives in the autotune strategy."""
    import inspect

    from repro.core import closure as closure_module

    source = inspect.getsource(closure_module.closure_autotune)
    assert "blocked_min_size" not in source
    assert not hasattr(closure_module, "AUTOTUNE_BLOCKED_MIN_SIZE")


# ----------------------------------------------------------------------
# Determinism under task-order shuffling
# ----------------------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
def test_closure_deterministic_under_task_shuffling(seed):
    """Merging happens in canonical key order, so any permutation of the
    scheduled task list yields the identical closure and stats."""
    graph, grammar = make_case(seed)
    reference = solve_matrix(graph, grammar, normalize=False,
                             strategy="blocked", tile_size=2)
    for shuffle_seed in range(3):
        rng = random.Random(shuffle_seed)

        def shuffled(groups):
            groups = list(groups)
            rng.shuffle(groups)
            return groups

        result = solve_matrix(graph, grammar, normalize=False,
                              strategy="blocked", tile_size=2,
                              task_order=shuffled)
        assert result.relations.same_as(reference.relations), shuffle_seed
        assert (result.stats.multiplications
                == reference.stats.multiplications), shuffle_seed
        assert (result.stats.delta_nnz_per_round
                == reference.stats.delta_nnz_per_round), shuffle_seed


# ----------------------------------------------------------------------
# Frontier accounting
# ----------------------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
def test_frontier_accounting_exact(seed):
    """products(frontier) + skipped(frontier) == products(all-tiles),
    with identical closures — the frontier only removes provably
    redundant work."""
    graph, grammar = make_case(seed)
    frontier = solve_matrix(graph, grammar, normalize=False,
                            strategy="blocked", tile_size=2)
    full = solve_matrix(graph, grammar, normalize=False,
                        strategy="blocked", tile_size=2, frontier=False)
    assert frontier.relations.same_as(full.relations)
    fs = frontier.stats.details["blocked"]
    ns = full.stats.details["blocked"]
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
    full = solve_matrix(graph, grammar, backend="bitset", normalize=False,
                        strategy="blocked", tile_size=256, frontier=False)
    assert frontier.relations.same_as(full.relations)
    fs = frontier.stats.details["blocked"]
    ns = full.stats.details["blocked"]
    assert fs.tile_products < ns.tile_products
    assert fs.tiles_skipped_by_frontier > 0
    assert fs.tile_products + fs.tiles_skipped_by_frontier \
        == ns.tile_products


# ----------------------------------------------------------------------
# Process-scheduler payload cache (re-serialization regression)
# ----------------------------------------------------------------------

def test_process_scheduler_payload_encodes_cached():
    """The version-keyed payload cache must stop the process scheduler
    from re-serializing unchanged tiles on every round: the encode count
    with the cache is strictly below the cache-disabled run, which
    encodes each operand tile once per group shipment.  Seed 6 is a
    multi-round case, so unchanged tiles get re-shipped across rounds."""
    graph, grammar = make_case(6)
    cached = solve_matrix(graph, grammar, backend="bitset",
                          normalize=False, strategy="blocked",
                          tile_size=2, scheduler="process")
    uncached = solve_matrix(graph, grammar, backend="bitset",
                            normalize=False, strategy="blocked",
                            tile_size=2, scheduler="process",
                            payload_cache=False)
    assert cached.relations.same_as(uncached.relations)
    cached_encodes = cached.stats.details["blocked"].payload_encodes
    uncached_encodes = uncached.stats.details["blocked"].payload_encodes
    assert cached_encodes > 0
    assert uncached_encodes > cached_encodes


# ----------------------------------------------------------------------
# Stats surface
# ----------------------------------------------------------------------

def test_blocked_stats_expose_scheduler_and_wall_time():
    graph, grammar = make_case(1)
    result = solve_matrix(graph, grammar, normalize=False,
                          strategy="blocked", tile_size=2,
                          scheduler="threads")
    stats = result.stats.details["blocked"]
    assert stats.scheduler == "threads"
    assert stats.scheduler_wall_time_s >= 0.0
    rendered = stats.as_dict()
    assert rendered["tiles_skipped_by_frontier"] == \
        stats.tiles_skipped_by_frontier
    assert rendered["scheduler"] == "threads"


def test_run_closure_empty_matrices_blocked():
    result = run_closure({}, [], "pyset", strategy="blocked")
    assert result.iterations == 0
    assert result.multiplications == 0
