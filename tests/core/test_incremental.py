"""Tests for incremental CFPQ under edge insertion and deletion.

Core invariant: after any interleaved insert/delete sequence the
incremental state (relations *and* single-path lengths) equals a
from-scratch solve on the final graph — checked across the closure
strategies and matrix backends of the initial solve, across batch sizes
of the one worklist that every update runs, and across grammar shapes.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import incremental as incremental_module
from repro.core.incremental import IncrementalCFPQ, IncrementalSinglePathCFPQ
from repro.core.matrix_cfpq import solve_matrix_relations
from repro.core.semiring import LENGTH_SEMIRING, solve_annotated
from repro.core.single_path import build_single_path_index
from repro.grammar.parser import parse_grammar
from repro.graph.generators import two_cycles, word_chain
from repro.graph.labeled_graph import LabeledGraph
from repro.matrices.base import default_backend


def _tiles(strategy: str) -> dict:
    """Two-cell tiles for ``blocked``, the one strategy that reads a
    tile option (the others refuse one)."""
    return {"tile_size": 2} if strategy == "blocked" else {}


#: Every closure strategy of the initial solve, ``blocked`` on
#: two-cell tiles, plus ``blocked`` under a one-byte budget, so that
#: solve also runs with every tile spilled.
STRATEGY_CASES = [pytest.param(strategy, _tiles(strategy), id=strategy)
                  for strategy in ("naive", "delta", "blocked")] + [
    pytest.param("blocked", {"tile_size": 2, "memory_budget": 1},
                 id="blocked-spilled"),
]


class TestBasics:
    def test_initial_solve_matches_batch(self, dyck_grammar):
        graph = two_cycles(2, 3)
        incremental = IncrementalCFPQ(graph, dyck_grammar)
        batch = solve_matrix_relations(graph, dyck_grammar)
        assert incremental.relations().same_as(batch)

    def test_default_backend_is_the_registry_default(self, dyck_grammar):
        incremental = IncrementalCFPQ(two_cycles(2, 3), dyck_grammar)
        assert incremental.backend == default_backend()

    def test_insertion_extends_relation(self, anbn_grammar):
        graph = word_chain(["a", "a", "b"])
        incremental = IncrementalCFPQ(graph, anbn_grammar)
        assert incremental.pairs("S") == {(1, 3)}
        new_facts = incremental.add_edge(3, "b", 4)
        assert new_facts > 0
        assert incremental.pairs("S") == {(1, 3), (0, 4)}

    def test_duplicate_edge_is_noop(self, anbn_grammar):
        graph = word_chain(["a", "b"])
        incremental = IncrementalCFPQ(graph, anbn_grammar)
        assert incremental.add_edge(0, "a", 1) == 0
        assert incremental.pairs("S") == {(0, 2)}

    def test_unlabeled_for_grammar_edge_adds_no_facts(self, anbn_grammar):
        graph = word_chain(["a", "b"])
        incremental = IncrementalCFPQ(graph, anbn_grammar)
        assert incremental.add_edge(0, "zzz", 2) == 0

    def test_new_nodes_via_insertion(self, anbn_grammar):
        incremental = IncrementalCFPQ(LabeledGraph(), anbn_grammar)
        incremental.add_edge("x", "a", "y")
        incremental.add_edge("y", "b", "z")
        assert incremental.relations().node_pairs("S") == {("x", "z")}

    def test_stats(self, anbn_grammar):
        incremental = IncrementalCFPQ(word_chain(["a", "b"]), anbn_grammar)
        incremental.add_edge(2, "a", 3)
        stats = incremental.stats
        assert stats["edge_insertions"] == 1
        assert stats["edge_removals"] == 0
        assert stats["total_facts"] >= 3
        assert set(stats) == {
            "edge_insertions", "edge_removals",
            "propagated_facts", "facts_removed", "total_facts"}


class TestCountContract:
    """Regression: both solvers return the number of *new facts*,
    including the seeded base facts (the base solver used to exclude
    them — 1 vs 2 for the same insertion on ``S -> x | S S``)."""

    GRAMMAR = "S -> x | S S"

    def _solvers(self):
        grammar = parse_grammar(self.GRAMMAR, terminals=["x"])
        graph = LabeledGraph.from_edges([], nodes=[0, 1, 2])
        return (
            IncrementalCFPQ(LabeledGraph.from_edges([], nodes=[0, 1, 2]),
                            grammar),
            IncrementalSinglePathCFPQ(graph, grammar),
        )

    def test_same_insertion_same_count(self):
        base, single = self._solvers()
        for edge in [(0, "x", 1), (1, "x", 2), (2, "x", 0), (0, "x", 1)]:
            assert base.add_edge(*edge) == single.add_edge(*edge), edge

    def test_count_includes_seeded_base_fact(self):
        base, _single = self._solvers()
        # First x-edge seeds exactly one S fact and derives nothing.
        assert base.add_edge(0, "x", 1) == 1

    def test_count_equals_fact_growth(self, dyck_grammar):
        incremental = IncrementalCFPQ(two_cycles(2, 3), dyck_grammar)
        for edge in [(0, "a", 3), (3, "b", 0), (1, "a", 1)]:
            before = incremental.stats["total_facts"]
            returned = incremental.add_edge(*edge)
            assert returned == incremental.stats["total_facts"] - before


class TestInsertionOrder:
    def test_facts_cascade_through_existing_structure(self, dyck_grammar):
        """Inserting the bridge edge last must still derive everything
        reachable through long compositions."""
        # a a [missing b] b : inserting the missing b completes two pairs
        graph = LabeledGraph.from_edges([
            (0, "a", 1), (1, "a", 2), (3, "b", 4),
        ])
        incremental = IncrementalCFPQ(graph, dyck_grammar)
        assert incremental.pairs("S") == frozenset()
        incremental.add_edge(2, "b", 3)
        assert incremental.pairs("S") == {(1, 3), (0, 4)}

    def test_edge_by_edge_equals_batch(self, dyck_grammar):
        target = two_cycles(2, 3)
        incremental = IncrementalCFPQ(LabeledGraph(), dyck_grammar)
        for node in target.nodes:
            incremental.graph.add_node(node)
        for source, label, destination in target.edges():
            incremental.add_edge(source, label, destination)
        batch = solve_matrix_relations(target, dyck_grammar)
        assert incremental.pairs("S") == batch.pairs("S")


class TestBatchInsert:
    """``add_edges`` with several new edges in one worklist run."""

    @pytest.mark.parametrize("strategy, options", STRATEGY_CASES)
    def test_batch_equals_scratch_across_strategies(self, dyck_grammar,
                                                    strategy, options):
        incremental = IncrementalCFPQ(two_cycles(2, 3), dyck_grammar,
                                      strategy=strategy, **options)
        batch = [(0, "a", 3), (3, "b", 4), (4, "a", 0), (1, "b", 1),
                 (2, "a", 2)]
        incremental.add_edges(batch)
        scratch = solve_matrix_relations(incremental.graph, dyck_grammar)
        assert incremental.relations().same_as(scratch), strategy

    def test_batch_equals_per_tuple(self, dyck_grammar, backend_name):
        edges = [(0, "a", 1), (1, "b", 2), (2, "a", 3), (3, "b", 0),
                 (0, "a", 4), (4, "b", 0)]
        batched = IncrementalCFPQ(two_cycles(2, 3), dyck_grammar,
                                  backend=backend_name)
        tupled = IncrementalCFPQ(two_cycles(2, 3), dyck_grammar)
        count_batch = batched.add_edges(edges)
        count_tuple = sum(tupled.add_edge(*edge) for edge in edges)
        assert count_batch == count_tuple
        assert batched.relations().same_as(tupled.relations())

    def test_batch_with_new_nodes_resizes(self, dyck_grammar):
        incremental = IncrementalCFPQ(word_chain(["a", "b"]), dyck_grammar)
        incremental.add_edges([
            ("p", "a", "q"), ("q", "b", "r"), (2, "a", "p"), ("r", "b", 0),
        ])
        scratch = solve_matrix_relations(incremental.graph, dyck_grammar)
        assert incremental.relations().same_as(scratch)

    def test_batch_duplicate_and_foreign_labels(self, anbn_grammar):
        incremental = IncrementalCFPQ(word_chain(["a", "b"]), anbn_grammar)
        assert incremental.add_edges([(0, "a", 1), (0, "zzz", 1)]) == 0

    def test_empty_batch(self, anbn_grammar):
        incremental = IncrementalCFPQ(word_chain(["a", "b"]), anbn_grammar)
        assert incremental.add_edges([]) == 0

    def test_single_path_batch_improves_lengths(self):
        grammar = parse_grammar("S -> a | a S", terminals=["a"])
        graph = word_chain(["a", "a", "a"])
        incremental = IncrementalSinglePathCFPQ(graph, grammar)
        assert incremental.length_of("S", 0, 3) == 3
        incremental.add_edges([(0, "a", 3), (3, "a", 1)])
        index = build_single_path_index(incremental.graph, grammar)
        assert incremental.length_of("S", 0, 3) == 1
        for (i, j), entries in index.cells.items():
            for nonterminal, length in entries.items():
                assert incremental.length_of(
                    nonterminal, incremental.graph.node_at(i),
                    incremental.graph.node_at(j)) == length


class TestDeletion:
    def test_remove_edge_reverts_insertion(self, anbn_grammar):
        incremental = IncrementalCFPQ(word_chain(["a", "b"]), anbn_grammar)
        assert incremental.pairs("S") == {(0, 2)}
        removed = incremental.remove_edge(0, "a", 1)
        assert removed == 2  # the CNF a-proxy fact at (0, 1) and S(0, 2)
        assert incremental.pairs("S") == frozenset()
        assert not incremental.graph.has_edge(0, "a", 1)

    def test_alternative_derivation_survives(self, dyck_grammar):
        # Two a-edges into node 1; removing one keeps (x, 2) alive
        # through the other.
        graph = LabeledGraph.from_edges([
            (0, "a", 1), (3, "a", 1), (1, "b", 2),
        ], nodes=[0, 1, 2, 3])
        incremental = IncrementalCFPQ(graph, dyck_grammar)
        assert incremental.pairs("S") == {(0, 2), (3, 2)}
        removed = incremental.remove_edge(0, "a", 1)
        assert removed == 2  # the a-proxy fact at (0, 1) and S(0, 2)
        assert incremental.pairs("S") == {(3, 2)}

    def test_parallel_label_keeps_base_fact(self):
        grammar = parse_grammar("S -> x | y", terminals=["x", "y"])
        graph = LabeledGraph.from_edges([(0, "x", 1), (0, "y", 1)])
        incremental = IncrementalCFPQ(graph, grammar)
        assert incremental.remove_edge(0, "x", 1) == 0
        assert incremental.pairs("S") == {(0, 1)}

    def test_cyclic_self_support_is_deleted(self):
        """The case plain support counting gets wrong: S(0,0) supports
        itself through S -> S S, so its count never reaches zero — the
        count-blind over-delete plus re-derive must still remove it."""
        grammar = parse_grammar("S -> x | S S", terminals=["x"])
        incremental = IncrementalCFPQ(
            LabeledGraph.from_edges([(0, "x", 0)]), grammar)
        assert incremental.pairs("S") == {(0, 0)}
        assert incremental.remove_edge(0, "x", 0) == 1
        assert incremental.pairs("S") == frozenset()

    def test_remove_missing_edge_is_noop(self, anbn_grammar):
        incremental = IncrementalCFPQ(word_chain(["a", "b"]), anbn_grammar)
        assert incremental.remove_edge(0, "b", 1) == 0
        assert incremental.remove_edge("nope", "a", "nada") == 0
        assert incremental.pairs("S") == {(0, 2)}

    def test_stats_track_removals(self, anbn_grammar):
        incremental = IncrementalCFPQ(word_chain(["a", "b"]), anbn_grammar)
        incremental.remove_edge(0, "a", 1)
        stats = incremental.stats
        assert stats["edge_removals"] == 1
        assert stats["facts_removed"] >= 1

    def test_inserted_edge_supports_pre_existing_fact(self):
        """Regression: an inserted edge whose head fact already exists
        adds no fact, yet the next deletion must find it as a surviving
        derivation — not over-delete a still-derivable fact."""
        grammar = parse_grammar("S -> a | b", terminals=["a", "b"])
        incremental = IncrementalCFPQ(
            LabeledGraph.from_edges([(0, "a", 1)]), grammar)
        incremental.remove_edge(9, "a", 9)   # no-op
        incremental.add_edges([(0, "b", 1)])  # S(0,1) already exists
        assert incremental.remove_edges([(0, "a", 1)]) == 0
        assert incremental.pairs("S") == {(0, 1)}
        scratch = solve_matrix_relations(incremental.graph, grammar)
        assert incremental.relations().same_as(scratch)

    def test_per_tuple_inserts_then_deletion(self):
        """Same scenario through add_edge, with split derivations in
        play."""
        grammar = parse_grammar("S -> a | b | S S", terminals=["a", "b"])
        incremental = IncrementalCFPQ(
            LabeledGraph.from_edges([(0, "a", 1), (1, "a", 2)]), grammar)
        incremental.remove_edge(9, "a", 9)   # no-op
        incremental.add_edge(0, "b", 1)      # base fact pre-exists
        incremental.add_edge(2, "b", 0)      # new facts via S S
        assert incremental.remove_edges([(0, "a", 1), (1, "a", 2)]) > 0
        scratch = solve_matrix_relations(incremental.graph, grammar)
        assert incremental.relations().same_as(scratch)
        # S(0,1) must have survived through the b-edge.
        assert (0, 1) in incremental.pairs("S")

    def test_single_path_per_tuple_inserts_then_deletion(self):
        grammar = parse_grammar("S -> a | b | S S", terminals=["a", "b"])
        incremental = IncrementalSinglePathCFPQ(
            LabeledGraph.from_edges([(0, "a", 1), (1, "a", 2)]), grammar)
        incremental.remove_edge(9, "a", 9)   # no-op
        incremental.add_edge(0, "b", 1)
        incremental.add_edge(2, "a", 0)
        incremental.remove_edge(0, "a", 1)
        index = build_single_path_index(incremental.graph, grammar)
        assert index.cells == _cells_of(incremental)

    def test_insertions_after_deletion(self, dyck_grammar):
        incremental = IncrementalCFPQ(two_cycles(2, 3), dyck_grammar)
        incremental.remove_edge(0, "a", 1)
        incremental.add_edge(0, "a", 1)
        incremental.add_edges([(0, "a", 3), (3, "b", 0)])
        incremental.remove_edges([(0, "a", 3), (2, "b", 3)])
        scratch = solve_matrix_relations(incremental.graph, dyck_grammar)
        assert incremental.relations().same_as(scratch)

    def test_single_path_lengths_grow_after_deletion(self):
        """Deleting the short witness must *lengthen* the recorded
        length of a still-derivable fact."""
        grammar = parse_grammar("S -> a | a S", terminals=["a"])
        graph = LabeledGraph.from_edges([
            (0, "a", 3), (0, "a", 1), (1, "a", 2), (2, "a", 3),
        ])
        incremental = IncrementalSinglePathCFPQ(graph, grammar)
        assert incremental.length_of("S", 0, 3) == 1
        # only the a-proxy fact at (0, 3) dies; S(0, 3) survives longer
        assert incremental.remove_edge(0, "a", 3) == 1
        assert incremental.length_of("S", 0, 3) == 3
        # ...and the re-derived cell counts as changed, next to the
        # removed one.
        cell = (graph.node_id(0), graph.node_id(3))
        changed = {nonterminal.name: pairs for nonterminal, pairs
                   in incremental.last_changes.items()}
        assert changed.pop("S") == {cell}
        assert list(changed.values()) == [{cell}]
        index = build_single_path_index(incremental.graph, grammar)
        assert index.cells == _cells_of(incremental)


def _cells_of(incremental: IncrementalSinglePathCFPQ) -> dict:
    """The solver's lengths in SinglePathIndex.cells shape."""
    cells: dict = {}
    for nonterminal, triples in incremental.length_cells().items():
        for i, j, length in triples:
            cells.setdefault((i, j), {})[nonterminal] = length
    return cells


class TestNullableDiagonal:
    GRAMMAR = "S -> a S b | eps"

    def _grammar(self):
        return parse_grammar(self.GRAMMAR, terminals=["a", "b"])

    def test_initial_solve_has_diagonal(self):
        incremental = IncrementalCFPQ(word_chain(["a", "b"]), self._grammar())
        assert incremental.pairs("S") == {(0, 0), (1, 1), (2, 2), (0, 2)}

    def test_new_node_gets_diagonal_per_tuple(self):
        incremental = IncrementalCFPQ(word_chain(["a", "b"]), self._grammar())
        count = incremental.add_edge(2, "a", "fresh")
        fresh = incremental.graph.node_id("fresh")
        assert (fresh, fresh) in incremental.pairs("S")
        assert count >= 1  # at least the diagonal fact

    def test_new_node_gets_diagonal_in_batch(self):
        incremental = IncrementalCFPQ(word_chain(["a", "b"]), self._grammar())
        incremental.add_edges([("p", "a", "q"), ("q", "b", "r")])
        for node in ("p", "q", "r"):
            node_id = incremental.graph.node_id(node)
            assert (node_id, node_id) in incremental.pairs("S")
        scratch = solve_matrix_relations(incremental.graph, self._grammar())
        assert incremental.relations().same_as(scratch)

    def test_single_path_diagonal_length_zero(self):
        incremental = IncrementalSinglePathCFPQ(word_chain(["a", "b"]),
                                                self._grammar())
        assert incremental.length_of("S", 1, 1) == 0
        incremental.add_edge(2, "a", "fresh")
        assert incremental.length_of("S", "fresh", "fresh") == 0

    def test_diagonal_survives_deletion(self):
        incremental = IncrementalCFPQ(word_chain(["a", "b"]), self._grammar())
        incremental.remove_edge(0, "a", 1)
        assert incremental.pairs("S") == {(0, 0), (1, 1), (2, 2)}

    @pytest.mark.parametrize("seed", range(6))
    def test_growing_node_set_property(self, seed):
        """Insertion sequences that keep introducing new nodes must
        resize cleanly and pick up the nullable diagonals (property
        test, edge by edge and in batches compared to scratch)."""
        grammar = parse_grammar("S -> a S b | S S | eps",
                                terminals=["a", "b"])
        rng = random.Random(0xD1A6 ^ seed)
        per_tuple = IncrementalCFPQ(LabeledGraph(), grammar)
        batched = IncrementalCFPQ(LabeledGraph(), grammar,
                                  strategy="delta")
        next_node = 0
        for step in range(8):
            edges = []
            for _ in range(rng.randint(1, 3)):
                if rng.random() < 0.6 or next_node < 2:
                    source, next_node = next_node, next_node + 1
                else:
                    source = rng.randrange(next_node)
                target = (next_node if rng.random() < 0.5
                          else rng.randrange(next_node))
                next_node = max(next_node, target + 1 if isinstance(target, int)
                                else next_node)
                edges.append((source, rng.choice(["a", "b"]), target))
            for edge in edges:
                per_tuple.add_edge(*edge)
            batched.add_edges(edges)
            scratch = solve_matrix_relations(per_tuple.graph, grammar)
            assert per_tuple.relations().same_as(scratch), (seed, step)
            assert batched.relations().same_as(scratch), (seed, step)


# ----------------------------------------------------------------------
# Randomized interleavings: strategies × backends vs from-scratch
# ----------------------------------------------------------------------

# `a` is both a base rule and part of composites, so the same fact can
# hold edge *and* split supports at once — the hard case for DRed.
_INTERLEAVE_GRAMMAR = "S -> a S b | a b | S S | a"


def _random_sequence(rng: random.Random, nodes: int, steps: int):
    """A mixed insert/delete command stream over a small node universe."""
    commands = []
    for _ in range(steps):
        edge = (rng.randrange(nodes), rng.choice(["a", "b"]),
                rng.randrange(nodes))
        commands.append((rng.random() < 0.35, edge))  # True = delete
    return commands


@pytest.mark.parametrize("strategy, options", STRATEGY_CASES)
@pytest.mark.parametrize("seed", range(4))
def test_interleaved_updates_equal_scratch_across_strategies(strategy, options,
                                                             seed):
    grammar = parse_grammar(_INTERLEAVE_GRAMMAR, terminals=["a", "b"])
    rng = random.Random(0xDE1E7E ^ seed)
    nodes = list(range(5))
    graph = LabeledGraph.from_edges(
        [(rng.randrange(5), rng.choice(["a", "b"]), rng.randrange(5))
         for _ in range(6)], nodes=nodes)
    incremental = IncrementalCFPQ(graph, grammar, strategy=strategy,
                                  **options)
    for delete, edge in _random_sequence(rng, 5, 14):
        if delete:
            incremental.remove_edge(*edge)
        else:
            incremental.add_edge(*edge)
    scratch = solve_matrix_relations(incremental.graph, grammar)
    assert incremental.relations().same_as(scratch), (strategy, seed)


@pytest.mark.parametrize("seed", range(3))
def test_interleaved_updates_equal_scratch_across_backends(backend_name,
                                                           seed):
    grammar = parse_grammar(_INTERLEAVE_GRAMMAR, terminals=["a", "b"])
    rng = random.Random(0xBACC ^ seed)
    incremental = IncrementalCFPQ(
        LabeledGraph.from_edges([], nodes=list(range(5))), grammar,
        backend=backend_name)
    batch: list = []
    for delete, edge in _random_sequence(rng, 5, 12):
        if delete:
            incremental.remove_edges(batch and [batch.pop()] or [edge])
        else:
            batch.append(edge)
            if len(batch) >= 3:
                incremental.add_edges(batch)
                batch.clear()
    incremental.add_edges(batch)
    scratch = solve_matrix_relations(incremental.graph, grammar)
    assert incremental.relations().same_as(scratch), (backend_name, seed)


@pytest.mark.parametrize("strategy", ["naive", "delta", "blocked"])
@pytest.mark.parametrize("seed", range(3))
def test_interleaved_single_path_equals_scratch(strategy, seed):
    """relations() and length_of must both match a from-scratch
    SinglePathIndex after every interleaved batch."""
    grammar = parse_grammar(_INTERLEAVE_GRAMMAR, terminals=["a", "b"])
    rng = random.Random(0x51D3 ^ seed)
    incremental = IncrementalSinglePathCFPQ(
        LabeledGraph.from_edges(
            [(rng.randrange(4), rng.choice(["a", "b"]), rng.randrange(4))
             for _ in range(5)], nodes=list(range(4))),
        grammar, strategy=strategy, **_tiles(strategy))
    for step, (delete, edge) in enumerate(_random_sequence(rng, 4, 10)):
        if delete:
            incremental.remove_edge(*edge)
        else:
            incremental.add_edge(*edge)
        index = build_single_path_index(incremental.graph, grammar)
        assert _cells_of(incremental) == index.cells, (strategy, seed, step)


@pytest.mark.parametrize("seed", range(3))
def test_forest_view_cells_follow_interleaved_updates(seed):
    """The all-path view is built once and read live: after every
    insert or delete its ``node_exists`` cells equal ``pairs``."""
    grammar = parse_grammar(_INTERLEAVE_GRAMMAR, terminals=["a", "b"])
    rng = random.Random(0xF0E5 ^ seed)
    incremental = IncrementalCFPQ(
        LabeledGraph.from_edges([], nodes=list(range(4))), grammar)
    view = incremental.all_path_index()
    for step, (delete, edge) in enumerate(_random_sequence(rng, 4, 12)):
        if delete:
            incremental.remove_edge(*edge)
        else:
            incremental.add_edge(*edge)
        for nonterminal in incremental.grammar.nonterminals:
            pairs = incremental.pairs(nonterminal)
            cells = {(i, j) for i in range(4) for j in range(4)
                     if view.node_exists(nonterminal, i, j)}
            assert cells == pairs, (seed, step, nonterminal)


@given(
    seed=st.integers(0, 1000),
    initial_edges=st.integers(0, 10),
    inserted_edges=st.integers(1, 10),
)
@settings(max_examples=40, deadline=None)
def test_incremental_equals_scratch_property(seed, initial_edges,
                                             inserted_edges):
    grammar = parse_grammar("S -> a S b | a b | S S", terminals=["a", "b"])
    rng = random.Random(seed)
    nodes = list(range(6))

    def random_edge():
        return (rng.choice(nodes), rng.choice(["a", "b"]), rng.choice(nodes))

    graph = LabeledGraph.from_edges([random_edge() for _ in range(initial_edges)],
                                    nodes=nodes)
    incremental = IncrementalCFPQ(graph, grammar)
    for _ in range(inserted_edges):
        incremental.add_edge(*random_edge())

    batch = solve_matrix_relations(incremental.graph, grammar)
    assert incremental.relations().same_as(batch), (
        f"seed={seed} initial={initial_edges} inserted={inserted_edges}"
    )


def _scratch_state(solver) -> dict:
    """What ``solver.export_state()`` must equal, solved from scratch on
    the solver's current graph by an engine that shares no code with the
    incremental one: the length-semiring closure gives the facts and
    their canonical witness lengths (a single-path fact is the cell
    ``(i, j, length)``)."""
    closed = solve_annotated(solver.graph, solver.grammar, LENGTH_SEMIRING,
                             normalize=False)
    width = 3 if isinstance(solver, IncrementalSinglePathCFPQ) else 2
    facts: dict = {}
    for nonterminal, matrix in closed.matrices.items():
        for cell in matrix.nonzero_cells():
            facts.setdefault(nonterminal, set()).add(cell[:width])
    return {"facts": facts}


def _state_delta(before: dict, after: dict) -> dict:
    """The cells whose content differs between two scratch states —
    what ``last_changes`` must report for the call that led from one to
    the other (presence, and on the single-path solver the length)."""
    def cells(state):
        return {(nonterminal, *cell[:2]): cell[2:]
                for nonterminal, cells in state["facts"].items()
                for cell in cells}

    old, new = cells(before), cells(after)
    changed: dict = {}
    for fact in old.keys() | new.keys():
        if old.get(fact) != new.get(fact):
            changed.setdefault(fact[0], set()).add(fact[1:])
    return {nonterminal: frozenset(pairs)
            for nonterminal, pairs in changed.items()}


def _relation_size(state: dict) -> int:
    """``Σ_A |R_A|`` of an exported or scratch state."""
    return sum(map(len, state["facts"].values()))


SOLVER_CLASSES = [IncrementalCFPQ, IncrementalSinglePathCFPQ]

#: Grammar shapes the interleaving differentials run under: the
#: interleaving grammar; a nullable Dyck grammar, whose facts include
#: every node's diagonal; and one whose binary rules join two different
#: nonterminals, so a popped row group of one symbol meets the row and
#: column maps of others, as left and as right operand.
DIFFERENTIAL_GRAMMARS = [
    pytest.param(_INTERLEAVE_GRAMMAR, id="interleave"),
    pytest.param("S -> a S b S | eps", id="nullable"),
    pytest.param("S -> A B | a\nA -> a | A S\nB -> b | S B", id="mixed"),
]


class TestDRedDifferential:
    """Store-free DRed against an independent oracle: after every step
    of any interleaved insert/delete sequence the solver must export
    exactly the state a from-scratch solve of the current graph yields
    (same facts, same lengths), return the fact-count delta, count in
    ``stats["total_facts"]`` exactly the facts it holds, and report the
    exact cell delta in ``last_changes``."""

    def _solver(self, cls, strategy="delta", grammar=_INTERLEAVE_GRAMMAR,
                **options):
        grammar = parse_grammar(grammar, terminals=["a", "b"])
        graph = LabeledGraph.from_edges(
            [(0, "a", 1), (1, "b", 2), (2, "a", 3)], nodes=list(range(5)))
        return cls(graph, grammar, strategy=strategy, **options)

    def _step(self, solver, mutator, *arguments, context=None):
        """Run one mutator by name and hold it to the oracle."""
        before = _scratch_state(solver)
        count_before = solver.stats["total_facts"]
        assert count_before == _relation_size(before), context
        returned = getattr(solver, mutator)(*arguments)
        grown = solver.stats["total_facts"] - count_before
        assert returned == (-grown if mutator.startswith("remove")
                            else grown), context
        scratch = _scratch_state(solver)
        assert grown == _relation_size(scratch) - _relation_size(before), \
            context
        assert solver.export_state() == scratch, context
        assert solver.last_changes == _state_delta(before, scratch), context

    @pytest.mark.parametrize("cls", SOLVER_CLASSES)
    @pytest.mark.parametrize("strategy", ["naive", "delta", "blocked"])
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("grammar", DIFFERENTIAL_GRAMMARS)
    def test_per_tuple_interleavings(self, cls, strategy, seed, grammar):
        solver = self._solver(cls, strategy=strategy, grammar=grammar,
                              **_tiles(strategy))
        rng = random.Random(0x5EED ^ seed)
        for step, (delete, edge) in enumerate(_random_sequence(rng, 5, 16)):
            self._step(solver, "remove_edge" if delete else "add_edge",
                       *edge, context=(grammar, strategy, seed, step))
        assert solver.stats["edge_removals"] > 0

    @pytest.mark.parametrize("cls", SOLVER_CLASSES)
    @pytest.mark.parametrize("strategy", ["naive", "delta", "blocked"])
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("grammar", DIFFERENTIAL_GRAMMARS)
    def test_batched_interleavings(self, cls, strategy, seed, grammar):
        solver = self._solver(cls, strategy=strategy, grammar=grammar,
                              **_tiles(strategy))
        rng = random.Random(0xFACE ^ seed)
        pending: list = []
        for delete, edge in _random_sequence(rng, 5, 14):
            if delete:
                batch = pending and [pending.pop()] or [edge]
                self._step(solver, "remove_edges", batch)
            else:
                pending.append(edge)
                if len(pending) >= 3:
                    self._step(solver, "add_edges", list(pending))
                    pending.clear()
        self._step(solver, "add_edges", pending)

    @pytest.mark.parametrize("cls", SOLVER_CLASSES)
    def test_mutual_support_through_the_deleted_edge(self, cls):
        """On an x-cycle every S fact is derivable from the others
        (``S -> S S``), and the facts around the cycle support each
        other *only* through paths that use every edge: support counts
        would never reach zero.  Cutting one edge must remove all but
        the three facts of the remaining chain."""
        grammar = parse_grammar("S -> x | S S", terminals=["x"])
        solver = cls(LabeledGraph.from_edges(
            [(0, "x", 1), (1, "x", 2), (2, "x", 0)]), grammar)
        assert len(solver.pairs("S")) == 9
        self._step(solver, "remove_edge", 0, "x", 1)
        assert solver.pairs("S") == {(1, 2), (2, 0), (1, 0)}
        self._step(solver, "remove_edges", [(1, "x", 2), (2, "x", 0)])
        assert solver.pairs("S") == frozenset()
        assert solver.export_state()["facts"] == {}

    @pytest.mark.parametrize("cls", SOLVER_CLASSES)
    def test_deletion_probes_only_the_overdeleted_facts(self, cls):
        """Deleting a leaf edge costs what it over-deletes: the
        derivation probe runs once per over-deleted fact and the
        worklist pops only those — the same handful whether the rest of
        the graph holds hundreds of facts or thousands."""
        grammar = parse_grammar("S -> a S b | a b | S S",
                                terminals=["a", "b"])
        work = {}
        for cycle in (3, 12):
            graph = two_cycles(cycle, cycle + 1)
            graph.add_edges([("p", "a", "q"), ("q", "b", "leaf")])
            solver = cls(graph, grammar)
            probed: list = []
            probe = solver._derivations
            solver._derivations = lambda fact: (probed.append(fact),
                                                probe(fact))[1]
            pops = solver.stats["propagated_facts"]
            assert solver.remove_edge("q", "b", "leaf") == 2
            assert solver.export_state() == _scratch_state(solver)
            assert len(probed) == len(set(probed)) == 2
            work[cycle] = (len(probed),
                           solver.stats["propagated_facts"] - pops,
                           solver.stats["total_facts"])
        assert work[3][:2] == work[12][:2] == (2, 0)
        assert work[12][2] > 10 * work[3][2]

    @pytest.mark.parametrize("cls", SOLVER_CLASSES)
    @pytest.mark.parametrize("size", [1, 199, 200, 1000])
    def test_batch_sizes_equal_scratch(self, cls, size):
        """One worklist serves every batch size: at 1, 199, 200 and
        1 000 new edges ``add_edges`` leaves the state a from-scratch
        solve yields (lengths included), returns the fact growth and
        reports the exact cell delta."""
        rng = random.Random(0xB0DE)
        # 40 nodes let the small batches interact; 1 000 edges over as
        # many nodes keep the from-scratch length oracle quick.
        nodes = 40 if size < 1000 else size
        batch: list = []
        while len(batch) < size:
            edge = (rng.randrange(nodes), rng.choice("ab"),
                    rng.randrange(nodes))
            if edge not in batch:
                batch.append(edge)
        batch.append(batch[0])  # a duplicate is not a new edge
        self._step(self._solver(cls), "add_edges", batch, context=size)

    @pytest.mark.parametrize("cls", SOLVER_CLASSES)
    def test_warm_state_roundtrips(self, cls):
        """An exported state warm-starts a solver that continues
        updating exactly like the original — there is no deletion state
        to carry over."""
        solver = self._solver(cls)
        solver.remove_edge(1, "b", 2)
        assert set(solver.export_state()) == {"facts"}
        graph_copy = LabeledGraph.from_edges(
            list(solver.graph.edges()), nodes=list(solver.graph.nodes))
        adopted = cls(graph_copy, solver.grammar,
                      warm_state=solver.export_state())
        assert adopted.initial_closure_iterations == 0
        assert adopted.export_state() == solver.export_state()
        self._step(adopted, "remove_edge", 0, "a", 1)
        self._step(adopted, "add_edges", [(0, "a", 1), (1, "b", 2)])


class TestOneFactStore:
    """The row maps are the solvers' only fact store: what reads it
    reads them in place, and nothing walks them per update."""

    def _solver(self, cls):
        grammar = parse_grammar("S -> a S b | a b", terminals=["a", "b"])
        graph = LabeledGraph.from_edges(
            [(0, "a", 1), (1, "a", 2), (2, "b", 3)])
        return cls(graph, grammar)

    @pytest.mark.parametrize("cls", SOLVER_CLASSES)
    def test_relations_is_a_live_view(self, cls):
        """``relations()`` reads the row maps on every call: its pair
        sets, triples and comparisons follow each mutator call, also
        after they were read once."""
        solver = self._solver(cls)
        view = solver.relations()
        assert view.pairs("S") == solver.pairs("S") == {(1, 3)}
        solver.add_edges([(3, "b", 4)])
        assert view.pairs("S") == solver.pairs("S") == {(1, 3), (0, 4)}
        solver.remove_edges([(0, "a", 1)])
        assert view.pairs("S") == solver.pairs("S") == {(1, 3)}
        assert [(i, j) for nonterminal, i, j in view.triples()
                if nonterminal.name == "S"] == [(1, 3)]

    @pytest.mark.parametrize("cls", SOLVER_CLASSES)
    def test_forest_relations_is_a_live_view(self, cls):
        """``all_path_index().relations`` hands the row maps themselves
        to ``ContextFreeRelations``: made once, it follows every
        mutator call."""
        solver = self._solver(cls)
        view = solver.all_path_index().relations
        assert view.pairs("S") == {(1, 3)}
        solver.add_edges([(3, "b", 4)])
        assert view.pairs("S") == {(1, 3), (0, 4)}
        assert view.count("S") == 2 and view.contains("S", 0, 4)
        solver.remove_edges([(0, "a", 1)])
        assert view.pairs("S") == solver.pairs("S") == {(1, 3)}

    def test_single_path_lengths_ride_the_rows(self):
        """A single-path fact is one entry of its row dict, ``{j:
        length}``, plus its column entry: ``length_of``, the path view
        and the exported state all read that one store."""
        solver = self._solver(IncrementalSinglePathCFPQ)
        rows = solver.row_maps
        S = solver.grammar.resolve_nonterminal("S")
        assert rows[S] == {1: {3: 2}}
        solver.add_edges([(3, "b", 4)])
        assert rows[S] == {1: {3: 2}, 0: {4: 4}}
        assert solver.length_of("S", 0, 4) == 4
        assert solver.single_path_index().length_of(S, 0, 4) == 4
        assert solver.export_state()["facts"][S] == {(1, 3, 2), (0, 4, 4)}
        assert not any(name.endswith("lengths") for name in vars(solver))

    def test_single_path_holds_no_more_than_relational(self):
        """On funding·Q1 the single-path solver's one store of rows with
        lengths and columns holds at most 1.2× the relational solver's
        bytes (1.74× while each fact was also a key of an ``(A, i, j)``
        length dict)."""
        import gc
        import tracemalloc

        from repro.datasets.registry import build_graph
        from repro.grammar.builders import same_generation_query1
        from repro.grammar.cnf import to_cnf

        base = build_graph("funding")
        grammar = to_cnf(same_generation_query1())

        def held(cls) -> int:
            graph = LabeledGraph.from_edges(base.edges(),
                                            nodes=list(base.nodes))
            cls(graph, grammar)  # lazy imports and caches load here
            gc.collect()
            tracemalloc.start()
            try:
                solver = cls(graph, grammar)
                gc.collect()
                size = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            assert solver.stats["total_facts"] > 0
            return size

        relational = held(IncrementalCFPQ)
        single_path = held(IncrementalSinglePathCFPQ)
        assert single_path <= 1.2 * relational, (single_path, relational)

    @pytest.mark.parametrize("cls", SOLVER_CLASSES)
    def test_tuple_updates_walk_no_row_map(self, cls, monkeypatch):
        """The worklist and ``stats`` keep the fact count as
        they go: none of them walks a whole row map."""
        solver = self._solver(cls)
        total = solver.stats["total_facts"]

        def refuse(_row_map):
            raise AssertionError("a whole row map was walked")

        monkeypatch.setattr(incremental_module, "row_map_pairs", refuse)
        added = solver.add_edges([(3, "b", 4), (4, "b", 5)])
        removed = solver.remove_edge(0, "a", 1)
        assert added > 0 and removed > 0
        assert solver.stats["total_facts"] == total + added - removed
        monkeypatch.undo()
        assert solver.stats["total_facts"] == sum(
            len(solver.pairs(nonterminal))
            for nonterminal in solver.grammar.nonterminals)


@given(
    seed=st.integers(0, 1000),
    initial_edges=st.integers(1, 10),
    operations=st.integers(1, 12),
)
@settings(max_examples=40, deadline=None)
def test_interleaved_property(seed, initial_edges, operations):
    grammar = parse_grammar(_INTERLEAVE_GRAMMAR, terminals=["a", "b"])
    rng = random.Random(~seed)
    nodes = list(range(5))

    def random_edge():
        return (rng.choice(nodes), rng.choice(["a", "b"]), rng.choice(nodes))

    incremental = IncrementalCFPQ(
        LabeledGraph.from_edges([random_edge() for _ in range(initial_edges)],
                                nodes=nodes), grammar)
    for _ in range(operations):
        edge = random_edge()
        if rng.random() < 0.4:
            incremental.remove_edge(*edge)
        else:
            incremental.add_edge(*edge)

    batch = solve_matrix_relations(incremental.graph, grammar)
    assert incremental.relations().same_as(batch), (
        f"seed={seed} initial={initial_edges} operations={operations}"
    )


@pytest.mark.parametrize("single_path", [False, True],
                         ids=["relational", "single-path"])
def test_funding_tick_of_new_instances_equals_a_fresh_service(single_path):
    """A funding·Q1 tick of 150 new instances (``type`` plus
    ``type_r``, 300 edges) through ``QueryService.tick`` leaves the
    state, lengths included, and the answer of a service built fresh on
    the ticked graph."""
    from repro.datasets.registry import build_graph
    from repro.grammar.builders import same_generation_query1
    from repro.service.query_service import QueryService

    base = build_graph("funding")
    grammar = same_generation_query1()
    service = QueryService(
        LabeledGraph.from_edges(base.edges(), nodes=list(base.nodes)),
        grammar, single_path=single_path)
    rng = random.Random(0xF0D)
    classes = sorted({base.node_at(j) for _i, j in base.edge_pairs("type")},
                     key=str)
    ops = []
    for k in range(150):
        cls = rng.choice(classes)
        ops += [("insert", (f"new{k}", "type", cls)),
                ("insert", (cls, "type_r", f"new{k}"))]
    report = service.tick(ops)
    assert report.inserts_applied == 300 and report.frontier_runs == 1
    graph = service.solver.graph
    fresh = QueryService(
        LabeledGraph.from_edges(graph.edges(), nodes=list(graph.nodes)),
        grammar, single_path=single_path)
    assert service.solver.export_state() == fresh.solver.export_state()
    assert service.query("S") == fresh.query("S")
