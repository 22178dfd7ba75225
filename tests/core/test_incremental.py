"""Tests for incremental CFPQ under edge insertion and deletion.

Core invariant: after any interleaved insert/delete sequence the
incremental state (relations *and* single-path lengths) equals a
from-scratch solve on the final graph — checked across closure
strategies × matrix backends.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.incremental import IncrementalCFPQ, IncrementalSinglePathCFPQ
from repro.core.matrix_cfpq import solve_matrix_relations
from repro.core.semiring import (
    LENGTH_SEMIRING,
    WITNESS_SEMIRING,
    solve_annotated,
)
from repro.core.single_path import build_single_path_index
from repro.grammar.parser import parse_grammar
from repro.graph.generators import two_cycles, word_chain
from repro.graph.labeled_graph import LabeledGraph


class TestBasics:
    def test_initial_solve_matches_batch(self, dyck_grammar):
        graph = two_cycles(2, 3)
        incremental = IncrementalCFPQ(graph, dyck_grammar)
        batch = solve_matrix_relations(graph, dyck_grammar)
        assert incremental.relations().same_as(batch)

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
        assert stats["support_entries"] == 0  # insertion-only: lazy


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
    """The matrix-granular add_edges path."""

    @pytest.mark.parametrize("strategy", ["naive", "delta", "blocked",
                                          "autotune"])
    def test_batch_equals_scratch_across_strategies(self, dyck_grammar,
                                                    strategy):
        incremental = IncrementalCFPQ(two_cycles(2, 3), dyck_grammar,
                                      strategy=strategy, tile_size=2)
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
        assert stats["support_entries"] >= 0

    def test_inserted_edge_supports_pre_existing_fact(self):
        """Regression: inserting an edge whose head fact already exists
        must register the edge as a support — otherwise the next
        deletion over-deletes a still-derivable fact."""
        grammar = parse_grammar("S -> a | b", terminals=["a", "b"])
        incremental = IncrementalCFPQ(
            LabeledGraph.from_edges([(0, "a", 1)]), grammar)
        incremental.remove_edge(9, "a", 9)   # no-op; activates supports
        incremental.add_edges([(0, "b", 1)])  # S(0,1) already exists
        assert incremental.remove_edges([(0, "a", 1)]) == 0
        assert incremental.pairs("S") == {(0, 1)}
        scratch = solve_matrix_relations(incremental.graph, grammar)
        assert incremental.relations().same_as(scratch)

    def test_per_tuple_inserts_maintain_supports(self):
        """Same scenario through add_edge: with supports active the
        per-tuple path must keep the index exact (it no longer routes
        through the batch engine)."""
        grammar = parse_grammar("S -> a | b | S S", terminals=["a", "b"])
        incremental = IncrementalCFPQ(
            LabeledGraph.from_edges([(0, "a", 1), (1, "a", 2)]), grammar)
        incremental.remove_edge(9, "a", 9)   # activates supports
        incremental.add_edge(0, "b", 1)      # base fact pre-exists
        incremental.add_edge(2, "b", 0)      # new facts via S S
        assert incremental.remove_edges([(0, "a", 1), (1, "a", 2)]) > 0
        scratch = solve_matrix_relations(incremental.graph, grammar)
        assert incremental.relations().same_as(scratch)
        # S(0,1) must have survived through the b-edge.
        assert (0, 1) in incremental.pairs("S")

    def test_single_path_per_tuple_supports_after_deletion(self):
        grammar = parse_grammar("S -> a | b | S S", terminals=["a", "b"])
        incremental = IncrementalSinglePathCFPQ(
            LabeledGraph.from_edges([(0, "a", 1), (1, "a", 2)]), grammar)
        incremental.remove_edge(9, "a", 9)   # activates supports
        incremental.add_edge(0, "b", 1)
        incremental.add_edge(2, "a", 0)
        incremental.remove_edge(0, "a", 1)
        index = build_single_path_index(incremental.graph, grammar)
        assert index.cells == _cells_of(incremental)

    def test_insertions_after_deletion_maintain_supports(self, dyck_grammar):
        incremental = IncrementalCFPQ(two_cycles(2, 3), dyck_grammar)
        incremental.remove_edge(0, "a", 1)       # activates supports
        incremental.add_edge(0, "a", 1)          # routed through batch
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
        index = build_single_path_index(incremental.graph, grammar)
        assert index.cells == _cells_of(incremental)


def _cells_of(incremental: IncrementalSinglePathCFPQ) -> dict:
    """The solver's lengths in SinglePathIndex.cells shape."""
    cells: dict = {}
    for (nonterminal, i, j), length in incremental._lengths.items():
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
        test, per-tuple and batch paths compared to scratch)."""
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


@pytest.mark.parametrize("strategy", ["naive", "delta", "blocked",
                                      "autotune"])
@pytest.mark.parametrize("seed", range(4))
def test_interleaved_updates_equal_scratch_across_strategies(strategy, seed):
    grammar = parse_grammar(_INTERLEAVE_GRAMMAR, terminals=["a", "b"])
    rng = random.Random(0xDE1E7E ^ seed)
    nodes = list(range(5))
    graph = LabeledGraph.from_edges(
        [(rng.randrange(5), rng.choice(["a", "b"]), rng.randrange(5))
         for _ in range(6)], nodes=nodes)
    incremental = IncrementalCFPQ(graph, grammar, strategy=strategy,
                                  tile_size=2)
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
        grammar, strategy=strategy, tile_size=2)
    for step, (delete, edge) in enumerate(_random_sequence(rng, 4, 10)):
        if delete:
            incremental.remove_edge(*edge)
        else:
            incremental.add_edge(*edge)
        index = build_single_path_index(incremental.graph, grammar)
        assert _cells_of(incremental) == index.cells, (strategy, seed, step)


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
    """What ``solver.export_state()`` must equal, recounted from scratch
    on the solver's current graph by an engine that shares no code with
    the maintained index: the witness semiring's entry sets *are* the
    one-step derivation supports of every fact, and the length semiring
    gives the canonical witness lengths."""
    witness = solve_annotated(solver.graph, solver.grammar, WITNESS_SEMIRING,
                              normalize=False)
    facts: dict = {}
    supports: dict = {}
    for nonterminal, matrix in witness.matrices.items():
        for i, j, entries in matrix.nonzero_cells():
            facts.setdefault(nonterminal, set()).add((i, j))
            supports[(nonterminal, i, j)] = set(entries)
    state: dict = {"facts": facts}
    if solver._support_store.active:
        state["supports"] = supports
    if isinstance(solver, IncrementalSinglePathCFPQ):
        lengths = solve_annotated(solver.graph, solver.grammar,
                                  LENGTH_SEMIRING, normalize=False)
        state["lengths"] = {
            (nonterminal, i, j): length
            for nonterminal, matrix in lengths.matrices.items()
            for i, j, length in matrix.nonzero_cells()
        }
    return state


class TestSupportIndexDifferential:
    """The maintained DRed support index against an independent oracle:
    after every step of any interleaved insert/delete sequence the
    solver must export exactly the state a from-scratch recount on the
    current graph yields — same facts, same support entries per fact,
    same lengths."""

    def _solver(self, cls, strategy="delta", **options):
        grammar = parse_grammar(_INTERLEAVE_GRAMMAR, terminals=["a", "b"])
        graph = LabeledGraph.from_edges(
            [(0, "a", 1), (1, "b", 2), (2, "a", 3)], nodes=list(range(5)))
        return cls(graph, grammar, strategy=strategy, **options)

    def _step(self, solver, mutator, *arguments, context=None):
        """Run one mutator by name; its return value must be the
        fact-count delta and the exported state the from-scratch
        recount."""
        before = solver.stats["total_facts"]
        returned = getattr(solver, mutator)(*arguments)
        grown = solver.stats["total_facts"] - before
        assert returned == (-grown if mutator.startswith("remove")
                            else grown), context
        scratch = _scratch_state(solver)
        assert solver.export_state() == scratch, context
        assert solver.stats["support_entries"] == sum(
            len(entries) for entries in scratch.get("supports", {}).values()
        ), context

    @pytest.mark.parametrize("strategy", ["naive", "delta", "blocked"])
    @pytest.mark.parametrize("seed", range(4))
    def test_interleaved_exports_identical(self, strategy, seed):
        solver = self._solver(IncrementalCFPQ, strategy=strategy,
                              tile_size=2)
        rng = random.Random(0x5EED ^ seed)
        for step, (delete, edge) in enumerate(_random_sequence(rng, 5, 16)):
            self._step(solver, "remove_edge" if delete else "add_edge",
                       *edge, context=(strategy, seed, step))
        assert solver.stats["support_entries"] > 0

    @pytest.mark.parametrize("seed", range(3))
    def test_batched_interleavings_identical(self, seed):
        solver = self._solver(IncrementalCFPQ)
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

    @pytest.mark.parametrize("strategy", ["naive", "delta", "blocked"])
    @pytest.mark.parametrize("seed", range(3))
    def test_single_path_exports_identical(self, strategy, seed):
        solver = self._solver(IncrementalSinglePathCFPQ, strategy=strategy,
                              tile_size=2)
        rng = random.Random(0x1E57 ^ seed)
        for step, (delete, edge) in enumerate(_random_sequence(rng, 4, 12)):
            self._step(solver, "remove_edge" if delete else "add_edge",
                       *edge, context=(strategy, seed, step))

    def test_first_deletion_recount_matches_oracle(self):
        """The one-shot build on first deletion must equal the
        from-scratch recount exactly."""
        solver = self._solver(IncrementalCFPQ)
        solver.add_edges([(3, "b", 4), (4, "a", 0), (0, "a", 0)])
        assert "supports" not in solver.export_state()
        solver.remove_edge(9, "a", 9)  # no-op: activates the index
        assert solver.export_state()["supports"] == \
            _scratch_state(solver)["supports"]
        assert solver.stats["support_entries"] > 0

    def test_warm_state_roundtrips(self):
        """An exported state (supports included) warm-starts a solver
        that continues updating exactly like the original."""
        solver = self._solver(IncrementalCFPQ)
        solver.remove_edge(1, "b", 2)
        graph_copy = LabeledGraph.from_edges(
            list(solver.graph.edges()), nodes=list(solver.graph.nodes))
        adopted = IncrementalCFPQ(graph_copy, solver.grammar,
                                  warm_state=solver.export_state())
        assert adopted.initial_closure_iterations == 0
        assert adopted.export_state() == solver.export_state()
        self._step(adopted, "remove_edge", 0, "a", 1)
        self._step(adopted, "add_edges", [(0, "a", 1), (1, "b", 2)])


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
