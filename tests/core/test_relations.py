"""Tests for the ContextFreeRelations result object."""

from repro.core.relations import ContextFreeRelations
from repro.grammar.symbols import Nonterminal
from repro.graph.labeled_graph import LabeledGraph

S, A = Nonterminal("S"), Nonterminal("A")


def make_graph() -> LabeledGraph:
    return LabeledGraph.from_edges([("x", "e", "y"), ("y", "e", "z")])


def test_pairs_by_name_or_symbol():
    relations = ContextFreeRelations(make_graph(), {S: [(0, 1)]})
    assert relations.pairs("S") == {(0, 1)}
    assert relations.pairs(S) == {(0, 1)}
    assert relations.pairs("Missing") == frozenset()


def test_node_pairs_map_back_to_objects():
    relations = ContextFreeRelations(make_graph(), {S: [(0, 2)]})
    assert relations.node_pairs(S) == {("x", "z")}


def test_contains_by_node_object():
    relations = ContextFreeRelations(make_graph(), {S: [(0, 2)]})
    assert relations.contains(S, "x", "z")
    assert not relations.contains(S, "z", "x")


def test_count():
    relations = ContextFreeRelations(make_graph(), {S: [(0, 1), (1, 2)]})
    assert relations.count(S) == 2
    assert relations.count("Other") == 0


def test_triples_sorted():
    relations = ContextFreeRelations(
        make_graph(), {S: [(1, 2), (0, 1)], A: [(2, 2)]}
    )
    assert list(relations.triples()) == [
        (A, 2, 2), (S, 0, 1), (S, 1, 2),
    ]


def test_same_as_handles_missing_as_empty():
    graph = make_graph()
    left = ContextFreeRelations(graph, {S: [(0, 1)], A: []})
    right = ContextFreeRelations(graph, {S: [(0, 1)]})
    assert left.same_as(right)
    assert right.same_as(left)


def test_same_as_restricted():
    graph = make_graph()
    left = ContextFreeRelations(graph, {S: [(0, 1)], A: [(0, 0)]})
    right = ContextFreeRelations(graph, {S: [(0, 1)], A: [(1, 1)]})
    assert not left.same_as(right)
    assert left.same_as(right, nonterminals=["S"])


def test_diff():
    graph = make_graph()
    left = ContextFreeRelations(graph, {S: [(0, 1), (1, 2)]})
    right = ContextFreeRelations(graph, {S: [(1, 2), (2, 2)]})
    only_left, only_right = left.diff(right, S)
    assert only_left == {(0, 1)}
    assert only_right == {(2, 2)}


def test_rows_count_and_node_pairs_read_every_kind():
    """A matrix, a live row map, a pair iterable and a producer give the
    same rows, count and node pairs."""
    from repro.matrices.setmatrix import SetMatrixBackend

    pairs = [(0, 1), (0, 2), (2, 2)]
    row_map = {0: {1, 2}, 2: {2}}
    relations = ContextFreeRelations(make_graph(), {
        S: SetMatrixBackend().from_pairs(3, pairs), A: row_map,
        Nonterminal("B"): pairs, Nonterminal("C"): lambda: iter(pairs)})
    for nonterminal in relations.nonterminals:
        rows = {i: sorted(targets)
                for i, targets in relations.rows(nonterminal)}
        assert rows == {0: [1, 2], 2: [2]}, nonterminal
        assert relations.count(nonterminal) == 3
        assert relations.node_pairs(nonterminal) == {
            ("x", "y"), ("x", "z"), ("z", "z")}
        assert relations.contains(nonterminal, "x", "z")
        assert not relations.contains(nonterminal, "y", "x")
    row_map[1] = {0}  # a row map is read live
    assert relations.count(A) == 4 and ("y", "x") in relations.node_pairs(A)
    assert relations.contains(A, "y", "x")


def test_contains_reads_a_solver_view_live():
    """``contains`` reads one row of the solver's row map, so after an
    update it agrees with ``count`` and ``node_pairs``."""
    from repro import parse_grammar
    from repro.core.incremental import IncrementalCFPQ

    solver = IncrementalCFPQ(
        LabeledGraph.from_edges([(0, "a", 1)]),
        parse_grammar("S -> a | S S", terminals=["a"]), backend="setmatrix")
    relations = solver.relations()
    assert relations.contains("S", 0, 1)
    solver.add_edges([(1, "a", 2)])
    assert relations.count("S") == 3
    assert (0, 2) in relations.node_pairs("S")
    assert relations.contains("S", 0, 2)


def test_pairs_read_a_solver_view_live():
    """Regression: ``pairs`` kept the first pair set it built, so on a
    solver's view it, and ``triples``, ``same_as`` and ``diff`` on top
    of it, went stale after an update while ``count`` read live."""
    from repro import parse_grammar
    from repro.core.incremental import IncrementalCFPQ

    grammar = parse_grammar("S -> a | S S", terminals=["a"])
    solver = IncrementalCFPQ(LabeledGraph.from_edges([(0, "a", 1)]), grammar)
    relations = solver.relations()
    assert relations.pairs("S") == {(0, 1)}
    solver.add_edges([(1, "a", 2)])
    assert relations.pairs("S") == {(0, 1), (1, 2), (0, 2)}
    assert relations.count("S") == len(relations.pairs("S")) == 3
    assert [(i, j) for nonterminal, i, j in relations.triples()
            if nonterminal == S] == [(0, 1), (0, 2), (1, 2)]
    fresh = IncrementalCFPQ(LabeledGraph.from_edges(
        [(0, "a", 1), (1, "a", 2)]), grammar).relations()
    assert relations.same_as(fresh)
    assert relations.diff(fresh, "S") == (frozenset(), frozenset())


def test_repr_shows_sizes():
    relations = ContextFreeRelations(make_graph(), {S: [(0, 1)]})
    assert "S:1" in repr(relations)


def test_callable_relation_runs_once_on_first_read_of_its_symbol():
    calls = []

    def producer(name, pairs):
        def produce():
            calls.append(name)
            return iter(pairs)
        return produce

    relations = ContextFreeRelations(make_graph(), {
        S: producer("S", [(0, 1), (1, 2)]), A: producer("A", [(2, 2)])})
    assert relations.nonterminals == {S, A}
    assert calls == []
    assert relations.pairs("S") == {(0, 1), (1, 2)}
    assert relations.count(S) == 2 and relations.contains(S, "x", "y")
    assert calls == ["S"]
    eager = ContextFreeRelations(make_graph(),
                                 {S: [(0, 1), (1, 2)], A: [(2, 2)]})
    assert relations.same_as(eager)
    assert list(relations.triples()) == list(eager.triples())
    assert calls == ["S", "A"]


def test_solvers_materialize_only_the_relations_read(monkeypatch):
    from repro.core.matrix_cfpq import solve_matrix
    from repro.grammar.builders import dyck1
    from repro.graph.generators import two_cycles
    from repro.matrices.setmatrix import RowSetMatrix

    extracted = []
    to_pair_set = RowSetMatrix.to_pair_set
    monkeypatch.setattr(
        RowSetMatrix, "to_pair_set",
        lambda matrix: extracted.append(matrix) or to_pair_set(matrix))
    result = solve_matrix(two_cycles(2, 3), dyck1(), backend="setmatrix")
    assert len(result.matrices) > 1 and extracted == []
    assert result.relations.pairs("S") == \
        set(result.matrices[S].nonzero_pairs())
    assert extracted == [result.matrices[S]]
