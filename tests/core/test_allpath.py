"""Tests for bounded all-path answers: ``CFPQEngine.all_paths`` and the
all-path parse forest it reads (``AllPathIndex``)."""

import pytest

from repro.core.engine import CFPQEngine
from repro.core.matrix_cfpq import solve_matrix_relations
from repro.core.single_path import path_word
from repro.datasets.registry import build_graph
from repro.errors import UnknownSymbolError
from repro.grammar.builders import same_generation_query1
from repro.grammar.cnf import to_cnf
from repro.grammar.recognizer import cyk_recognize
from repro.grammar.symbols import Nonterminal
from repro.graph.generators import two_cycles, word_chain

S = Nonterminal("S")


def node_pairs(graph):
    return [(graph.node_at(i), graph.node_at(j))
            for i in range(graph.node_count)
            for j in range(graph.node_count)]


def bounded_relation(engine, max_length):
    """Pairs with at least one path of length ≤ *max_length*: the ones
    whose shortest witness fits the bound."""
    index = engine.all_path_index()
    return frozenset(
        (i, j) for i, j in node_pairs(engine.graph)
        if (shortest := index.shortest_path_length(S, i, j)) is not None
        and shortest <= max_length)


class TestOnChains:
    def test_unique_path(self, anbn_grammar):
        engine = CFPQEngine(word_chain(["a", "b"]), anbn_grammar)
        paths = engine.all_paths(S, 0, 2, max_length=5)
        assert len(paths) == 1
        assert path_word(next(iter(paths))) == ("a", "b")

    def test_budget_excludes_long_paths(self, anbn_grammar):
        engine = CFPQEngine(word_chain(["a", "a", "b", "b"]), anbn_grammar)
        assert engine.all_paths(S, 0, 4, max_length=3) == frozenset()
        assert len(engine.all_paths(S, 0, 4, max_length=4)) == 1

    def test_no_paths_outside_relation(self, anbn_grammar):
        engine = CFPQEngine(word_chain(["a", "b"]), anbn_grammar)
        assert engine.all_paths(S, 1, 0, max_length=10) == frozenset()


class TestOnCycles:
    def test_multiple_witnesses_enumerated(self, dyck_grammar):
        """On two cycles the number of witnesses grows with the bound."""
        engine = CFPQEngine(two_cycles(1, 1), dyck_grammar)
        short = engine.all_paths(S, 0, 0, max_length=2)
        longer = engine.all_paths(S, 0, 0, max_length=6)
        assert len(short) == 1           # just "ab"
        assert len(longer) > len(short)  # ab, aabb, abab, ...

    def test_every_enumerated_path_is_sound(self, dyck_grammar):
        cnf = to_cnf(dyck_grammar)
        engine = CFPQEngine(two_cycles(2, 3), cnf)
        answer = engine.evaluate(S, "all-path", max_length=6)
        assert answer
        for (i, j), paths in answer.items():
            for path in paths:
                assert path[0][0] == i and path[-1][2] == j
                assert cyk_recognize(cnf, S, list(path_word(path)))

    def test_relation_converges_to_relational_answer(self, dyck_grammar):
        graph = two_cycles(2, 3)
        relational = solve_matrix_relations(graph, dyck_grammar).pairs(S)
        engine = CFPQEngine(graph, dyck_grammar)
        # With a generous bound the bounded relation covers R_S entirely.
        assert bounded_relation(engine, max_length=12) == relational

    def test_bounded_relation_is_monotone_and_sound(self, dyck_grammar):
        graph = two_cycles(2, 3)
        relational = solve_matrix_relations(graph, dyck_grammar).pairs(S)
        engine = CFPQEngine(graph, dyck_grammar)
        previous: frozenset = frozenset()
        for bound in [2, 4, 6, 8]:
            current = bounded_relation(engine, max_length=bound)
            assert previous <= current
            assert current <= relational
            assert current == {
                pair for pair in node_pairs(graph)
                if engine.all_paths(S, *pair, max_length=bound)}, bound
            previous = current


class TestCycleRegression:
    """Regression for the pre-semiring enumerator's cycle handling.

    The old recursive enumerator seeded its memo with partial results
    and could return *incomplete* path sets when re-entered on a cycle;
    the forest recurses on exact path lengths (which strictly decrease
    at every split), so cyclic graphs terminate by construction and the
    answer is complete.
    """

    def test_cyclic_enumeration_terminates_with_distinct_paths(
            self, dyck_grammar):
        cnf = to_cnf(dyck_grammar)
        # An a-loop and a b-loop on one node: (0, 0) is the only pair.
        engine = CFPQEngine(two_cycles(1, 1), cnf)
        listed = list(engine.all_path_index().iter_paths(S, 0, 0,
                                                         max_length=8))
        # Terminated (we got here), every path distinct and sound.
        assert listed
        assert len(listed) == len(set(listed))
        for path in listed:
            assert path[0][0] == 0 and path[-1][2] == 0
            assert len(path) <= 8
            assert cyk_recognize(cnf, S, list(path_word(path)))

    def test_cyclic_count_is_complete(self, dyck_grammar):
        """On the two-loop graph the Dyck words of length ≤ 2k are the
        balanced ab-words — Catalan-counted; the old memo guard
        undercounted re-entrant cells."""
        engine = CFPQEngine(two_cycles(1, 1), dyck_grammar)
        # Dyck words of length 2, 4, 6: 1, 2, 5 (Catalan numbers).
        assert len(engine.all_paths(S, 0, 0, max_length=2)) == 1
        assert len(engine.all_paths(S, 0, 0, max_length=4)) == 1 + 2
        assert len(engine.all_paths(S, 0, 0, max_length=6)) == 1 + 2 + 5

    def test_cycle_through_multiple_nodes(self, dyck_grammar):
        engine = CFPQEngine(two_cycles(2, 3), to_cnf(dyck_grammar))
        paths = engine.all_paths(S, 0, 0, max_length=14)
        assert paths, "S(0,0) has witnesses within the bound"
        assert all(len(p) <= 14 for p in paths)
        assert len({path_word(p) for p in paths}) == len(paths)


class TestCountPaths:
    def test_chain_has_exactly_one(self, anbn_grammar):
        graph = word_chain(["a", "b"])
        engine = CFPQEngine(graph, anbn_grammar)
        assert sum(len(engine.all_paths(S, *pair, max_length=4))
                   for pair in node_pairs(graph)) == 1
        assert engine.all_path_index().count_paths(S, 0, 2, 4) == 1

    def test_unknown_nonterminal_rejected(self, anbn_grammar):
        engine = CFPQEngine(word_chain(["a", "b"]), anbn_grammar)
        with pytest.raises(UnknownSymbolError):
            engine.all_paths(Nonterminal("Nope"), 0, 1, max_length=3)


class TestEvaluateReadsOnlyRS:
    """``evaluate(..., "all-path")`` enumerates the pairs of ``R_S``
    only; it must equal the answer of every node pair, the empty ones
    left out."""

    @pytest.mark.parametrize("case", ["two_cycles", "funding"])
    def test_equals_every_node_pair(self, case, dyck_grammar):
        if case == "two_cycles":
            engine, bound = CFPQEngine(two_cycles(2, 3), dyck_grammar), 8
        else:
            engine = CFPQEngine(build_graph("funding"),
                                same_generation_query1())
            bound = 4
        expected = {pair: paths for pair in node_pairs(engine.graph)
                    if (paths := engine.all_paths("S", *pair, bound))}
        answer = engine.evaluate("S", "all-path", max_length=bound)
        assert expected
        assert answer == expected
        assert list(answer) == list(expected)
