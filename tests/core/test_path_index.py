"""Tests for the derivation index (parse-forest over closed matrices)."""

import json
import os

import pytest

from repro.core.engine import CFPQEngine
from repro.core.path_index import AllPathIndex
from repro.core.single_path import path_word
from repro.errors import UnknownSymbolError
from repro.grammar.cnf import to_cnf
from repro.grammar.parser import parse_grammar
from repro.grammar.recognizer import cyk_recognize
from repro.grammar.symbols import Nonterminal
from repro.graph.generators import random_graph, two_cycles, word_chain
from repro.matrices.base import available_backends

S = Nonterminal("S")


@pytest.fixture
def chain_index(anbn_grammar):
    return AllPathIndex.build(word_chain(["a", "a", "b", "b"]), anbn_grammar)


class TestForestStructure:
    def test_terminal_edges(self, chain_index):
        grammar = chain_index.grammar
        # find the CNF proxy for 'a'
        a_heads = grammar.heads_for_terminal(
            next(t for t in grammar.terminals if t.label == "a")
        )
        head = next(iter(a_heads))
        assert chain_index.terminal_edges(head, 0, 1) == ["a"]
        assert chain_index.terminal_edges(head, 2, 3) == []  # b edge

    def test_splits_reconstruct_derivation(self, chain_index):
        splits = chain_index.splits(S, 0, 4)
        assert splits, "S(0,4) must decompose"
        for left, right, mid in splits:
            assert chain_index.node_exists(left, 0, mid)
            assert chain_index.node_exists(right, mid, 4)

    def test_node_exists_matches_relation(self, chain_index):
        assert chain_index.node_exists(S, 0, 4)
        assert chain_index.node_exists(S, 1, 3)
        assert not chain_index.node_exists(S, 0, 3)


class TestEnumeration:
    def test_chain_single_path(self, chain_index):
        paths = list(chain_index.iter_paths(S, 0, 4, max_length=8))
        assert len(paths) == 1
        assert path_word(paths[0]) == ("a", "a", "b", "b")

    def test_lengths_non_decreasing(self, dyck_grammar):
        index = AllPathIndex.build(two_cycles(1, 1), dyck_grammar)
        lengths = [len(p) for p in index.iter_paths(S, 0, 0, max_length=8)]
        assert lengths == sorted(lengths)
        assert lengths[0] == 2

    def test_matches_engine_all_paths(self, dyck_grammar):
        """A built forest and the engine's view of its cached solve
        must produce exactly the same path sets."""
        graph = two_cycles(2, 3)
        cnf = to_cnf(dyck_grammar)
        index = AllPathIndex.build(graph, cnf)
        engine = CFPQEngine(graph, cnf, strategy="naive")
        for i in range(graph.node_count):
            for j in range(graph.node_count):
                from_index = set(index.iter_paths(
                    S, graph.node_at(i), graph.node_at(j), max_length=6))
                from_engine = engine.all_paths(S, graph.node_at(i),
                                               graph.node_at(j), 6)
                assert from_index == from_engine, (i, j)

    def test_all_paths_are_valid_words(self, dyck_grammar):
        graph = random_graph(6, 15, ["a", "b"], seed=4)
        cnf = to_cnf(dyck_grammar)
        index = AllPathIndex.build(graph, cnf)
        for i in range(graph.node_count):
            for j in range(graph.node_count):
                for path in index.iter_paths(S, i, j, max_length=6):
                    assert cyk_recognize(cnf, S, list(path_word(path)))

    def test_missing_pair_yields_nothing(self, chain_index):
        assert list(chain_index.iter_paths(S, 4, 0, max_length=10)) == []


class TestCounting:
    def test_chain_count(self, chain_index):
        assert chain_index.count_paths(S, 0, 4, max_length=10) == 1
        assert chain_index.count_paths(S, 0, 4, max_length=3) == 0

    def test_count_matches_enumeration(self, dyck_grammar):
        index = AllPathIndex.build(two_cycles(1, 1), dyck_grammar)
        for bound in [2, 4, 6]:
            enumerated = len(list(index.iter_paths(S, 0, 0, max_length=bound)))
            counted = index.count_paths(S, 0, 0, max_length=bound)
            assert counted == enumerated, bound

    def test_unambiguous_grammar_dp_path(self):
        """Single-rule-per-head grammar takes the DP shortcut."""
        grammar = parse_grammar("S -> A B\nA -> a\nB -> b",
                                terminals=["a", "b"])
        index = AllPathIndex.build(word_chain(["a", "b"]), grammar)
        assert index.count_paths(S, 0, 2, max_length=4) == 1


class TestShortestLength:
    def test_chain(self, chain_index):
        assert chain_index.shortest_path_length(S, 0, 4) == 4
        assert chain_index.shortest_path_length(S, 1, 3) == 2
        assert chain_index.shortest_path_length(S, 0, 3) is None

    def test_cycles_minimum(self, dyck_grammar):
        index = AllPathIndex.build(two_cycles(1, 1), dyck_grammar)
        assert index.shortest_path_length(S, 0, 0) == 2  # "ab"

    def test_minimal_leq_single_path_annotation(self, dyck_grammar):
        """Section 5's recorded lengths need not be minimal; the forest
        minimum is a lower bound on them."""
        from repro.core.single_path import build_single_path_index

        graph = two_cycles(2, 3)
        cnf = to_cnf(dyck_grammar)
        index = AllPathIndex.build(graph, cnf)
        annotated = build_single_path_index(graph, cnf, normalize=False)
        for (i, j), entries in annotated.cells.items():
            if S in entries:
                minimal = index.shortest_path_length(S, graph.node_at(i),
                                                     graph.node_at(j))
                assert minimal is not None
                assert minimal <= entries[S]


class TestQueryArguments:
    """A non-terminal the grammar lacks is an error, not an empty
    answer; ``k`` and ``max_length`` are non-negative ints."""

    QUERIES = {
        "iter_paths": lambda index, start: list(
            index.iter_paths(start, 0, 4, max_length=6)),
        "count_paths": lambda index, start: index.count_paths(
            start, 0, 4, max_length=6),
        "iter_k_best": lambda index, start: list(
            index.iter_k_best(start, 0, 4)),
        "top_k": lambda index, start: index.top_k(start, 0, 4, 3),
        "shortest_path_length": lambda index, start:
            index.shortest_path_length(start, 0, 4),
    }

    @pytest.mark.parametrize("query", sorted(QUERIES))
    @pytest.mark.parametrize("start", ["Nope", Nonterminal("Nope")])
    def test_unknown_nonterminal_raises(self, chain_index, query, start):
        with pytest.raises(UnknownSymbolError, match="Nope"):
            self.QUERIES[query](chain_index, start)

    @pytest.mark.parametrize("query", sorted(QUERIES))
    def test_start_by_name(self, chain_index, query):
        assert self.QUERIES[query](chain_index, "S") \
            == self.QUERIES[query](chain_index, S)

    def test_unknown_nonterminal_raises_for_k_zero(self, chain_index):
        with pytest.raises(UnknownSymbolError):
            chain_index.top_k("Nope", 0, 4, 0)

    @pytest.mark.parametrize("k", [1.5, True, False, "2", -1])
    def test_top_k_refuses_a_k_that_is_not_a_count(self, chain_index, k):
        with pytest.raises(ValueError, match="k must be a non-negative int"):
            chain_index.top_k(S, 0, 4, k)

    def test_top_k_zero(self, chain_index):
        assert chain_index.top_k(S, 0, 4, 0) == []

    BOUNDED = {
        "iter_paths": lambda index, bound: index.iter_paths(S, 0, 4, bound),
        "count_paths": lambda index, bound: index.count_paths(S, 0, 4, bound),
        "iter_k_best": lambda index, bound: index.iter_k_best(
            S, 0, 4, max_length=bound),
        "top_k": lambda index, bound: index.top_k(S, 0, 4, 3,
                                                  max_length=bound),
        "engine.all_paths": lambda engine, bound: engine.all_paths(
            S, 0, 4, bound),
        "engine.evaluate": lambda engine, bound: engine.evaluate(
            S, "all-path", max_length=bound).get((0, 4), ()),
    }

    def _target(self, query, anbn_grammar):
        engine = CFPQEngine(word_chain(["a", "a", "b", "b"]), anbn_grammar)
        return engine if query.startswith("engine.") \
            else engine.all_path_index()

    @pytest.mark.parametrize("query", sorted(BOUNDED))
    @pytest.mark.parametrize("bound", [True, False, -1, 2.5, "4"])
    def test_max_length_that_is_not_a_count_raises(self, anbn_grammar,
                                                    query, bound):
        """Checked on the call, before anything is enumerated: a bool
        or a negative bound is not an empty answer, and a float is not
        a ``TypeError`` from inside the enumeration."""
        target = self._target(query, anbn_grammar)
        with pytest.raises(ValueError,
                           match="max_length must be a non-negative int"):
            self.BOUNDED[query](target, bound)

    @pytest.mark.parametrize("query", ["iter_paths", "count_paths",
                                       "engine.all_paths"])
    def test_max_length_is_required_where_there_is_no_default(
            self, anbn_grammar, query):
        target = self._target(query, anbn_grammar)
        with pytest.raises(ValueError, match="not None"):
            self.BOUNDED[query](target, None)

    @pytest.mark.parametrize("query", sorted(BOUNDED))
    def test_max_length_zero_and_four(self, anbn_grammar, query):
        target = self._target(query, anbn_grammar)

        def count(answer):
            return answer if isinstance(answer, int) else len(list(answer))

        assert count(self.BOUNDED[query](target, 0)) == 0
        assert count(self.BOUNDED[query](target, 4)) == 1


class TestReadsMatricesInPlace:
    """The forest and the single-path search read rows of the closed
    array-backed matrices, never a per-pair export of them — at build
    or on first read."""

    FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                           "funding_q1_paths.json")

    @pytest.mark.skipif("sparse" not in available_backends(),
                        reason="needs the SciPy sparse backend")
    def test_funding_paths_without_per_pair_reads(self, monkeypatch):
        from repro.core.scalar_matrix import ScalarAnnotatedMatrix
        from repro.core.single_path import (build_single_path_index,
                                            extract_path)
        from repro.datasets.registry import build_graph
        from repro.grammar.builders import same_generation_query1
        from repro.matrices.sparse import SparseMatrix

        def refuse(*_args, **_kwargs):
            raise AssertionError("per-pair read of a closed matrix")

        for cls, names in ((SparseMatrix, ("nonzero_pairs", "to_pair_set")),
                           (ScalarAnnotatedMatrix,
                            ("nonzero_pairs", "columns"))):
            for name in names:
                monkeypatch.setattr(cls, name, refuse)
        graph = build_graph("funding")
        grammar = to_cnf(same_generation_query1())
        forest = AllPathIndex.build(graph, grammar)
        index = build_single_path_index(graph, grammar, normalize=False)

        def named(path):
            return [[graph.node_at(i), label, graph.node_at(j)]
                    for i, label, j in path]

        # Written by the forest and the index as they were before they
        # read the matrices in place.
        with open(self.FIXTURE, encoding="utf-8") as stream:
            cases = json.load(stream)
        assert cases
        for case in cases:
            source, target = case["source"], case["target"]
            assert [named(path) for path in forest.top_k(
                S, source, target, 5)] == case["top_k"], case
            assert named(extract_path(index, S, source, target)) \
                == case["single_path"], case
