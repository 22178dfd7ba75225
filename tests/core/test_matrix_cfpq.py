"""Tests for the boolean-decomposed matrix engine."""

import pytest

from repro.core.matrix_cfpq import (
    initial_boolean_matrices,
    solve_matrix,
    solve_matrix_relations,
)
from repro.errors import NotInNormalFormError
from repro.grammar.parser import parse_grammar
from repro.grammar.symbols import Nonterminal
from repro.graph.generators import two_cycles, word_chain
from repro.graph.labeled_graph import LabeledGraph
from repro.matrices.base import get_backend


class TestInitialization:
    def test_one_matrix_per_nonterminal(self, ab_cnf_grammar, backend):
        graph = word_chain(["a", "b"])
        matrices = initial_boolean_matrices(graph, ab_cnf_grammar, backend)
        assert set(matrices) == ab_cnf_grammar.nonterminals

    def test_terminal_rules_seed_entries(self, ab_cnf_grammar, backend):
        graph = word_chain(["a", "b"])
        matrices = initial_boolean_matrices(graph, ab_cnf_grammar, backend)
        assert matrices[Nonterminal("A")].to_pair_set() == {(0, 1)}
        assert matrices[Nonterminal("B")].to_pair_set() == {(1, 2)}
        assert matrices[Nonterminal("S")].nnz() == 0

    def test_multi_label_edges_merge(self, backend):
        grammar = parse_grammar("A -> x\nA -> y", terminals=["x", "y"])
        graph = LabeledGraph.from_edges([(0, "x", 1), (0, "y", 1)])
        matrices = initial_boolean_matrices(graph, grammar, backend)
        assert matrices[Nonterminal("A")].to_pair_set() == {(0, 1)}


class TestSolveMatrix:
    def test_anbn_on_chain(self, anbn_grammar, backend_name):
        result = solve_matrix(word_chain(["a", "a", "b", "b"]), anbn_grammar,
                              backend=backend_name)
        assert result.relations.pairs("S") == {(0, 4), (1, 3)}

    def test_dyck_on_two_cycles(self, dyck_grammar, backend_name):
        """The classic worst case: R_S is all pairs when cycle lengths
        are coprime... here with lengths 2/3 the relation is known."""
        result = solve_matrix(two_cycles(2, 3), dyck_grammar,
                              backend=backend_name)
        pairs = result.relations.pairs("S")
        assert (0, 0) in pairs       # a^6 b^6 style loops exist
        assert len(pairs) > 0

    def test_empty_relation_for_unmatched_labels(self, anbn_grammar, backend_name):
        graph = LabeledGraph.from_edges([(0, "z", 1)])
        result = solve_matrix(graph, anbn_grammar, backend=backend_name)
        assert result.relations.pairs("S") == frozenset()

    def test_requires_cnf_without_normalize(self, anbn_grammar):
        with pytest.raises(NotInNormalFormError):
            solve_matrix(word_chain(["a", "b"]), anbn_grammar,
                         normalize=False)

    def test_stats_populated(self, ab_cnf_grammar, backend_name):
        result = solve_matrix(word_chain(["a", "b"]), ab_cnf_grammar,
                              backend=backend_name, normalize=False)
        stats = result.stats
        assert stats.backend == backend_name
        assert stats.node_count == 3
        assert stats.iterations >= 1
        assert stats.multiplications >= stats.iterations
        assert stats.total_entries == sum(stats.nnz_per_nonterminal.values())
        assert stats.nnz_per_nonterminal["S"] == 1

    def test_termination_bound(self, dyck_grammar, backend_name):
        """Theorem 3: entries never exceed |V|²·|N|."""
        graph = two_cycles(3, 4)
        result = solve_matrix(graph, dyck_grammar, backend=backend_name)
        bound = (graph.node_count ** 2) * result.stats.nonterminal_count
        assert result.stats.total_entries <= bound

    def test_backends_identical_results(self, dyck_grammar):
        graph = two_cycles(3, 2)
        reference = None
        for name in ["setmatrix", "dense", "sparse"]:
            relations = solve_matrix(graph, dyck_grammar, backend=name).relations
            if reference is None:
                reference = relations
            else:
                assert relations.same_as(reference)

    def test_relations_shortcut(self, anbn_grammar):
        relations = solve_matrix_relations(word_chain(["a", "b"]), anbn_grammar)
        assert relations.pairs("S") == {(0, 2)}

    def test_empty_graph(self, anbn_grammar, backend_name):
        result = solve_matrix(LabeledGraph(), anbn_grammar, backend=backend_name)
        assert result.relations.pairs("S") == frozenset()

    def test_self_loop_pumping(self, backend_name):
        """a-self-loop + b-self-loop on the same node: S relates the
        node to itself (a^n b^n realizable for every n)."""
        grammar = parse_grammar("S -> a S b | a b", terminals=["a", "b"])
        graph = LabeledGraph.from_edges([(0, "a", 0), (0, "b", 0)])
        result = solve_matrix(graph, grammar, backend=backend_name)
        assert result.relations.pairs("S") == {(0, 0)}
