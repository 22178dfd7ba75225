"""Tests for the NFA construction and the matrix-based RPQ solver."""

from itertools import product as iter_product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.generators import chain, cycle, random_graph, word_chain
from repro.graph.labeled_graph import LabeledGraph
from repro.matrices.base import available_backends
from repro.regular.automaton import regex_to_nfa
from repro.regular.regex import parse_regex
from repro.regular.rpq import rpq_pairs_by_id, solve_rpq


def nfa(expression: str):
    return regex_to_nfa(parse_regex(expression))


class TestNFA:
    @pytest.mark.parametrize("expression,accepted,rejected", [
        ("a", [["a"]], [[], ["b"], ["a", "a"]]),
        ("a b", [["a", "b"]], [["a"], ["b", "a"]]),
        ("a | b", [["a"], ["b"]], [[], ["a", "b"]]),
        ("a*", [[], ["a"], ["a", "a", "a"]], [["b"]]),
        ("a+", [["a"], ["a", "a"]], [[]]),
        ("a?", [[], ["a"]], [["a", "a"]]),
        ("(a b)*", [[], ["a", "b"], ["a", "b", "a", "b"]],
         [["a"], ["a", "b", "a"]]),
        ("(a | b)+ c", [["a", "c"], ["b", "a", "c"]], [["c"], ["a"]]),
    ])
    def test_acceptance(self, expression, accepted, rejected):
        automaton = nfa(expression)
        for word in accepted:
            assert automaton.accepts(word), (expression, word)
        for word in rejected:
            assert not automaton.accepts(word), (expression, word)

    def test_accepts_empty(self):
        assert nfa("a*").accepts_empty()
        assert not nfa("a").accepts_empty()

    def test_labels(self):
        assert nfa("a b | c*").labels == {"a", "b", "c"}


class TestRPQ:
    def test_single_label_is_edge_relation(self):
        graph = chain(3)
        assert rpq_pairs_by_id(graph, "a") == {(0, 1), (1, 2), (2, 3)}

    def test_plus_is_transitive_reachability(self):
        graph = chain(3)
        assert rpq_pairs_by_id(graph, "a+") == {
            (i, j) for i in range(4) for j in range(i + 1, 4)
        }

    def test_star_adds_reflexive_pairs(self):
        graph = chain(2)
        pairs = rpq_pairs_by_id(graph, "a*")
        assert {(0, 0), (1, 1), (2, 2)} <= pairs
        assert (0, 2) in pairs

    def test_concatenation_on_labels(self):
        graph = word_chain(["a", "b", "a"])
        assert rpq_pairs_by_id(graph, "a b") == {(0, 2)}
        assert rpq_pairs_by_id(graph, "b a") == {(1, 3)}

    def test_union(self):
        graph = word_chain(["a", "b"])
        assert rpq_pairs_by_id(graph, "a | b") == {(0, 1), (1, 2)}

    def test_cycle_reachability(self):
        graph = cycle(3)
        assert rpq_pairs_by_id(graph, "a+") == {
            (i, j) for i in range(3) for j in range(3)
        }

    def test_same_generation_regular_approximation(self):
        """The regular query subClassOf_r+ subClassOf+ OVER-approximates
        the context-free same-generation query (no depth matching)."""
        from repro.core.matrix_cfpq import solve_matrix_relations
        from repro.grammar.parser import parse_grammar

        graph = LabeledGraph.from_edges([
            ("b", "subClassOf", "a"), ("c", "subClassOf", "a"),
            ("d", "subClassOf", "b"),
        ]).with_inverse_edges()
        cf_grammar = parse_grammar(
            "S -> subClassOf_r S subClassOf | subClassOf_r subClassOf",
            terminals=["subClassOf", "subClassOf_r"],
        )
        cf_pairs = solve_matrix_relations(graph, cf_grammar).pairs("S")
        rpq_pairs = rpq_pairs_by_id(graph, "subClassOf_r+ subClassOf+")
        assert cf_pairs <= rpq_pairs       # over-approximation
        # and strictly so: (a, b) matches regular (depths 2 vs 1) but is
        # not same-generation
        assert rpq_pairs - cf_pairs

    def test_node_objects_returned(self):
        graph = LabeledGraph.from_edges([("x", "knows", "y")])
        assert solve_rpq(graph, "knows") == {("x", "y")}

    def test_empty_graph(self):
        assert solve_rpq(LabeledGraph(), "a*") == frozenset()

    def test_backends_agree(self):
        graph = random_graph(6, 15, ["a", "b"], seed=1)
        answers = {
            backend: rpq_pairs_by_id(graph, "(a | b)* a", backend=backend)
            for backend in available_backends()
        }
        assert len(set(answers.values())) == 1


# ----------------------------------------------------------------------
# Property: matrix RPQ == brute-force (enumerate words up to a bound,
# check NFA acceptance against path existence).
# ----------------------------------------------------------------------

EXPRESSIONS = ["a", "a b", "a | b", "a*", "a+ b", "(a b)+", "a? b*"]


@given(
    seed=st.integers(0, 500),
    expression=st.sampled_from(EXPRESSIONS),
)
@settings(max_examples=50, deadline=None)
def test_rpq_matches_bruteforce(seed, expression):
    graph = random_graph(4, 8, ["a", "b"], seed=seed)
    automaton = regex_to_nfa(parse_regex(expression))
    answer = rpq_pairs_by_id(graph, expression)

    # brute force: all label words up to length 4, tested against both
    # the automaton and actual path existence.
    adjacency = {}
    for i, label, j in graph.edges_by_id():
        adjacency.setdefault(i, []).append((label, j))

    expected = set()
    if automaton.accepts_empty():
        expected.update((v, v) for v in range(graph.node_count))
    for start in range(graph.node_count):
        frontier = [(start, ())]
        for _depth in range(4):
            next_frontier = []
            for node, word in frontier:
                for label, target in adjacency.get(node, ()):
                    extended = word + (label,)
                    next_frontier.append((target, extended))
                    if automaton.accepts(list(extended)):
                        expected.add((start, target))
            frontier = next_frontier

    # our answer may contain pairs needing words longer than 4; the
    # brute-force set must be a subset, and agree exactly on short words
    assert expected <= answer
