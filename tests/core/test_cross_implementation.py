"""Differential tests: every solver must compute identical relations.

Solvers under test:

* literal set-matrix Algorithm 1 (`solve_naive`)
* boolean-decomposed engine × {dense, sparse, setmatrix}
* Hellings worklist baseline
* GLL-style top-down baseline

plus, on chain graphs, CYK string recognition as the external oracle
(CFPQ on a chain *is* string parsing — the bridge back to Valiant).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.gll import solve_gll
from repro.baselines.hellings import solve_hellings
from repro.core.matrix_cfpq import solve_matrix_relations
from repro.core.naive_closure import solve_naive
from repro.grammar.cnf import to_cnf
from repro.grammar.parser import parse_grammar
from repro.grammar.recognizer import cyk_recognize
from repro.grammar.symbols import Nonterminal
from repro.graph.generators import random_graph, two_cycles, word_chain
from repro.graph.labeled_graph import LabeledGraph

S = Nonterminal("S")

GRAMMARS = {
    "anbn": parse_grammar("S -> a S b | a b", terminals=["a", "b"]),
    "dyck": parse_grammar("S -> a S b | a b | S S", terminals=["a", "b"]),
    "left-recursive": parse_grammar("S -> S a | a", terminals=["a"]),
    "two-nonterminals": parse_grammar(
        "S -> A S | A\nA -> a | b", terminals=["a", "b"]
    ),
}


def all_solver_answers(graph, grammar) -> dict[str, frozenset]:
    """R_S from every implementation."""
    cnf = to_cnf(grammar)
    return {
        "naive": solve_naive(graph, cnf, normalize=False).relations.pairs(S),
        "dense": solve_matrix_relations(graph, cnf, backend="dense",
                                        normalize=False).pairs(S),
        "sparse": solve_matrix_relations(graph, cnf, backend="sparse",
                                         normalize=False).pairs(S),
        "setmatrix": solve_matrix_relations(graph, cnf,
                                            backend="setmatrix",
                                            normalize=False).pairs(S),
        "hellings": solve_hellings(graph, cnf, normalize=False).pairs(S),
        "gll": solve_gll(graph, grammar, nonterminals=[S]).pairs(S),
    }


def assert_all_agree(graph, grammar, context=""):
    answers = all_solver_answers(graph, grammar)
    reference = answers["naive"]
    for name, pairs in answers.items():
        assert pairs == reference, (
            f"{name} disagrees with naive {context}: "
            f"only_{name}={sorted(pairs - reference)[:5]} "
            f"only_naive={sorted(reference - pairs)[:5]}"
        )
    return reference


class TestFixedCases:
    def test_chain_aabb(self):
        for name, grammar in GRAMMARS.items():
            if name == "left-recursive":
                continue
            assert_all_agree(word_chain(["a", "a", "b", "b"]), grammar, name)

    def test_left_recursion_on_a_chain(self):
        graph = word_chain(["a"] * 5)
        pairs = assert_all_agree(graph, GRAMMARS["left-recursive"])
        assert pairs == {(i, j) for i in range(6) for j in range(i + 1, 6)}

    def test_two_cycles_all_grammars(self):
        graph = two_cycles(2, 3)
        for name, grammar in GRAMMARS.items():
            assert_all_agree(graph, grammar, name)

    def test_empty_graph(self):
        for grammar in GRAMMARS.values():
            assert_all_agree(LabeledGraph(), grammar)

    def test_paper_queries_on_paper_graph(self):
        from repro.grammar.builders import (
            same_generation_query1,
            same_generation_query2,
        )
        from repro.graph.generators import paper_example_graph

        graph = paper_example_graph()
        assert_all_agree(graph, same_generation_query1())
        assert_all_agree(graph, same_generation_query2())


class TestChainEqualsStringParsing:
    """On a chain spelling w, (0, |w|) ∈ R_S iff S ⇒* w (CYK oracle)."""

    WORDS = ["ab", "aabb", "abab", "ba", "aab", "abba", "aaabbb"]

    def test_against_cyk(self):
        for name, grammar in GRAMMARS.items():
            cnf = to_cnf(grammar)
            for word in self.WORDS:
                graph = word_chain(list(word))
                pairs = solve_matrix_relations(graph, cnf,
                                               normalize=False).pairs(S)
                expected = cyk_recognize(cnf, S, list(word))
                assert ((0, len(word)) in pairs) == expected, (name, word)


@given(
    seed=st.integers(0, 10_000),
    node_count=st.integers(2, 8),
    edge_count=st.integers(1, 24),
    grammar_name=st.sampled_from(sorted(GRAMMARS)),
)
@settings(max_examples=60, deadline=None)
def test_all_solvers_agree_on_random_graphs(seed, node_count, edge_count,
                                            grammar_name):
    graph = random_graph(node_count, edge_count, ["a", "b"], seed=seed)
    assert_all_agree(graph, GRAMMARS[grammar_name],
                     f"seed={seed} grammar={grammar_name}")
