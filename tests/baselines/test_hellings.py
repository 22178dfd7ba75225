"""Tests for the Hellings worklist baseline."""

import pytest

from repro.baselines.hellings import solve_hellings
from repro.errors import NotInNormalFormError
from repro.grammar.parser import parse_grammar
from repro.grammar.symbols import Nonterminal
from repro.graph.generators import two_cycles, word_chain
from repro.graph.labeled_graph import LabeledGraph

S = Nonterminal("S")


def test_anbn_on_chain(anbn_grammar):
    relations = solve_hellings(word_chain(["a", "a", "b", "b"]), anbn_grammar)
    assert relations.pairs(S) == {(0, 4), (1, 3)}


def test_requires_cnf_without_normalize(anbn_grammar):
    with pytest.raises(NotInNormalFormError):
        solve_hellings(word_chain(["a", "b"]), anbn_grammar, normalize=False)


def test_all_nonterminals_reported(ab_cnf_grammar):
    relations = solve_hellings(word_chain(["a", "b"]), ab_cnf_grammar,
                               normalize=False)
    assert relations.pairs("A") == {(0, 1)}
    assert relations.pairs("B") == {(1, 2)}
    assert relations.pairs("S") == {(0, 2)}
    assert relations.pairs("S1") == frozenset()


def test_cyclic_graph(dyck_grammar):
    relations = solve_hellings(two_cycles(1, 1), dyck_grammar)
    assert (0, 0) in relations.pairs(S)


def test_empty_graph(anbn_grammar):
    relations = solve_hellings(LabeledGraph(), anbn_grammar)
    assert relations.pairs(S) == frozenset()


def test_right_extension_direction():
    """A fact used as the *right* operand of a rule must also trigger
    derivations (regression guard for the two-sided worklist)."""
    # S -> A B. The B-fact is discovered after the A-fact is popped.
    grammar = parse_grammar("S -> A B\nA -> a\nB -> C C\nC -> c",
                            terminals=["a", "c"])
    graph = word_chain(["a", "c", "c"])
    relations = solve_hellings(graph, grammar)
    assert relations.pairs(S) == {(0, 3)}


def test_dense_result_on_coprime_cycles(dyck_grammar):
    """Cycle lengths 2 and 3: every node pair is eventually related —
    the known dense worst case."""
    graph = two_cycles(2, 3)
    relations = solve_hellings(graph, dyck_grammar)
    n = graph.node_count
    # a^i ... b^j loops make S relate many pairs; at minimum every node
    # reaches itself through a^6k b^6k circuits via node 0.
    assert (0, 0) in relations.pairs(S)
    assert len(relations.pairs(S)) >= n


# ----------------------------------------------------------------------
# Row/column layout vs the naive Algorithm 1 oracle
# ----------------------------------------------------------------------

def _grammars():
    from repro.grammar.builders import get_grammar

    return {
        "query1": get_grammar("query1"),
        "query2": get_grammar("query2"),
        "dyck1": get_grammar("dyck1"),
        "nullable": parse_grammar("S -> a S b | S S | eps",
                                  terminals=["a", "b"]),
    }


def _random_graph(rng, grammar, nodes: int, edges: int,
                  isolated: int = 0) -> LabeledGraph:
    labels = sorted(t.label for t in grammar.terminals)
    triples = [(rng.randrange(nodes), rng.choice(labels),
                rng.randrange(nodes)) for _ in range(edges)] if nodes else []
    names = list(range(nodes)) + [f"alone{k}" for k in range(isolated)]
    return LabeledGraph.from_edges(triples, nodes=names)


def _assert_matches_naive(graph, grammar, normalize: bool = True) -> None:
    from repro.core.naive_closure import solve_naive

    expected = solve_naive(graph, grammar, normalize).relations
    actual = solve_hellings(graph, grammar, normalize)
    assert actual.nonterminals == expected.nonterminals
    assert actual.same_as(expected)


@pytest.mark.parametrize("name", ["query1", "query2", "dyck1", "nullable"])
@pytest.mark.parametrize("seed", range(20))
def test_matches_naive_algorithm_1(name, seed):
    """Every ``R_A`` — helper non-terminals of the CNF included — equals
    the set-matrix closure run literally, on random graphs with
    isolated nodes mixed in."""
    import random

    grammar = _grammars()[name]
    rng = random.Random(1000 * seed + len(name))
    graph = _random_graph(rng, grammar, nodes=rng.randrange(1, 9),
                          edges=rng.randrange(0, 20), isolated=seed % 3)
    _assert_matches_naive(graph, grammar)


# ----------------------------------------------------------------------
# Row groups: the cases where a pop joins a whole pending set
# ----------------------------------------------------------------------

#: Rules whose operand is their own head, on either side: popping a row
#: of S extends cols[S] while the right join walks cols[S][i].
HEAD_OPERAND = "S -> S S | S A | A S | a\nA -> b"
#: Two rules with the same head and left operand: one pop of (A, i)
#: hands row (S, i) two fresh sets, which must merge before it is popped.
SHARED_LEFT = "S -> A B | A C | S S\nA -> a\nB -> b\nC -> c | S C"

#: Cycles sharing node 0, a self-loop on each label at one node, and a
#: two-node graph whose every node carries a self-loop.
LOOPY_GRAPHS = {
    "two_cycles_2_3": two_cycles(2, 3),
    "two_cycles_1_1": two_cycles(1, 1),
    "self_loops": LabeledGraph.from_edges(
        [(0, "a", 0), (0, "b", 1), (1, "b", 1), (1, "a", 0), (1, "c", 1)]),
}


@pytest.mark.parametrize("graph_name", sorted(LOOPY_GRAPHS))
@pytest.mark.parametrize("rules", [HEAD_OPERAND, SHARED_LEFT],
                         ids=["head_operand", "shared_left"])
def test_row_groups_on_cycles_and_self_loops(rules, graph_name):
    grammar = parse_grammar(rules, terminals=["a", "b", "c"])
    _assert_matches_naive(LOOPY_GRAPHS[graph_name], grammar)


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("rules", [HEAD_OPERAND, SHARED_LEFT],
                         ids=["head_operand", "shared_left"])
def test_row_groups_on_random_graphs(rules, seed):
    import random

    grammar = parse_grammar(rules, terminals=["a", "b", "c"])
    rng = random.Random(seed)
    graph = _random_graph(rng, grammar, nodes=rng.randrange(1, 7),
                          edges=rng.randrange(0, 16))
    _assert_matches_naive(graph, grammar)


# ----------------------------------------------------------------------
# Static operands: joins run only from an operand that can still grow
# ----------------------------------------------------------------------

#: One grammar per way a pair rule's operands can be static (heading no
#: pair rule, so every fact of theirs is a base fact) or derived.
OPERAND_KINDS = {
    "static_right": "S -> S B | A B\nA -> a\nB -> b",
    "static_left": "S -> A S | A B\nA -> a\nB -> b",
    "both_static": "S -> A B\nA -> a\nB -> b",
    "static_nullable": "S -> S N | N S | a\nN -> b | eps",
    "derived_both": "S -> S S | a",
}


def _operand_grammar(kind: str):
    grammar = parse_grammar(OPERAND_KINDS[kind], terminals=["a", "b", "c"])
    if kind == "static_nullable":
        from repro.grammar.cnf import ensure_cnf

        cnf = ensure_cnf(grammar)
        nullable = Nonterminal("N")
        assert nullable in cnf.nullable_diagonal
        assert all(rule.head != nullable for rule in cnf.binary_rules)
    return grammar


@pytest.mark.parametrize("graph_name", sorted(LOOPY_GRAPHS))
@pytest.mark.parametrize("kind", sorted(OPERAND_KINDS))
def test_static_operands_on_cycles_and_self_loops(kind, graph_name):
    _assert_matches_naive(LOOPY_GRAPHS[graph_name], _operand_grammar(kind))


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("kind", sorted(OPERAND_KINDS))
def test_static_operands_on_random_graphs(kind, seed):
    import random

    grammar = _operand_grammar(kind)
    rng = random.Random(0x57A7 + seed)
    graph = _random_graph(rng, grammar, nodes=rng.randrange(1, 8),
                          edges=rng.randrange(0, 18), isolated=seed % 2)
    _assert_matches_naive(graph, grammar)


@pytest.mark.parametrize("graph_name", sorted(LOOPY_GRAPHS))
def test_prenormalized_grammar_keeps_its_nullable_diagonal(graph_name):
    """``normalize=False`` on a CNF grammar that carries the empty-path
    diagonal: the diagonal seeds rows and pending sets like any fact."""
    from repro.grammar.cnf import ensure_cnf

    grammar = ensure_cnf(_grammars()["nullable"])
    assert grammar.nullable_diagonal
    _assert_matches_naive(LOOPY_GRAPHS[graph_name], grammar, normalize=False)


@pytest.mark.parametrize("name", ["query1", "query2", "dyck1", "nullable"])
def test_zero_node_graph_reports_every_nonterminal_empty(name):
    from repro.core.naive_closure import solve_naive

    grammar = _grammars()[name]
    relations = solve_hellings(LabeledGraph(), grammar)
    assert relations.nonterminals \
        == solve_naive(LabeledGraph(), grammar).relations.nonterminals
    assert all(not relations.pairs(nt) for nt in relations.nonterminals)


def test_isolated_nodes_carry_only_the_nullable_diagonal():
    graph = LabeledGraph.from_edges([(0, "a", 1), (1, "b", 2)],
                                    nodes=[0, 1, 2, "x", "y"])
    relations = solve_hellings(graph, _grammars()["nullable"])
    diagonal = {(i, i) for i in range(graph.node_count)}
    assert relations.pairs(S) == diagonal | {(0, 2)}


def test_nonterminal_without_facts_stays_empty_beside_full_ones():
    """Only ``type`` edges: the ``subClassOf`` helpers of query1 have
    no facts, their rows and columns are never created, and the rules
    through them derive nothing."""
    from repro.core.naive_closure import solve_naive

    grammar = _grammars()["query1"]
    graph = LabeledGraph.from_edges(
        [(0, "type", 1), (1, "type_r", 0), (2, "type", 1), (1, "type_r", 2)])
    relations = solve_hellings(graph, grammar)
    assert relations.same_as(solve_naive(graph, grammar).relations)
    assert relations.pairs(S) == {(1, 1)}
    empty = [nt for nt in relations.nonterminals if not relations.pairs(nt)]
    assert any("subClassOf" in nt.name for nt in empty)
