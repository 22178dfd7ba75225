"""Tests for the CFG container and its query indexes."""

import pytest

from repro.errors import NotInNormalFormError
from repro.grammar.cfg import CFG
from repro.grammar.parser import parse_grammar
from repro.grammar.production import production
from repro.grammar.symbols import Nonterminal, Terminal


@pytest.fixture
def cnf_grammar() -> CFG:
    return parse_grammar(
        """
        S -> A B
        S -> A S1
        S1 -> S B
        A -> a
        B -> b
        """,
        terminals=["a", "b"],
    )


def test_symbol_collection(cnf_grammar):
    assert cnf_grammar.nonterminals == {
        Nonterminal("S"), Nonterminal("S1"), Nonterminal("A"), Nonterminal("B")
    }
    assert cnf_grammar.terminals == {Terminal("a"), Terminal("b")}


def test_duplicate_productions_removed():
    p = production("A", "a", terminals={"a"})
    grammar = CFG([p, p, p])
    assert len(grammar) == 1


def test_productions_for_head(cnf_grammar):
    heads = cnf_grammar.productions_for(Nonterminal("S"))
    assert len(heads) == 2
    assert cnf_grammar.productions_for(Nonterminal("Missing")) == ()


def test_heads_for_terminal(cnf_grammar):
    assert cnf_grammar.heads_for_terminal(Terminal("a")) == {Nonterminal("A")}
    assert cnf_grammar.heads_for_terminal(Terminal("zzz")) == frozenset()


def test_heads_for_label_is_heads_for_terminal_by_text(cnf_grammar):
    for label in ("a", "b", "zzz"):
        assert cnf_grammar.heads_for_label(label) \
            == cnf_grammar.heads_for_terminal(Terminal(label))
    assert cnf_grammar.heads_for_label("a") == {Nonterminal("A")}


def test_heads_for_pair(cnf_grammar):
    assert cnf_grammar.heads_for_pair(Nonterminal("A"), Nonterminal("B")) == {
        Nonterminal("S")
    }
    assert cnf_grammar.heads_for_pair(Nonterminal("B"), Nonterminal("A")) == frozenset()


def test_subset_product_matches_paper_definition(cnf_grammar):
    n1 = {Nonterminal("A"), Nonterminal("S")}
    n2 = {Nonterminal("B"), Nonterminal("S1")}
    # A·B -> S; S·B -> S1; A·S1 -> S
    assert cnf_grammar.subset_product(n1, n2) == {
        Nonterminal("S"), Nonterminal("S1")
    }


def test_subset_product_empty_inputs(cnf_grammar):
    assert cnf_grammar.subset_product(set(), {Nonterminal("B")}) == set()
    assert cnf_grammar.subset_product({Nonterminal("A")}, set()) == set()


def test_is_cnf(cnf_grammar, anbn_grammar):
    assert cnf_grammar.is_cnf
    assert not anbn_grammar.is_cnf


def test_require_cnf_raises_with_offenders(anbn_grammar):
    with pytest.raises(NotInNormalFormError) as excinfo:
        anbn_grammar.require_cnf("testing")
    assert "testing" in str(excinfo.value)


def test_binary_and_terminal_rule_views(cnf_grammar):
    assert sum(1 for _ in cnf_grammar.binary_rules) == 3
    assert sum(1 for _ in cnf_grammar.terminal_rules) == 2
    assert sum(1 for _ in cnf_grammar.epsilon_rules) == 0


def test_extra_symbols_declared():
    grammar = CFG(
        [production("A", "a", terminals={"a"})],
        extra_nonterminals=[Nonterminal("Unused")],
        extra_terminals=[Terminal("z")],
    )
    assert Nonterminal("Unused") in grammar.nonterminals
    assert Terminal("z") in grammar.terminals


def test_equality_and_hash(cnf_grammar):
    clone = CFG(cnf_grammar.productions)
    assert clone == cnf_grammar
    assert hash(clone) == hash(cnf_grammar)


def test_from_mapping():
    grammar = CFG.from_mapping(
        {"S": [["a", "S", "b"], ["a", "b"]]}, terminals=["a", "b"]
    )
    assert len(grammar) == 2
    assert grammar.terminals == {Terminal("a"), Terminal("b")}


def test_to_text_round_trip(cnf_grammar):
    text = cnf_grammar.to_text()
    reparsed = parse_grammar(text, terminals=["a", "b"])
    assert set(reparsed.productions) == set(cnf_grammar.productions)


def test_iteration_and_len(cnf_grammar):
    assert len(list(cnf_grammar)) == len(cnf_grammar) == 5
