"""Tests for the set-valued matrix (the paper's direct formalization)."""

import pytest

from repro.errors import DimensionMismatchError
from repro.grammar.parser import parse_grammar
from repro.grammar.symbols import Nonterminal
from repro.matrices.setmatrix import SetMatrix, initial_matrix

S, A, B = Nonterminal("S"), Nonterminal("A"), Nonterminal("B")


@pytest.fixture
def grammar():
    return parse_grammar(
        """
        S -> A B
        A -> a
        B -> b
        """,
        terminals=["a", "b"],
    )


def test_empty_cells_default(grammar):
    matrix = SetMatrix(2, grammar)
    assert matrix[(0, 0)] == frozenset()
    assert matrix.nonterminal_count() == 0


def test_cells_cleaned_and_frozen(grammar):
    matrix = SetMatrix(2, grammar, {(0, 1): [A], (1, 0): []})
    assert matrix[(0, 1)] == {A}
    assert list(matrix.cells()) == [((0, 1), frozenset({A}))]


def test_out_of_range_cell_rejected(grammar):
    with pytest.raises(ValueError):
        SetMatrix(2, grammar, {(2, 0): [A]})


def test_multiply_uses_grammar_product(grammar):
    # A at (0,1), B at (1,2): product has S at (0,2).
    matrix = SetMatrix(3, grammar, {(0, 1): [A], (1, 2): [B]})
    product = matrix.multiply(matrix)
    assert product[(0, 2)] == {S}
    assert product.nonterminal_count() == 1


def test_multiply_no_rule_no_result(grammar):
    # B then A has no production B A -> ...
    matrix = SetMatrix(3, grammar, {(0, 1): [B], (1, 2): [A]})
    assert matrix.multiply(matrix).nonterminal_count() == 0


def test_union(grammar):
    left = SetMatrix(2, grammar, {(0, 0): [A]})
    right = SetMatrix(2, grammar, {(0, 0): [B], (1, 1): [S]})
    union = left.union(right)
    assert union[(0, 0)] == {A, B}
    assert union[(1, 1)] == {S}


def test_operators(grammar):
    matrix = SetMatrix(3, grammar, {(0, 1): [A], (1, 2): [B]})
    assert (matrix @ matrix)[(0, 2)] == {S}
    assert (matrix | matrix) == matrix


def test_dominates_partial_order(grammar):
    small = SetMatrix(2, grammar, {(0, 0): [A]})
    big = SetMatrix(2, grammar, {(0, 0): [A, B], (1, 1): [S]})
    assert big.dominates(small)
    assert not small.dominates(big)
    assert small.dominates(small)


def test_size_mismatch(grammar):
    with pytest.raises(DimensionMismatchError):
        SetMatrix(2, grammar).multiply(SetMatrix(3, grammar))


def test_pairs_with(grammar):
    matrix = SetMatrix(2, grammar, {(0, 1): [A, S], (1, 0): [S]})
    assert matrix.pairs_with(S) == {(0, 1), (1, 0)}
    assert matrix.pairs_with(B) == frozenset()


def test_equality_and_hash(grammar):
    m1 = SetMatrix(2, grammar, {(0, 1): [A]})
    m2 = SetMatrix(2, grammar, {(0, 1): [A]})
    assert m1 == m2
    assert hash(m1) == hash(m2)


def test_initial_matrix_matches_algorithm1(grammar):
    edges = [(0, "a", 1), (1, "b", 2), (0, "zzz", 2)]
    matrix = initial_matrix(3, grammar, edges)
    assert matrix[(0, 1)] == {A}
    assert matrix[(1, 2)] == {B}
    assert matrix[(0, 2)] == frozenset()  # unknown label ignored


def test_initial_matrix_multi_edge_union():
    grammar = parse_grammar("A -> x\nB -> y", terminals=["x", "y"])
    matrix = initial_matrix(2, grammar, [(0, "x", 1), (0, "y", 1)])
    assert matrix[(0, 1)] == {Nonterminal("A"), Nonterminal("B")}


def test_render_contains_subsets(grammar):
    matrix = SetMatrix(2, grammar, {(0, 1): [A, S]})
    text = matrix.render()
    assert "{A,S}" in text
    assert "." in text
