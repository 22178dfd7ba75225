"""Tests for the Section 2 closures, including the Theorem 1 equivalence."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.closure import available_strategies
from repro.core.transitive_closure import (
    boolean_closure_delta,
    boolean_closure_incremental,
    boolean_closure_naive,
    boolean_closure_warshall,
    closure_cf,
    closure_cf_history,
    closure_valiant,
    engine_closure,
)
from repro.grammar.parser import parse_grammar
from repro.grammar.symbols import Nonterminal
from repro.matrices.base import available_backends, get_backend
from repro.matrices.setmatrix import SetMatrix

GRAMMAR = parse_grammar(
    """
    S -> A B
    S -> A S1
    S1 -> S B
    A -> a
    B -> b
    """,
    terminals=["a", "b"],
)
NT = {name: Nonterminal(name) for name in ["S", "S1", "A", "B"]}


def chain_matrix(word: str) -> SetMatrix:
    """Initial matrix of a chain spelling *word* (Valiant's setting)."""
    cells = {}
    for position, char in enumerate(word):
        head = NT["A"] if char == "a" else NT["B"]
        cells[(position, position + 1)] = [head]
    return SetMatrix(len(word) + 1, GRAMMAR, cells)


class TestClosureCf:
    def test_recognizes_anbn_on_chain(self):
        closed = closure_cf(chain_matrix("aabb"))
        assert NT["S"] in closed[(0, 4)]
        assert NT["S"] in closed[(1, 3)]
        assert NT["S"] not in closed[(0, 3)]

    def test_fixpoint_stable(self):
        closed = closure_cf(chain_matrix("ab"))
        again = closed.union(closed.multiply(closed))
        assert again == closed

    def test_max_iterations_cutoff(self):
        partial = closure_cf(chain_matrix("a" * 8 + "b" * 8), max_iterations=1)
        full = closure_cf(chain_matrix("a" * 8 + "b" * 8))
        assert full.dominates(partial)
        assert partial != full

    def test_history_monotone(self):
        history = closure_cf_history(chain_matrix("aabb"))
        for earlier, later in zip(history, history[1:]):
            assert later.dominates(earlier)
        assert history[-1] == history[-2]


class TestTheorem1Equivalence:
    """a+ (Valiant) == a_cf (paper) — checked by computing Valiant's
    union up to the power where it saturates."""

    def test_on_chains(self):
        for word in ["ab", "aabb", "abab", "aabbab"]:
            matrix = chain_matrix(word)
            cf = closure_cf(matrix)
            # a(i)+ saturates at i = size (no longer derivations exist)
            valiant = closure_valiant(matrix, matrix.size + 1)
            assert cf == valiant, word

    def test_on_cyclic_matrix(self):
        # a-loop and b-loop arranged in a 2-cycle: S appears everywhere
        # a^n b^n paths exist.
        cells = {(0, 1): [NT["A"]], (1, 0): [NT["B"]]}
        matrix = SetMatrix(2, GRAMMAR, cells)
        cf = closure_cf(matrix)
        valiant = closure_valiant(matrix, 8)
        # On cyclic inputs a+ needs unboundedly many powers; up to the
        # saturation of this small example they must agree.
        assert cf == valiant

    def test_valiant_power_one_is_input(self):
        matrix = chain_matrix("ab")
        assert closure_valiant(matrix, 1) == matrix


class TestBooleanClosures:
    def test_all_strategies_agree(self, backend_name):
        backend = get_backend(backend_name)
        pairs = {(0, 1), (1, 2), (2, 3), (3, 1), (4, 4)}
        matrix = backend.from_pairs(6, pairs)
        naive = boolean_closure_naive(matrix).to_pair_set()
        incremental = boolean_closure_incremental(matrix).to_pair_set()
        warshall = boolean_closure_warshall(matrix).to_pair_set()
        assert naive == incremental == warshall

    def test_closure_of_chain(self, backend_name):
        backend = get_backend(backend_name)
        matrix = backend.from_pairs(4, [(0, 1), (1, 2), (2, 3)])
        closed = boolean_closure_naive(matrix).to_pair_set()
        assert closed == {(i, j) for i in range(4) for j in range(i + 1, 4)}

    def test_closure_of_cycle_is_complete(self, backend_name):
        backend = get_backend(backend_name)
        matrix = backend.from_pairs(3, [(0, 1), (1, 2), (2, 0)])
        closed = boolean_closure_naive(matrix).to_pair_set()
        assert closed == {(i, j) for i in range(3) for j in range(3)}


class TestEngineClosure:
    """``A⁺`` as the grammar ``R → R R`` on the closure engine: every
    strategy on every backend reaches the Floyd–Warshall closure, on
    acyclic and cyclic inputs."""

    GRAPHS = {
        "chain": (6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]),
        "cycle-with-tail": (6, [(0, 1), (1, 2), (2, 3), (3, 1), (4, 4)]),
        "two-components": (7, [(0, 1), (1, 0), (2, 3), (3, 4), (4, 2),
                               (5, 6), (6, 2)]),
    }

    @pytest.mark.parametrize("strategy", available_strategies())
    @pytest.mark.parametrize("graph_name", sorted(GRAPHS))
    def test_matches_warshall(self, strategy, graph_name, backend_name):
        size, pairs = self.GRAPHS[graph_name]
        matrix = get_backend(backend_name).from_pairs(size, pairs)
        closed = engine_closure(matrix, strategy)
        expected = boolean_closure_warshall(matrix).to_pair_set()
        assert closed.to_pair_set() == expected, (strategy, graph_name)
        assert closed.backend_name == backend_name

    def test_input_is_not_modified(self, backend_name):
        pairs = {(0, 1), (1, 2), (2, 0)}
        matrix = get_backend(backend_name).from_pairs(3, pairs)
        closed = boolean_closure_delta(matrix)
        assert closed.nnz() == 9
        assert matrix.to_pair_set() == pairs


pair_sets = st.sets(
    st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=10
)


@given(pairs=pair_sets)
@settings(max_examples=80, deadline=None)
def test_boolean_closure_strategies_agree_property(pairs):
    backend = get_backend("setmatrix")
    matrix = backend.from_pairs(5, pairs)
    naive = boolean_closure_naive(matrix).to_pair_set()
    incremental = boolean_closure_incremental(matrix).to_pair_set()
    delta = boolean_closure_delta(matrix).to_pair_set()
    warshall = boolean_closure_warshall(matrix).to_pair_set()
    assert naive == incremental == delta == warshall


@given(pairs=pair_sets)
@settings(max_examples=50, deadline=None)
def test_boolean_closure_idempotent(pairs):
    backend = get_backend("setmatrix")
    closed = boolean_closure_naive(backend.from_pairs(5, pairs))
    assert boolean_closure_naive(closed).same_pairs(closed)
