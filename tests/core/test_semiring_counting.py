"""Differential tests for the counting semiring.

Three independent references pin the counting closure down:

* a **brute-force derivation-tree enumerator** (recursive over the
  grammar and graph, no closure machinery) on DAG inputs, where the
  derivation forest is acyclic and tree counts are finite — at every
  cap and on both cell layouts, since a saturated count is the true
  count clipped to the cap;
* **hand-checked pump cycles** at small caps, plus, on random cyclic
  inputs, Algorithm 1's relation as the cell set and the clipping
  identity between caps (cap ``c`` counts are the default cap's counts
  clipped to ``c``);
* the **length-stratified path-counting DP**
  (:meth:`repro.core.path_index.AllPathIndex.count_paths`), which runs
  the same saturating scalar arithmetic over the forest and must agree
  with bounded brute-force path enumeration.

Randomized cases reuse the seeded generators of
``test_semiring_differential`` (deterministic, no hypothesis database).
"""

from __future__ import annotations

import random
import sys
import time
from functools import lru_cache
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
from test_semiring_differential import (  # noqa: E402
    brute_force_paths,
    make_case,
)

from repro.core import semiring as semiring_module  # noqa: E402
from repro.core.matrix_cfpq import solve_matrix_relations  # noqa: E402
from repro.core.naive_closure import solve_naive  # noqa: E402
from repro.core.path_index import AllPathIndex  # noqa: E402
from repro.core.semiring import (  # noqa: E402
    COUNTING_SEMIRING,
    DEFAULT_COUNTING_CAP,
    AnnotatedMatrix,
    CountingSemiring,
    solve_annotated,
)
from repro.datasets.registry import build_graph  # noqa: E402
from repro.errors import EngineError  # noqa: E402
from repro.grammar.builders import same_generation_query1  # noqa: E402
from repro.grammar.cfg import CFG  # noqa: E402
from repro.grammar.cnf import to_cnf  # noqa: E402
from repro.grammar.production import Production  # noqa: E402
from repro.grammar.parser import parse_grammar  # noqa: E402
from repro.grammar.symbols import Nonterminal, Terminal  # noqa: E402
from repro.graph.generators import chain, two_cycles  # noqa: E402
from repro.graph.labeled_graph import LabeledGraph  # noqa: E402

SEEDS = tuple(range(8))
CAPS = (1, 7, 64, DEFAULT_COUNTING_CAP)
LAYOUTS = ("array", "dict")
_LABELS = ("a", "b")
_NONTERMINALS = ("S", "A", "B")


def closure_counts(graph, grammar, cap: int, layout: str,
                   monkeypatch) -> dict:
    """``(nonterminal, i, j) -> count`` from the library's closure on
    the requested cell layout (``dict`` is what a NumPy-less host
    runs)."""
    if layout == "dict":
        monkeypatch.setattr(semiring_module, "ScalarAnnotatedMatrix", None)
    elif semiring_module.ScalarAnnotatedMatrix is None:
        pytest.skip("the array layout needs NumPy")
    result = solve_annotated(graph, grammar, CountingSemiring(cap=cap),
                             normalize=False)
    dict_cells = [isinstance(matrix, AnnotatedMatrix)
                  for matrix in result.matrices.values()]
    assert all(dict_cells) if layout == "dict" else not any(dict_cells)
    return {
        (nonterminal, i, j): value
        for nonterminal, matrix in result.matrices.items()
        for i, j, value in matrix.nonzero_cells()
    }


def make_dag_case(seed: int, max_nodes: int = 6, max_edges: int = 10):
    """A random **DAG** (edges strictly forward in node order) and a CNF
    grammar with no ε-productions: every effective split then strictly
    shrinks its span, the derivation forest is acyclic, and derivation
    counts are finite — the regime where brute-force tree enumeration
    terminates and the counting closure must be exact."""
    rng = random.Random(0xBEEF ^ seed)
    productions = []
    for _ in range(rng.randint(2, 6)):
        head = Nonterminal(rng.choice(_NONTERMINALS))
        if rng.random() < 0.5:
            body = (Terminal(rng.choice(_LABELS)),)
        else:
            body = tuple(
                Nonterminal(rng.choice(_NONTERMINALS))
                if rng.random() < 0.6 else Terminal(rng.choice(_LABELS))
                for _ in range(2)
            )
        productions.append(Production(head, body))
    grammar = to_cnf(CFG(productions))
    n = rng.randint(3, max_nodes)
    edges = set()
    for _ in range(rng.randint(2, max_edges)):
        i = rng.randrange(0, n - 1)
        j = rng.randrange(i + 1, n)
        edges.add((i, rng.choice(_LABELS), j))
    graph = LabeledGraph.from_edges(sorted(edges), nodes=list(range(n)))
    return graph, grammar


def brute_force_tree_count(graph, grammar, nonterminal: Nonterminal,
                           i: int, j: int) -> int:
    """Enumerate derivation trees as explicit objects and count the
    distinct set — completely independent of the closure's arithmetic.
    Only valid when the derivation forest is acyclic (DAG graphs, no
    ε-productions); the guard assert trips otherwise."""
    pair_rules = [
        (rule.head, rule.body[0], rule.body[1])
        for rule in grammar.binary_rules
    ]
    edge_labels: dict[tuple[int, int], set] = {}
    for a, label, b in graph.edges_by_id():
        edge_labels.setdefault((a, b), set()).add(label)
    memo: dict = {}
    in_progress: set = set()

    def trees(head: Nonterminal, a: int, b: int) -> frozenset:
        # No ε-productions and forward-only edges: every derivation of
        # (head, a, b) spans at least one edge, so a < b and every
        # split's midpoint lies strictly inside the span — spans shrink
        # at each recursion and the enumeration terminates.
        assert not grammar.nullable_diagonal
        if a >= b:
            return frozenset()
        key = (head, a, b)
        if key in memo:
            return memo[key]
        assert key not in in_progress, "cyclic derivation forest"
        in_progress.add(key)
        found = set()
        for label in edge_labels.get((a, b), ()):
            if head in grammar.heads_for_terminal(Terminal(label)):
                found.add(("edge", label))
        for rule_head, left, right in pair_rules:
            if rule_head != head:
                continue
            for r in range(a + 1, b):
                for left_tree in trees(left, a, r):
                    for right_tree in trees(right, r, b):
                        found.add((("split", left.name, right.name, r),
                                   left_tree, right_tree))
        in_progress.discard(key)
        memo[key] = frozenset(found)
        return memo[key]

    return len(trees(nonterminal, i, j))


@lru_cache(maxsize=None)
def dag_tree_counts(seed: int) -> dict:
    """``(nonterminal, i, j) -> tree count`` over every cell of
    :func:`make_dag_case` *seed* that has a derivation."""
    graph, grammar = make_dag_case(seed)
    nodes = range(graph.node_count)
    counts = {
        (nonterminal, i, j): brute_force_tree_count(graph, grammar,
                                                    nonterminal, i, j)
        for nonterminal in grammar.nonterminals for i in nodes for j in nodes
    }
    return {cell: count for cell, count in counts.items() if count}


class TestClosureCountsAgainstBruteForce:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_dag_counts_match_tree_enumeration(self, seed):
        graph, grammar = make_dag_case(seed)
        result = solve_annotated(graph, grammar, COUNTING_SEMIRING)
        checked = 0
        for nonterminal, matrix in result.matrices.items():
            for i, j, value in matrix.nonzero_cells():
                expected = brute_force_tree_count(graph, grammar,
                                                  nonterminal, i, j)
                assert COUNTING_SEMIRING.count(value) == expected, (
                    seed, nonterminal, i, j)
                assert expected >= 1
                checked += 1
        # Nonzero cells exist in most seeds; the suite as a whole must
        # actually have exercised the comparison.
        if checked == 0:
            pytest.skip("seed produced an empty relation")

    def test_saturation_pins_cyclic_cells_at_cap(self):
        semiring = CountingSemiring(cap=7, name="counting[test-7]")
        grammar = to_cnf(CFG.from_mapping(
            {"S": [["a", "S", "b"], ["a", "b"], ["S", "S"]]},
            terminals=["a", "b"]))
        # The a/b-cycle 2 -> 3 -> 2 yields S(2, 2), so S -> S S pumps
        # infinitely many derivations of S(0, 2); the capped closure
        # must terminate and saturate.
        graph = LabeledGraph.from_edges(
            [(0, "a", 1), (1, "b", 2), (2, "a", 3), (3, "b", 2)]
        )
        result = solve_annotated(graph, grammar, semiring)
        matrix = result.matrices[Nonterminal("S")]
        counts = {(i, j): semiring.count(value)
                  for i, j, value in matrix.nonzero_cells()}
        assert counts[(0, 2)] == 7

    def test_default_cap_saturates_cyclic_graphs_promptly(self):
        """Saturation costs O(cap) refinement rounds on a count-1 pump
        cycle, so the *default* instance must stay usable on cyclic
        inputs — the regression that pinned DEFAULT_COUNTING_CAP low."""
        from repro.graph.generators import two_cycles

        grammar = to_cnf(CFG.from_mapping(
            {"S": [["a", "S", "b"], ["a", "b"]]}, terminals=["a", "b"]))
        started = time.perf_counter()
        result = solve_annotated(two_cycles(2, 3), grammar,
                                 COUNTING_SEMIRING)
        assert time.perf_counter() - started < 30
        counts = [COUNTING_SEMIRING.count(value)
                  for matrix in result.matrices.values()
                  for _i, _j, value in matrix.nonzero_cells()]
        assert counts
        assert max(counts) == COUNTING_SEMIRING.cap  # cyclic: saturated



def _funding_with_pump():
    """funding · Q1 plus ``S -> S L``, ``L -> loop`` and one ``loop``
    self-loop on the node most ``S`` facts end in: those facts' counts
    creep to the cap by a constant per round."""
    graph = build_graph("funding", use_cache=False)  # mutated below
    incoming: dict = {}
    for _i, j in solve_matrix_relations(
            graph, same_generation_query1()).pairs("S"):
        incoming[j] = incoming.get(j, 0) + 1
    busiest = graph.node_at(max(sorted(incoming), key=incoming.__getitem__))
    graph.add_edge(busiest, "loop", busiest)
    grammar = parse_grammar(
        """
        S -> subClassOf_r S subClassOf | type_r S type
        S -> subClassOf_r subClassOf | type_r type
        S -> S L
        L -> loop
        """,
        terminals=["subClassOf", "subClassOf_r", "type", "type_r", "loop"])
    return graph, to_cnf(grammar)


def _chain_with_loop():
    graph = chain(2000)
    graph.add_edge(1000, "b", 1000)
    return graph, to_cnf(parse_grammar("S -> S b | a",
                                       terminals=["a", "b"]))


def _anbn_two_cycles():
    return two_cycles(2, 3), to_cnf(parse_grammar(
        "S -> a S b | a b", terminals=["a", "b"]))


#: Pump cycles: counts grow by a constant (or periodic) amount per
#: round, so the closure runs O(cap) rounds of small increments.
PUMP_INPUTS = {
    "funding+pump": _funding_with_pump,
    "chain+loop": _chain_with_loop,
    "anbn-two-cycles": _anbn_two_cycles,
}


def _cnf(rules: str, terminals: list[str]):
    return to_cnf(parse_grammar(rules, terminals=terminals))


def _small_chain_with_loop():
    graph = chain(4)
    graph.add_edge(2, "b", 2)
    return graph, _cnf("S -> S b | a", ["a", "b"])


def _self_loop():
    return (LabeledGraph.from_edges([(0, "a", 0)]),
            _cnf("S -> S S | a", ["a"]))


#: Pump cycles small enough to count by hand: ``(graph, CNF grammar,
#: (relations, cap) -> expected S counts)``.
SMALL_PUMPS = {
    # Each a-edge is one S fact with one derivation, except S(1, 2):
    # the b-loop at 2 rederives it from itself, S(1, 2) ⇐ S(1, 2) b,
    # so it has infinitely many derivations.
    "chain+loop": (*_small_chain_with_loop(), lambda relations, cap: {
        (0, 1): 1, (1, 2): cap, (2, 3): 1, (3, 4): 1}),
    # a^n b^n must turn at node 0 (the only node on both cycles); n
    # and n + 6 reach the same pair, so every S fact has infinitely
    # many derivations.
    "anbn-two-cycles": (*_anbn_two_cycles(), lambda relations, cap: {
        pair: cap for pair in relations.pairs("S")}),
    # S(0, 0) ⇐ S(0, 0) S(0, 0): one node, unboundedly many trees.
    "self-loop": (*_self_loop(), lambda relations, cap: {(0, 0): cap}),
}


class TestClosureCountsAtEveryCap:
    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("cap", CAPS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_dag_counts_are_tree_counts_clipped_to_the_cap(
            self, seed, cap, layout, monkeypatch):
        graph, grammar = make_dag_case(seed)
        expected = {cell: min(count, cap)
                    for cell, count in dag_tree_counts(seed).items()}
        assert closure_counts(graph, grammar, cap, layout,
                              monkeypatch) == expected

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("cap", CAPS[:-1])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_cyclic_counts_clip_the_default_caps_counts(
            self, seed, cap, layout, monkeypatch):
        """Clipping to a cap is a semiring homomorphism, so the least
        fixpoint at a small cap is the default cap's fixpoint clipped;
        either way the cells are exactly Algorithm 1's facts."""
        graph, grammar = make_case(seed)
        default = closure_counts(graph, grammar, DEFAULT_COUNTING_CAP,
                                 layout, monkeypatch)
        relations = solve_naive(graph, grammar, normalize=False).relations
        assert set(default) == {
            (nonterminal, i, j) for nonterminal in grammar.nonterminals
            for i, j in relations.pairs(nonterminal)}
        assert closure_counts(graph, grammar, cap, layout, monkeypatch) \
            == {cell: min(count, cap) for cell, count in default.items()}

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("cap", (1, 2, 7))
    @pytest.mark.parametrize("name", sorted(SMALL_PUMPS))
    def test_small_pumps_match_hand_counts(self, name, cap, layout,
                                           monkeypatch):
        graph, grammar, expected_s = SMALL_PUMPS[name]
        counts = closure_counts(graph, grammar, cap, layout, monkeypatch)
        relations = solve_naive(graph, grammar, normalize=False).relations
        assert set(counts) == {
            (nonterminal, i, j) for nonterminal in grammar.nonterminals
            for i, j in relations.pairs(nonterminal)}
        start = Nonterminal("S")
        assert {(i, j): count for (nonterminal, i, j), count in counts.items()
                if nonterminal == start} == expected_s(relations, cap)

    @pytest.mark.parametrize("name", sorted(PUMP_INPUTS))
    def test_pump_inputs_saturate_alike_on_both_layouts(self, name,
                                                        monkeypatch):
        graph, grammar = PUMP_INPUTS[name]()
        on_arrays = closure_counts(graph, grammar, DEFAULT_COUNTING_CAP,
                                   "array", monkeypatch)
        assert max(on_arrays.values()) == DEFAULT_COUNTING_CAP
        assert closure_counts(graph, grammar, DEFAULT_COUNTING_CAP, "dict",
                              monkeypatch) == on_arrays


class TestLayouts:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_counts_identical_across_layouts(self, seed, monkeypatch):
        graph, grammar = make_case(seed)
        on_arrays = closure_counts(graph, grammar, 64, "array", monkeypatch)
        assert closure_counts(graph, grammar, 64, "dict",
                              monkeypatch) == on_arrays

    @pytest.mark.parametrize("seed", SEEDS)
    def test_cap_beyond_int64_products_counts_on_python_ints(self, seed):
        """A cap whose squared counts could wrap int64 takes the dict
        layout on its own; DAG counts are far below either cap, so the
        totals must not notice."""
        if semiring_module.ScalarAnnotatedMatrix is None:
            pytest.skip("the array layout needs NumPy")
        graph, grammar = make_dag_case(seed)
        huge = solve_annotated(graph, grammar, CountingSemiring(cap=1 << 40))
        default = solve_annotated(graph, grammar, COUNTING_SEMIRING)
        assert all(isinstance(matrix, AnnotatedMatrix)
                   for matrix in huge.matrices.values())
        assert not any(isinstance(matrix, AnnotatedMatrix)
                       for matrix in default.matrices.values())
        for nonterminal, matrix in default.matrices.items():
            assert (sorted(huge.matrices[nonterminal].nonzero_cells())
                    == sorted(matrix.nonzero_cells()))

    def test_strategy_does_not_apply(self):
        """⊕ is not idempotent, so no worklist strategy may close the
        counts: whatever ``strategy`` says, the Kleene loop runs, and it
        refuses the tile options it would not read."""
        graph, grammar = make_case(5)
        default = solve_annotated(graph, grammar, COUNTING_SEMIRING)
        blocked = solve_annotated(graph, grammar, COUNTING_SEMIRING,
                                  strategy="blocked")
        with pytest.raises(EngineError, match="not 'kleene_closure'"):
            solve_annotated(graph, grammar, COUNTING_SEMIRING,
                            strategy="blocked", tile_size=2)
        assert blocked.iterations == default.iterations
        assert blocked.multiplications == default.multiplications
        for nonterminal, matrix in default.matrices.items():
            assert (list(blocked.matrices[nonterminal].nonzero_cells())
                    == list(matrix.nonzero_cells()))


class TestPathCountDP:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_bounded_counts_match_brute_force_paths(self, seed):
        graph, grammar = make_case(seed)
        index = AllPathIndex.build(graph, grammar)
        checked = 0
        for nonterminal in grammar.nonterminals:
            for i, j in sorted(index.relations.pairs(nonterminal))[:6]:
                expected = len(brute_force_paths(graph, grammar,
                                                 nonterminal, i, j, 5))
                assert index.count_paths(nonterminal, i, j,
                                         max_length=5) == expected, (
                    seed, nonterminal, i, j)
                checked += 1
        if checked == 0:
            pytest.skip("seed produced an empty relation")

    def test_dp_uses_the_semirings_saturating_arithmetic(self):
        semiring = CountingSemiring(cap=5, name="counting[test-5]")
        grammar = to_cnf(CFG.from_mapping(
            {"S": [["T"], ["T", "S"]], "T": [["a"], ["b"]]},
            terminals=["a", "b"]))
        # Two parallel labels per hop: 2^4 = 16 distinct paths 0 -> 4.
        edges = []
        for hop in range(4):
            edges += [(hop, "a", hop + 1), (hop, "b", hop + 1)]
        graph = LabeledGraph.from_edges(edges)
        index = AllPathIndex.build(graph, grammar)
        assert index.count_paths("S", 0, 4, max_length=8,
                                 semiring=semiring) == 5
        assert index.count_paths("S", 0, 4, max_length=8) == 16

    def test_dp_count_equals_closure_count_when_unambiguous(self):
        """Satellite invariant: the forest DP and the closure-level
        counting annotation are the same arithmetic — on an acyclic,
        unambiguous case their totals coincide exactly."""
        grammar = to_cnf(CFG.from_mapping(
            {"S": [["a", "S", "b"], ["a", "b"]]}, terminals=["a", "b"]))
        graph = LabeledGraph.from_edges(
            [(0, "a", 1), (1, "b", 2), (0, "a", 3), (3, "b", 2)]
        )
        closure = solve_annotated(graph, grammar, COUNTING_SEMIRING)
        cell = {
            (i, j): value
            for i, j, value in
            closure.matrices[Nonterminal("S")].nonzero_cells()
        }[(0, 2)]
        index = AllPathIndex.build(graph, grammar)
        assert COUNTING_SEMIRING.count(cell) \
            == index.count_paths("S", 0, 2, max_length=10) == 2
