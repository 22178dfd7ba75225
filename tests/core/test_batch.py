"""Batched multi-query closure (:mod:`repro.core.batch`).

The contract under test: for every query shape, ``solve_batch`` must
return exactly what filtering a full :func:`solve_matrix` relation
would — across backends and strategies — while the masked path never
materializes the all-pairs relation for restricted queries.
"""

from __future__ import annotations

import random

import pytest

from repro.core.batch import BatchQuery, as_batch_query, solve_batch
from repro.core.matrix_cfpq import solve_matrix
from repro.errors import GrammarError, SemanticsError
from repro.grammar import parse_grammar
from repro.grammar.symbols import Nonterminal
from repro.graph import LabeledGraph, two_cycles
from repro.matrices import available_backends

S = Nonterminal("S")
STRATEGIES = ("naive", "delta", "blocked")

#: Every strategy with its defaults, plus ``blocked`` under a one-byte
#: budget so each tile of the masked closure round-trips the spill files.
STRATEGY_CASES = [pytest.param(strategy, {}, id=strategy)
                  for strategy in STRATEGIES] + [
    pytest.param("blocked", {"memory_budget": 1, "tile_size": 2},
                 id="blocked-spilled"),
]


@pytest.fixture
def grammar():
    return parse_grammar("S -> a S b | a b", terminals=["a", "b"])


@pytest.fixture
def graph():
    return two_cycles(2, 3, "a", "b")


def _reference(graph, grammar):
    """The oracle: one all-pairs solve, post-filtered per query."""
    return solve_matrix(graph, grammar, backend="pyset").relations \
        .node_pairs(S)


def _expected(pairs, query: BatchQuery):
    restricted = {
        (a, b) for a, b in pairs
        if (query.sources is None or a in query.sources)
        and (query.targets is None or b in query.targets)
    }
    if query.semantics == "membership":
        return bool(restricted)
    return frozenset(restricted)


def _query_shapes(graph):
    nodes = [graph.node_at(i) for i in range(graph.node_count)]
    return [
        BatchQuery(S),                                   # full relation
        BatchQuery(S, sources=frozenset(nodes[:1])),     # single source
        BatchQuery(S, sources=frozenset(nodes[:3])),     # multi source
        BatchQuery(S, sources=frozenset(nodes[:2]),
                   targets=frozenset(nodes[1:4])),       # both restricted
        BatchQuery(S, targets=frozenset(nodes[2:4])),    # target only
        BatchQuery(S, sources=frozenset(nodes[:1]),
                   targets=frozenset(nodes[:1]),
                   semantics="membership"),
        BatchQuery(S, sources=frozenset(nodes),
                   targets=frozenset(nodes),
                   semantics="membership"),
    ]


class TestColdDifferential:
    @pytest.mark.parametrize("strategy, options", STRATEGY_CASES)
    def test_matches_all_pairs_filter(self, graph, grammar, strategy,
                                      options):
        pairs = _reference(graph, grammar)
        queries = _query_shapes(graph)
        for backend in available_backends():
            answers = solve_batch(graph, grammar, queries,
                                  backend=backend, strategy=strategy,
                                  **options)
            for query, answer in zip(queries, answers):
                assert answer == _expected(pairs, query), \
                    (backend, strategy, query)

    @pytest.mark.parametrize("strategy, options", STRATEGY_CASES)
    def test_one_membership_row_per_pair(self, graph, grammar, strategy,
                                         options):
        """Every node pair as its own membership query — one stacked
        mask row each — answers exactly the all-pairs relation."""
        pairs = _reference(graph, grammar)
        nodes = [graph.node_at(i) for i in range(graph.node_count)]
        queries = [BatchQuery(S, sources=frozenset((a,)),
                              targets=frozenset((b,)),
                              semantics="membership")
                   for a in nodes for b in nodes]
        for backend in available_backends():
            answers = solve_batch(graph, grammar, queries,
                                  backend=backend, strategy=strategy,
                                  **options)
            found = {(next(iter(query.sources)), next(iter(query.targets)))
                     for query, answer in zip(queries, answers) if answer}
            assert found == pairs, (backend, strategy)

    def test_nullable_grammar_random_graphs(self):
        nullable = parse_grammar("S -> a S b | a b |",
                                 terminals=["a", "b"])
        rng = random.Random(5)
        for _ in range(3):
            edges = [(rng.randrange(6), rng.choice("ab"), rng.randrange(6))
                     for _ in range(12)]
            graph = LabeledGraph.from_edges(edges)
            pairs = _reference(graph, nullable)
            queries = _query_shapes(graph)
            answers = solve_batch(graph, nullable, queries,
                                  backend="pyset", strategy="delta")
            for query, answer in zip(queries, answers):
                assert answer == _expected(pairs, query), query


class TestEdgeCases:
    def test_empty_batch(self, graph, grammar):
        assert solve_batch(graph, grammar, []) == []

    def test_empty_graph(self, grammar):
        graph = LabeledGraph.from_edges([])
        answers = solve_batch(graph, grammar, [BatchQuery(S)],
                              backend="pyset")
        assert answers == [frozenset()]

    def test_absent_nodes_restrict_to_nothing(self, graph, grammar):
        answers = solve_batch(
            graph, grammar,
            [BatchQuery(S, sources=frozenset(("nope",))),
             BatchQuery(S, sources=frozenset(("nope",)),
                        targets=frozenset(("also-nope",)),
                        semantics="membership")],
            backend="pyset")
        assert answers == [frozenset(), False]

    def test_unknown_nonterminal(self, graph, grammar):
        with pytest.raises(GrammarError):
            solve_batch(graph, grammar, [BatchQuery(Nonterminal("Zed"))])

    def test_membership_requires_both_endpoints(self, graph, grammar):
        with pytest.raises(SemanticsError):
            solve_batch(graph, grammar,
                        [BatchQuery(S, semantics="membership")])

    def test_unknown_semantics(self, graph, grammar):
        with pytest.raises(SemanticsError):
            solve_batch(graph, grammar,
                        [BatchQuery(S, semantics="nope")])


class TestAsBatchQuery:
    def test_dict_spec(self):
        query = as_batch_query({"start": "S", "source": 1, "target": 2,
                                "semantics": "membership"})
        assert str(query.start) == "S"  # coerced to Nonterminal on solve
        assert query.sources == frozenset((1,))
        assert query.targets == frozenset((2,))
        assert query.semantics == "membership"

    def test_dict_plural_keys(self):
        query = as_batch_query({"start": "S", "sources": [1, 2],
                                "targets": [3]})
        assert query.sources == frozenset((1, 2))
        assert query.targets == frozenset((3,))

    def test_tuple_spec(self):
        query = as_batch_query(("S", 1, None))
        assert str(query.start) == "S"
        assert query.sources == frozenset((1,))
        assert query.targets is None

    def test_missing_start_rejected(self):
        with pytest.raises(SemanticsError):
            as_batch_query({"source": 1})
