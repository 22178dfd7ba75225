"""Batched multi-query closure (:mod:`repro.core.batch`).

The contract under test: for every query shape, ``solve_batch`` must
return exactly what filtering a full :func:`solve_matrix` relation
would — across backends and strategies — and it gets there with one
plain ``n × n`` closure of the grammar's own non-terminals, whatever
the batch holds.
"""

from __future__ import annotations

import random

import pytest

from repro.core import matrix_cfpq
from repro.core.batch import BatchQuery, as_batch_query, solve_batch
from repro.core.matrix_cfpq import solve_matrix
from repro.grammar.cnf import ensure_cnf
from repro.errors import GrammarError, SemanticsError
from repro.grammar import parse_grammar
from repro.grammar.symbols import Nonterminal
from repro.graph import LabeledGraph, two_cycles
from repro.matrices import available_backends

S = Nonterminal("S")
STRATEGIES = ("naive", "delta", "blocked")

#: Every strategy with its defaults, plus ``blocked`` under a one-byte
#: budget so each tile of the closure round-trips the spill files.
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
    return solve_matrix(graph, grammar, backend="setmatrix").relations \
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
        """Every node pair as its own membership query — one source
        row read each — answers exactly the all-pairs relation."""
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
                                  backend="setmatrix", strategy="delta")
            for query, answer in zip(queries, answers):
                assert answer == _expected(pairs, query), query


class TestOneClosure:
    """A batch costs one all-pairs closure: no mask symbols, no stacked
    rows, and exactly the products ``solve_matrix`` runs."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_one_plain_closure(self, graph, grammar, strategy, monkeypatch):
        calls = []
        run_closure = matrix_cfpq.run_closure

        def spy(matrices, *args, **kwargs):
            calls.append({symbol: matrix.shape
                          for symbol, matrix in matrices.items()})
            result = run_closure(matrices, *args, **kwargs)
            calls[-1]["multiplications"] = result.multiplications
            return result

        monkeypatch.setattr(matrix_cfpq, "run_closure", spy)
        solve_batch(graph, grammar, _query_shapes(graph),
                    backend="setmatrix", strategy=strategy)
        assert len(calls) == 1
        multiplications = calls[0].pop("multiplications")
        n = graph.node_count
        assert set(calls[0]) == set(ensure_cnf(grammar).nonterminals)
        assert set(calls[0].values()) == {(n, n)}

        monkeypatch.setattr(matrix_cfpq, "run_closure", run_closure)
        alone = solve_matrix(graph, grammar, backend="setmatrix",
                             strategy=strategy)
        assert multiplications == alone.stats.multiplications


class TestReads:
    """After the closure a query is a read of the closed start matrix.
    Every source-restricted query of a start reads its rows from one
    ``mask_rows`` over the union of the batch's present sources; no
    query probes cells one (source, target) pair at a time."""

    def _spy_mask_rows(self, backend, monkeypatch):
        calls = []
        mask_rows = backend.mask_rows

        def spy(matrix, keep):
            keep = set(keep)
            calls.append(keep)
            return mask_rows(matrix, keep)

        monkeypatch.setattr(backend, "mask_rows", spy)
        return calls

    def _count_cell_probes(self, monkeypatch):
        """Count ``closed[i, j]`` reads made after the closure returns
        (the closure's own kernels may index cells)."""
        from repro.core import batch

        probes = []
        solve = batch.solve_matrix

        def closed_then_count(*args, **kwargs):
            result = solve(*args, **kwargs)
            for matrix in result.matrices.values():
                cls = type(matrix)
                getitem = cls.__getitem__

                def counting(self, index, getitem=getitem):
                    probes.append(index)
                    return getitem(self, index)

                monkeypatch.setattr(cls, "__getitem__", counting)
            return result

        monkeypatch.setattr(batch, "solve_matrix", closed_then_count)
        return probes

    def test_one_row_read_per_start(self, graph, grammar, backend,
                                    monkeypatch):
        nodes = [graph.node_at(i) for i in range(graph.node_count)]
        queries = [
            BatchQuery(S),
            BatchQuery(S, sources=frozenset((nodes[0], nodes[3], "nope")),
                       targets=frozenset(nodes[1:])),
            BatchQuery(S, sources=frozenset(nodes[:2]),
                       targets=frozenset(nodes[:2]),
                       semantics="membership"),
            BatchQuery(S, sources=frozenset(("nope",))),
        ]
        calls = self._spy_mask_rows(backend, monkeypatch)
        answers = solve_batch(graph, grammar, queries, backend=backend)
        assert calls == [{graph.node_id(node) for node in nodes[:2]}
                         | {graph.node_id(nodes[3])}]
        pairs = _reference(graph, grammar)
        assert answers == [_expected(pairs, query) for query in queries]

    def test_unrestricted_batch_reads_no_rows(self, graph, grammar,
                                              backend, monkeypatch):
        calls = self._spy_mask_rows(backend, monkeypatch)
        answers = solve_batch(graph, grammar, [BatchQuery(S)],
                              backend=backend)
        assert calls == []
        assert answers == [frozenset(_reference(graph, grammar))]

    def test_set_membership_probes_no_cells(self, graph, grammar, backend,
                                            monkeypatch):
        """Set-valued membership reads rows: |sources| × |targets| cell
        probes would cost a scalar index per pair on a miss."""
        nodes = [graph.node_at(i) for i in range(graph.node_count)]
        queries = [BatchQuery(S, sources=frozenset((a, "nope")),
                              targets=frozenset((b, "also-nope")),
                              semantics="membership")
                   for a in nodes for b in nodes]
        queries.append(BatchQuery(S, sources=frozenset(nodes),
                                  targets=frozenset(nodes),
                                  semantics="membership"))
        calls = self._spy_mask_rows(backend, monkeypatch)
        probes = self._count_cell_probes(monkeypatch)
        answers = solve_batch(graph, grammar, queries, backend=backend)
        assert probes == []
        assert calls == [set(range(graph.node_count))]
        pairs = _reference(graph, grammar)
        assert answers == [_expected(pairs, query) for query in queries]


class TestEdgeCases:
    def test_empty_batch(self, graph, grammar):
        assert solve_batch(graph, grammar, []) == []

    def test_empty_graph(self, grammar):
        graph = LabeledGraph.from_edges([])
        answers = solve_batch(graph, grammar, [BatchQuery(S)],
                              backend="setmatrix")
        assert answers == [frozenset()]

    def test_absent_nodes_restrict_to_nothing(self, graph, grammar):
        answers = solve_batch(
            graph, grammar,
            [BatchQuery(S, sources=frozenset(("nope",))),
             BatchQuery(S, sources=frozenset(("nope",)),
                        targets=frozenset(("also-nope",)),
                        semantics="membership")],
            backend="setmatrix")
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
        """A list in an endpoint position is that side's node list; one
        node alone is a point query, which needs both endpoints."""
        query = as_batch_query(("S", [1], None))
        assert str(query.start) == "S"
        assert query.sources == frozenset((1,))
        assert query.targets is None
        with pytest.raises(SemanticsError, match="both"):
            as_batch_query(("S", 1, None))

    def test_missing_start_rejected(self):
        with pytest.raises(SemanticsError):
            as_batch_query({"source": 1})
