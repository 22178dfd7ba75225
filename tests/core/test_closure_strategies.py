"""Differential tests for the closure engine's three strategies.

Every (strategy × backend) cell must produce identical relations
``R_A`` for every non-terminal and identical final ``nnz`` counts —
``naive`` is the oracle, ``delta`` and ``blocked`` must be
observationally indistinguishable from it.  On top of that, ``delta``
must do strictly fewer boolean multiplications than ``naive`` on any
workload that iterates more than once.
"""

import pytest

from repro.core.closure import (
    available_strategies,
    fixpoint_history,
    get_strategy,
    run_closure,
)
from repro.core.engine import CFPQEngine
from repro.core.matrix_cfpq import solve_matrix
from repro.errors import UnknownStrategyError
from repro.graph.generators import (
    random_graph,
    two_cycles,
    word_chain,
)
from repro.graph.labeled_graph import LabeledGraph
from repro.grammar.parser import parse_grammar
from repro.matrices.base import available_backends

STRATEGIES = sorted(available_strategies())


def _grammars():
    return {
        "anbn": parse_grammar("S -> a S b | a b", terminals=["a", "b"]),
        "dyck": parse_grammar("S -> a S b | a b | S S", terminals=["a", "b"]),
        "left-recursive": parse_grammar("S -> S a | a", terminals=["a"]),
        "two-nonterminals": parse_grammar(
            "S -> A S | A\nA -> a | b", terminals=["a", "b"]
        ),
    }


def _graphs():
    return {
        "aabb-chain": word_chain(["a", "a", "b", "b"]),
        "two-cycles-2-3": two_cycles(2, 3),
        "two-cycles-3-4": two_cycles(3, 4),
        "self-loops": LabeledGraph.from_edges([(0, "a", 0), (0, "b", 0)]),
        "random": random_graph(7, 20, ["a", "b"], seed=11),
        "empty": LabeledGraph(),
    }


class TestRegistry:
    def test_bundled_strategies_registered(self):
        assert {"naive", "delta", "blocked"} <= set(available_strategies())

    def test_unknown_strategy(self):
        with pytest.raises(UnknownStrategyError) as excinfo:
            get_strategy("magic")
        assert "delta" in str(excinfo.value)

    def test_unknown_strategy_at_solve_time(self, dyck_grammar):
        with pytest.raises(UnknownStrategyError):
            solve_matrix(two_cycles(2, 3), dyck_grammar, strategy="magic")


@pytest.mark.parametrize("backend_name", available_backends())
class TestStrategyBackendMatrix:
    """The full strategy × backend differential grid."""

    def test_identical_relations_and_nnz(self, backend_name):
        for grammar_name, grammar in _grammars().items():
            for graph_name, graph in _graphs().items():
                reference = None
                for strategy in STRATEGIES:
                    result = solve_matrix(graph, grammar,
                                          backend=backend_name,
                                          strategy=strategy)
                    if reference is None:
                        reference = result
                        continue
                    context = (strategy, backend_name, grammar_name,
                               graph_name)
                    assert result.relations.same_as(reference.relations), \
                        context
                    assert (result.stats.nnz_per_nonterminal
                            == reference.stats.nnz_per_nonterminal), context

    def test_blocked_small_tiles_agree(self, backend_name, dyck_grammar):
        graph = two_cycles(3, 4)
        oracle = solve_matrix(graph, dyck_grammar, backend=backend_name,
                              strategy="naive")
        tiled = solve_matrix(graph, dyck_grammar, backend=backend_name,
                             strategy="blocked", tile_size=2)
        assert tiled.relations.same_as(oracle.relations)


class TestDeltaEfficiency:
    def test_delta_strictly_fewer_multiplications_on_scaling_workload(self):
        """The bench_scaling.py workload (repeated funding ontology ×
        Q1): only rules whose bodies actually changed re-fire, so delta
        must issue strictly fewer products than full re-multiplication."""
        from repro.datasets.registry import build_graph
        from repro.grammar.builders import same_generation_query1
        from repro.grammar.cnf import to_cnf
        from repro.graph.generators import repeat_graph

        grammar = to_cnf(same_generation_query1())
        for copies in (1, 2):
            graph = repeat_graph(build_graph("funding"), copies)
            naive = solve_matrix(graph, grammar, normalize=False,
                                 strategy="naive")
            delta = solve_matrix(graph, grammar, normalize=False,
                                 strategy="delta")
            assert naive.stats.iterations > 1
            assert (delta.stats.multiplications
                    < naive.stats.multiplications), copies
            assert delta.relations.same_as(naive.relations)

    def test_delta_growth_accounting(self, dyck_grammar):
        """Per-round frontier sizes must sum to exactly the entries the
        closure added on top of the initialization."""
        graph = two_cycles(2, 3)
        initial = solve_matrix(graph, dyck_grammar, strategy="delta")
        from repro.core.matrix_cfpq import initial_boolean_matrices
        from repro.grammar.cnf import ensure_cnf
        from repro.matrices.base import get_backend

        grammar = ensure_cnf(dyck_grammar)
        seeds = initial_boolean_matrices(graph, grammar, get_backend(initial.stats.backend))
        seeded_entries = sum(m.nnz() for m in seeds.values())
        assert (sum(initial.stats.delta_nnz_per_round)
                == initial.stats.total_entries - seeded_entries)

    def test_stats_carry_strategy(self, dyck_grammar):
        result = solve_matrix(two_cycles(2, 3), dyck_grammar,
                              strategy="delta")
        assert result.stats.strategy == "delta"
        assert result.stats.delta_nnz_per_round
        assert result.stats.delta_nnz_per_round[-1] == 0


class TestOrderIsAFunctionOfTheInput:
    """Callers build the symbol → matrix mapping by iterating symbol
    *sets*, whose order follows object addresses; the closure must not
    inherit it."""

    @pytest.mark.parametrize("strategy", ("naive", "delta", "blocked"))
    def test_counts_and_payload_bytes_ignore_dict_order(self, strategy):
        from repro.core.matrix_cfpq import initial_boolean_matrices
        from repro.grammar.builders import same_generation_query1
        from repro.grammar.cnf import to_cnf
        from repro.matrices.base import default_backend, get_backend

        grammar = to_cnf(same_generation_query1())
        graph = random_graph(
            30, 90, sorted(t.label for t in grammar.terminals), seed=5)
        rules = [(rule.head, *rule.body) for rule in grammar.binary_rules]
        backend = get_backend(default_backend())
        outcomes = []
        for reverse in (False, True):
            matrices = dict(sorted(
                initial_boolean_matrices(graph, grammar, backend).items(),
                key=lambda item: item[0].name, reverse=reverse))
            result = run_closure(matrices, rules, backend, strategy=strategy)
            outcomes.append((
                result.iterations, result.multiplications,
                result.delta_nnz_per_round,
                {symbol.name: backend.tile_payload(matrix)
                 for symbol, matrix in result.matrices.items()},
            ))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] > 1  # the frontier was really drained


class TestEngineThreading:
    def test_engine_accepts_strategy(self, dyck_grammar):
        graph = two_cycles(2, 3)
        for strategy in STRATEGIES:
            engine = CFPQEngine(graph, dyck_grammar, strategy=strategy)
            assert engine.solve().stats.strategy == strategy

    def test_evaluate_closes_under_the_engine_strategy(self, anbn_grammar):
        engine = CFPQEngine(word_chain(["a", "b"]), anbn_grammar,
                            strategy="naive")
        pairs = engine.evaluate("S", "relational")
        assert pairs == {(0, 2)}
        assert engine.solve().stats.strategy == "naive"


class TestFixpointDriver:
    def test_history_shape(self):
        history = fixpoint_history(0, lambda x: min(x + 1, 3),
                                   lambda a, b: a == b)
        assert history == [0, 1, 2, 3, 3]

    def test_iteration_cap(self):
        history = fixpoint_history(0, lambda x: x + 1, lambda a, b: a == b,
                                   max_iterations=4)
        assert history == [0, 1, 2, 3, 4]
