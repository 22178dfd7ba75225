"""RPQ through the closure engine vs the kept naive-loop oracle.

``solve_rpq`` now routes the product-graph reachability through
:func:`repro.core.matrix_cfpq.run_closure` (one nonterminal, rule
``R -> R R``) and demuxes start rows with ``mask_rows``;
``solve_rpq_reference`` keeps the original repeated-squaring loop as
the test oracle.
"""

from __future__ import annotations

import random

import pytest

from repro.graph.labeled_graph import LabeledGraph
from repro.matrices import available_backends
from repro.regular.rpq import solve_rpq, solve_rpq_reference

REGEXES = ("a", "a b", "(a | b)+", "a* b a*", "(a b)+")
STRATEGIES = ("naive", "delta", "blocked")


def _graphs():
    rng = random.Random(7)
    graphs = []
    for _ in range(4):
        edges = [(rng.randrange(7), rng.choice("ab"), rng.randrange(7))
                 for _ in range(14)]
        graphs.append(LabeledGraph.from_edges(edges))
    return graphs


class TestClosureRouteMatchesOracle:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_differential(self, strategy):
        for graph in _graphs():
            for backend in available_backends():
                for regex in REGEXES:
                    oracle = solve_rpq_reference(graph, regex,
                                                 backend=backend)
                    routed = solve_rpq(graph, regex, backend=backend,
                                       strategy=strategy)
                    assert routed == oracle, (regex, backend, strategy)

    def test_empty_graph(self):
        graph = LabeledGraph.from_edges([])
        assert solve_rpq(graph, "a+") \
            == solve_rpq_reference(graph, "a+") == frozenset()

