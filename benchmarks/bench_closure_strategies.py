"""Ablation: closure strategy (paper §7 — "there are asymptotically
more efficient algorithms for the transitive closure").

Two layers of comparison:

1. plain boolean reachability (pytest-benchmark tests below):

   * ``naive``       — the paper's squaring iteration  a ← a ∪ a·a
   * ``incremental`` — a ← a ∪ a·a₀ (more, cheaper multiplications)
   * ``delta``       — semi-naive frontier propagation (Δ×T ∪ T×Δ)
   * ``warshall``    — the O(|V|³) Floyd–Warshall reference

2. the full CFPQ closure engine strategies (``naive`` / ``delta`` /
   ``blocked`` from :mod:`repro.core.closure`) on the bench_scaling.py
   workload (repeated funding ontology × Q1).  Run this module as a
   script for a machine-readable summary::

       PYTHONPATH=src python benchmarks/bench_closure_strategies.py \
           --copies 1 2 4 --backend sparse --output strategies.json

   The JSON reports iterations, boolean multiplications and wall time
   per (workload, strategy) cell — the numbers behind the claim that
   ``delta`` does strictly fewer multiplications than ``naive``.

Expected shape: squaring needs O(log d) multiplications (d = graph
diameter) and wins on long chains; delta fires only rules whose bodies
changed, so its multiplication count drops as the frontier shrinks;
Warshall's dense triple loop is uncompetitive in pure Python beyond
tiny graphs; the CFPQ engine's ``blocked`` strategy adds a bounded
overhead over ``delta`` (the price of a bounded working set).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import pytest

from repro.core.closure import available_strategies
from repro.core.matrix_cfpq import solve_matrix
from repro.core.transitive_closure import (
    boolean_closure_delta,
    boolean_closure_incremental,
    boolean_closure_naive,
    boolean_closure_warshall,
)
from repro.graph.generators import chain, random_graph
from repro.graph.matrices import boolean_adjacency


STRATEGIES = {
    "naive": boolean_closure_naive,
    "incremental": boolean_closure_incremental,
    "delta": boolean_closure_delta,
    "warshall": boolean_closure_warshall,
}


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_closure_long_chain(benchmark, strategy):
    """Diameter-200 chain: squaring's O(log d) shines here."""
    matrix = boolean_adjacency(chain(200), backend="sparse")
    closed = benchmark(STRATEGIES[strategy], matrix)
    assert closed.nnz() == 200 * 201 // 2


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_closure_random_graph(benchmark, strategy):
    matrix = boolean_adjacency(
        random_graph(150, 450, ["e"], seed=3), backend="sparse"
    )
    closed = benchmark(STRATEGIES[strategy], matrix)
    assert closed.nnz() >= matrix.nnz()


def test_strategies_agree():
    matrix = boolean_adjacency(
        random_graph(60, 200, ["e"], seed=5), backend="sparse"
    )
    answers = {name: fn(matrix).to_pair_set()
               for name, fn in STRATEGIES.items()}
    assert len(set(map(frozenset, answers.values()))) == 1


# ----------------------------------------------------------------------
# CFPQ closure-engine strategy sweep (machine-readable)
# ----------------------------------------------------------------------

def run_cfpq_strategy_suite(copies: tuple[int, ...] = (1, 2, 4),
                            backend: str = "sparse",
                            strategies: tuple[str, ...] | None = None,
                            ) -> dict:
    """Time every closure strategy on the bench_scaling.py workloads.

    Returns ``{workload: {strategy: {iterations, multiplications,
    wall_time_s, relation_size, total_entries}}}`` plus an ``agree``
    flag per workload asserting all strategies computed the same R_S.
    """
    from repro.datasets.registry import build_graph
    from repro.grammar.builders import same_generation_query1
    from repro.grammar.cnf import to_cnf
    from repro.graph.generators import repeat_graph
    from repro.matrices.base import get_backend

    grammar = to_cnf(same_generation_query1())
    names = tuple(strategies or available_strategies())
    # Load the backend module (SciPy for ``sparse``) before any clock
    # starts, so the first strategy timed does not pay the import.
    get_backend(backend)
    report: dict = {
        "workload_family": "funding ontology × Q1 (bench_scaling.py recipe)",
        "backend": backend,
        "workloads": {},
    }
    base = build_graph("funding")
    for k in copies:
        graph = repeat_graph(base, k)
        cells: dict = {}
        reference = None
        agree = True
        for strategy in names:
            started = time.perf_counter()
            result = solve_matrix(graph, grammar, backend=backend,
                                  normalize=False, strategy=strategy)
            elapsed = time.perf_counter() - started
            relation = result.relations.pairs("S")
            if reference is None:
                reference = relation
            elif relation != reference:
                agree = False
            cells[strategy] = {
                "iterations": result.stats.iterations,
                "multiplications": result.stats.multiplications,
                "wall_time_s": round(elapsed, 6),
                "relation_size": len(relation),
                "total_entries": result.stats.total_entries,
            }
        report["workloads"][f"funding_x{k}"] = {
            "nodes": graph.node_count,
            "edges": graph.edge_count,
            "agree": agree,
            "strategies": cells,
        }
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="CFPQ closure-strategy benchmark (JSON summary)"
    )
    parser.add_argument("--copies", type=int, nargs="+", default=[1, 2, 4],
                        help="funding-ontology repetition factors")
    parser.add_argument("--backend", default="sparse")
    parser.add_argument("--strategies", nargs="+", default=None,
                        choices=available_strategies())
    parser.add_argument("--output", default=None,
                        help="write JSON here (default: stdout)")
    args = parser.parse_args(argv)

    report = run_cfpq_strategy_suite(copies=tuple(args.copies),
                                     backend=args.backend,
                                     strategies=args.strategies)
    payload = json.dumps(report, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as stream:
            stream.write(payload + "\n")
        print(f"wrote {args.output}")
    else:
        print(payload)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
