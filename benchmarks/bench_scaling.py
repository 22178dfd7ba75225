"""Scaling study: the paper's g1–g3 construction, parameterized.

The paper's headline observation is that "acceleration from the GPU
increases with the graph size growth" — i.e. the matrix engine's edge
over the baseline widens as the graph is repeated.  We repeat the
funding ontology k times (the exact g1 recipe) for k ∈ {1, 2, 4, 8}
and benchmark the sparse matrix engine against both baselines.

Two layers (like the other bench scripts):

1. pytest-benchmark tests below;
2. a machine-readable sweep on the shared measurement harness
   (:mod:`repro.bench.harness` — the paper-column solver registry).
   Run this module as a script::

       PYTHONPATH=src python benchmarks/bench_scaling.py \
           --copies 1 2 4 --solvers sparse gll hellings \
           --output scaling.json

   Every (workload, solver) cell reports the result count and
   best-of-repeats wall time; ``agree`` asserts all solvers found the
   same |R_S|.  ``benchmarks/BENCH_scaling.json`` pins the committed
   numbers and CI's bench-smoke regression gate re-measures them.

Expected shape: all engines are linear-ish in k on disjoint copies
(the relation itself is k times larger), with the matrix engine's
constant factor pulling ahead of the worklist baseline as k grows.
"""

from __future__ import annotations

import argparse
import json
import sys

import pytest

from bench_workloads import repeated_funding as _repeated
from repro.baselines.gll import solve_gll
from repro.baselines.hellings import solve_hellings
from repro.core.matrix_cfpq import solve_matrix_relations
from repro.datasets.registry import build_graph
from repro.graph.generators import repeat_graph

COPIES = (1, 2, 4, 8)


@pytest.mark.parametrize("copies", COPIES)
def test_scaling_sparse(benchmark, query1_cnf, copies):
    graph = _repeated(copies)
    relations = benchmark.pedantic(
        solve_matrix_relations, args=(graph, query1_cnf, "sparse", False),
        iterations=1, rounds=1,
    )
    base = solve_matrix_relations(_repeated(1), query1_cnf,
                                  "sparse", False).count("S")
    assert relations.count("S") == copies * base


@pytest.mark.parametrize("copies", COPIES)
def test_scaling_gll(benchmark, query1_grammar, copies):
    graph = _repeated(copies)
    relations = benchmark.pedantic(
        solve_gll, args=(graph, query1_grammar, ["S"]),
        iterations=1, rounds=1,
    )
    assert relations.count("S") > 0


@pytest.mark.parametrize("copies", COPIES)
def test_scaling_hellings(benchmark, query1_cnf, copies):
    graph = _repeated(copies)
    relations = benchmark.pedantic(
        solve_hellings, args=(graph, query1_cnf, False),
        iterations=1, rounds=1,
    )
    assert relations.count("S") > 0


# ----------------------------------------------------------------------
# Scaling sweep on the shared harness (machine-readable)
# ----------------------------------------------------------------------

def run_scaling_suite(copies: tuple[int, ...] = (1, 2, 4),
                      solvers: tuple[str, ...] = ("sparse", "gll",
                                                  "hellings"),
                      repeats: int = 2) -> dict:
    """Measure each harness solver on the repeated funding ontology.

    Returns ``{workloads: {funding_xk: {nodes, edges, agree,
    solvers: {name: {results, wall_time_s}}}}}`` — the bench-smoke
    regression gate compares every ``wall_time_s`` leaf.
    """
    from repro.bench.harness import SOLVERS, measure
    from repro.grammar.builders import same_generation_query1

    unknown = set(solvers) - set(SOLVERS)
    if unknown:
        raise KeyError(f"unknown solvers: {sorted(unknown)}; "
                       f"known: {sorted(SOLVERS)}")
    grammar = same_generation_query1()
    report: dict = {
        "benchmark": "scaling sweep (paper g1 recipe: funding × k, Q1)",
        "workloads": {},
    }
    base = build_graph("funding")
    for k in copies:
        graph = repeat_graph(base, k)
        cells: dict = {}
        counts: set[int] = set()
        for solver in solvers:
            measurement = measure(solver, graph, grammar, start="S",
                                  repeats=repeats)
            counts.add(measurement.results)
            cells[solver] = {
                "results": measurement.results,
                "wall_time_s": round(measurement.milliseconds / 1000.0, 6),
            }
        report["workloads"][f"funding_x{k}"] = {
            "nodes": graph.node_count,
            "edges": graph.edge_count,
            "agree": len(counts) == 1,
            "solvers": cells,
        }
    return report


# ----------------------------------------------------------------------
# Out-of-core spill sweep (past ×8: workloads that exceed the budget)
# ----------------------------------------------------------------------

#: (backend, copies, budget): sized so the closure's unbounded peak
#: resident tile bytes (measured: bitset ×16 ≈ 78 MiB, dense ×8 ≈
#: 161 MiB) overflows the budget several times over, forcing the tile
#: store to spill on every round.
SPILL_CASES = (
    ("bitset", 16, 16 * 2 ** 20),
    ("dense", 8, 32 * 2 ** 20),
)


def run_spill_suite(cases: tuple = SPILL_CASES, repeats: int = 1) -> dict:
    """Benchmark the blocked closure under a memory budget vs unbounded.

    Each cell solves Q1 on funding × k twice — once fully in memory,
    once with a budget the working set cannot fit — and records the
    wall times, the spill/reload counters and whether the budgeted run
    stayed within its budget by the tile store's own accounting.
    ``agree`` asserts the budgeted answer is identical.
    """
    import time as _time

    from repro.core.matrix_cfpq import solve_matrix
    from repro.grammar.builders import same_generation_query1
    from repro.grammar.cnf import ensure_cnf

    grammar = ensure_cnf(same_generation_query1())
    report: dict = {
        "benchmark": "out-of-core spill sweep (funding × k under a "
                     "memory budget, Q1)",
        "workloads": {},
    }
    base = build_graph("funding")

    def timed(**options):
        best = None
        result = None
        for _ in range(max(1, repeats)):
            started = _time.perf_counter()
            result = solve_matrix(graph, grammar, normalize=False,
                                  strategy="blocked", tile_size=128,
                                  **options)
            elapsed = _time.perf_counter() - started
            best = elapsed if best is None else min(best, elapsed)
        return result, best

    for backend, copies, budget in cases:
        graph = _repeated(copies)
        unbounded, unbounded_s = timed(backend=backend)
        budgeted, budgeted_s = timed(backend=backend, memory_budget=budget)
        stats = budgeted.stats.details["blocked"]
        count = unbounded.relations.count("S")
        report["workloads"][f"funding_x{copies}_{backend}"] = {
            "nodes": graph.node_count,
            "edges": graph.edge_count,
            "budget_bytes": budget,
            "agree": budgeted.relations.count("S") == count,
            "within_budget": stats.peak_resident_bytes <= budget,
            "solvers": {
                "blocked_unbounded": {
                    "results": count,
                    "wall_time_s": round(unbounded_s, 6),
                },
                "blocked_budgeted": {
                    "results": budgeted.relations.count("S"),
                    "wall_time_s": round(budgeted_s, 6),
                    "tiles_spilled": stats.tiles_spilled,
                    "tiles_reloaded": stats.tiles_reloaded,
                    "spill_bytes": stats.spill_bytes,
                    "peak_resident_bytes": stats.peak_resident_bytes,
                },
            },
        }
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="scaling benchmark on the shared harness "
                    "(JSON summary)"
    )
    parser.add_argument("--suite", choices=("scaling", "spill"),
                        default="scaling",
                        help="'scaling' sweeps harness solvers over "
                             "funding × k; 'spill' measures the blocked "
                             "closure under a memory budget on workloads "
                             "whose tiles overflow it")
    parser.add_argument("--copies", type=int, nargs="+", default=[1, 2, 4],
                        help="funding-ontology repetition factors")
    parser.add_argument("--solvers", nargs="+",
                        default=["sparse", "gll", "hellings"],
                        help="harness solver names (see "
                             "repro.bench.harness.SOLVERS)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="best-of-N timing repeats per cell "
                             "(default: 2 for scaling, 1 for spill)")
    parser.add_argument("--output", default=None,
                        help="write JSON here (default: stdout)")
    args = parser.parse_args(argv)

    if args.suite == "spill":
        report = run_spill_suite(repeats=args.repeats or 1)
    else:
        report = run_scaling_suite(copies=tuple(args.copies),
                                   solvers=tuple(args.solvers),
                                   repeats=args.repeats or 2)
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
