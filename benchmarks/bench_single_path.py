"""Single-path and all-path semantics benchmarks (Sections 5 / 7).

The paper reports no timings for these semantics ("depends
significantly on the implementation of the path searching"), so these
benchmarks are shape-only: they establish the cost of (a) building the
length-annotated closure, (b) extracting one witness path per related
pair, and (c) building the all-path forest — the boolean closure plus
a view of its relations — and enumerating bounded all-path answers,
relative to the plain relational closure on the same graph.  The
length closure runs on the unified semiring engine, so the
per-strategy sweep below doubles as the regression surface for the
``delta`` / ``blocked`` speedups on annotated workloads.

Two modes:

1. pytest-benchmark micro tests (``pytest benchmarks/ --benchmark-only``);
2. a machine-readable JSON sweep over strategies × datasets::

       PYTHONPATH=src python benchmarks/bench_single_path.py \
           --datasets skos travel funding --output semantics.json

   The committed ``BENCH_semantics.json`` pins these numbers; CI's
   bench-smoke job re-runs the sweep and fails on a >2× wall-time
   regression in any cell (see ``check_bench_regression.py``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import pytest

from repro.core.closure import available_strategies
from repro.core.path_index import AllPathIndex
from repro.core.single_path import (
    build_single_path_index,
    extract_path,
    iter_single_paths,
)
from repro.datasets.registry import build_graph
from repro.grammar.symbols import Nonterminal

S = Nonterminal("S")
DATASETS = ("skos", "travel", "univ-bench")


def _index(dataset: str, grammar):
    cache = _index.__dict__.setdefault("cache", {})
    if dataset not in cache:
        cache[dataset] = build_single_path_index(
            build_graph(dataset), grammar, normalize=False
        )
    return cache[dataset]


@pytest.mark.parametrize("dataset", DATASETS)
def test_build_single_path_index(benchmark, query1_cnf, dataset):
    graph = build_graph(dataset)
    index = benchmark.pedantic(
        build_single_path_index, args=(graph, query1_cnf, False),
        iterations=1, rounds=1,
    )
    assert index.entry_count() > 0


@pytest.mark.parametrize("dataset", DATASETS)
def test_extract_all_witness_paths(benchmark, query1_cnf, dataset):
    """Extract a witness for every pair in R_S (the full single-path
    semantics answer)."""
    index = _index(dataset, query1_cnf)

    def extract_all() -> int:
        return sum(1 for _ in iter_single_paths(index, S))

    count = benchmark.pedantic(extract_all, iterations=1, rounds=1)
    assert count == len(index.relations().pairs(S))


def test_extract_one_path(benchmark, query1_cnf):
    index = _index("skos", query1_cnf)
    (i, j), _entries = next(
        (pair, entries) for pair, entries in sorted(index.cells.items())
        if S in entries
    )
    source, target = index.graph.node_at(i), index.graph.node_at(j)
    path = benchmark(extract_path, index, S, source, target)
    assert len(path) == index.length_of(S, i, j)


@pytest.mark.parametrize("dataset", ("skos", "travel"))
def test_build_allpath_forest(benchmark, query1_cnf, dataset):
    """The §7 parse forest: one boolean closure, then a view of it."""
    graph = build_graph(dataset)
    forest = benchmark.pedantic(
        AllPathIndex.build, args=(graph, query1_cnf), iterations=1, rounds=1,
    )
    assert forest.relations.pairs(S)


def test_enumerate_bounded_paths(benchmark, query1_cnf):
    """Bounded all-path answers for the first few related pairs."""
    graph = build_graph("skos")
    forest = AllPathIndex.build(graph, query1_cnf)
    pairs = sorted(forest.relations.pairs(S))[:10]

    def enumerate_all() -> int:
        return sum(
            1
            for i, j in pairs
            for _ in forest.iter_paths(S, graph.node_at(i),
                                       graph.node_at(j), 6)
        )

    count = benchmark.pedantic(enumerate_all, iterations=1, rounds=1)
    assert count >= len(pairs)


# ----------------------------------------------------------------------
# Machine-readable semantics × strategy sweep
# ----------------------------------------------------------------------

def _best_of(repeats: int, build):
    """``(seconds, result)`` of the fastest of *repeats* calls: the
    builds allocate tens of thousands of containers, so a single shot
    times the collector as often as the closure, and CI gates ratios
    between these cells."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        result = build()
        best = min(best, time.perf_counter() - started)
    return best, result


def run_semantics_suite(datasets: tuple[str, ...] = ("skos", "travel",
                                                     "funding"),
                        strategies: tuple[str, ...] | None = None,
                        max_length: int = 6,
                        extraction_pairs: int = 25) -> dict:
    """Time the annotated closures per (dataset, strategy).

    Per cell: single-path index build + witness extraction for the
    first *extraction_pairs* pairs of ``R_S``, the ``bench_allpath``
    case — boolean closure + forest view, then bounded enumeration —
    and the ``relational`` boolean closure of the same graph and
    strategy, the base of the "single-path / all-path at the price of
    relational" ratios CI gates.  An ``agree`` flag per dataset asserts every strategy
    produced identical annotations (the differential property,
    re-checked on the real workloads).
    """
    from repro.core.matrix_cfpq import solve_matrix
    from repro.grammar.builders import same_generation_query1
    from repro.grammar.cnf import to_cnf

    grammar = to_cnf(same_generation_query1())
    names = tuple(strategies or available_strategies())
    report: dict = {
        "benchmark": "query semantics x closure strategies",
        "grammar": "Q1 (same-generation, Figure 10)",
        "max_length": max_length,
        "workloads": {},
    }
    for dataset in datasets:
        graph = build_graph(dataset)
        single_cells: dict = {}
        allpath_cells: dict = {}
        relational_cells: dict = {}
        reference_lengths = None
        reference_forest = None
        agree = True
        for strategy in names:
            build_elapsed, index = _best_of(3, lambda: build_single_path_index(
                graph, grammar, normalize=False, strategy=strategy))
            pairs = sorted(
                pair for pair, entries in index.cells.items()
                if S in entries
            )[:extraction_pairs]
            started = time.perf_counter()
            extracted = [
                extract_path(index, S, graph.node_at(i), graph.node_at(j))
                for i, j in pairs
            ]
            extract_elapsed = time.perf_counter() - started
            if reference_lengths is None:
                reference_lengths = index.cells
            elif index.cells != reference_lengths:
                agree = False
            single_cells[strategy] = {
                "wall_time_s": round(build_elapsed, 6),
                "iterations": index.iterations,
                "entries": index.entry_count(),
                "extracted_paths": len(extracted),
                "extraction_wall_time_s": round(extract_elapsed, 6),
            }

            relational_elapsed, relational = _best_of(3, lambda: solve_matrix(
                graph, grammar, normalize=False, strategy=strategy))
            relational_cells[strategy] = {
                "wall_time_s": round(relational_elapsed, 6),
                "iterations": relational.stats.iterations,
                "relation_size": relational.relations.count(S),
            }

            forest_elapsed, forest = _best_of(3, lambda: AllPathIndex.build(
                graph, grammar, strategy=strategy))
            enum_pairs = sorted(forest.relations.pairs(S))[:10]
            started = time.perf_counter()
            enumerated = sum(
                1
                for i, j in enum_pairs
                for _ in forest.iter_paths(S, graph.node_at(i),
                                           graph.node_at(j), max_length)
            )
            enum_elapsed = time.perf_counter() - started
            forest_pairs = frozenset(forest.relations.pairs(S))
            if reference_forest is None:
                reference_forest = forest_pairs
            elif forest_pairs != reference_forest:
                agree = False
            allpath_cells[strategy] = {
                "wall_time_s": round(forest_elapsed, 6),
                "relation_size": len(forest_pairs),
                "enumerated_paths": enumerated,
                "enumeration_wall_time_s": round(enum_elapsed, 6),
            }
        report["workloads"][dataset] = {
            "nodes": graph.node_count,
            "edges": graph.edge_count,
            "agree": agree,
            "relational": relational_cells,
            "single_path": single_cells,
            "bench_allpath": allpath_cells,
        }
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="single-path / all-path semantics benchmark "
                    "(JSON summary)"
    )
    parser.add_argument("--datasets", nargs="+",
                        default=["skos", "travel", "funding"])
    parser.add_argument("--strategies", nargs="+", default=None,
                        choices=available_strategies())
    parser.add_argument("--max-length", type=int, default=6)
    parser.add_argument("--output", default=None,
                        help="write JSON here (default: stdout)")
    args = parser.parse_args(argv)

    report = run_semantics_suite(datasets=tuple(args.datasets),
                                 strategies=args.strategies,
                                 max_length=args.max_length)
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
