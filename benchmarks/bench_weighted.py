"""Weighted-query benchmarks: the weighted closures, DRed deletion, and
lazy k-best vs exhaustive bounded enumeration.

Two layers:

1. pytest-benchmark tests on the funding ontology: the counting and
   Viterbi annotated closures, each gated by a consistency check
   against the relational fixpoint.

2. a machine-readable sweep (run this module as a script)::

       PYTHONPATH=src python benchmarks/bench_weighted.py \
           --batch-sizes 200 600 --output weighted.json

   * **DRed deletion** — per batch size, insert a random reachability
     batch into an incremental solver, delete a tenth of it (the
     solver's first deletion) and assert the relations equal a
     from-scratch
     ``solve_matrix`` on the remaining graph.
   * **weighted closures** — the Viterbi and counting closures of
     funding · Q1 (both array-native: max-times under the ``delta``
     strategy, saturating plus-times under the Kleene loop), each
     checked against the relational fixpoint.
   * **k-best vs exhaustive** — on a layered detour graph with
     ``2^hops`` end-to-end paths, time ``top_k(k=3)`` (lazy best-first
     over the witness forest) against materializing the full bounded
     path set via ``iter_paths``, and report the expansion counter that
     proves the stream never touched more than a sliver of the
     population.

   ``benchmarks/BENCH_weighted.json`` pins the numbers and CI's
   bench-smoke gate re-measures them.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import pytest

from repro.core.incremental import IncrementalCFPQ
from repro.core.matrix_cfpq import solve_matrix_relations
from repro.core.path_index import AllPathIndex
from repro.core.semiring import (
    COUNTING_SEMIRING,
    ViterbiSemiring,
    solve_annotated,
)
from repro.datasets.registry import build_graph
from repro.grammar.builders import chain_reachability
from repro.grammar.cnf import to_cnf
from repro.graph.labeled_graph import LabeledGraph


def test_counting_closure_funding(benchmark, query1_cnf):
    graph = build_graph("funding")
    result = benchmark.pedantic(
        solve_annotated, args=(graph, query1_cnf, COUNTING_SEMIRING),
        iterations=1, rounds=1,
    )
    # Consistency gate: the counting fixpoint covers exactly the
    # relational one.
    relational = solve_matrix_relations(graph, query1_cnf,
                                        normalize=False)
    for nonterminal in query1_cnf.nonterminals:
        cells = {(i, j) for i, j, _value in
                 result.matrices[nonterminal].nonzero_cells()}
        assert cells == relational.pairs(nonterminal)


def test_viterbi_closure_funding(benchmark, query1_cnf):
    graph = build_graph("funding")
    semiring = ViterbiSemiring()
    result = benchmark.pedantic(
        solve_annotated, args=(graph, query1_cnf, semiring),
        iterations=1, rounds=1,
    )
    assert any(result.matrices[nt].nonzero_cells()
               for nt in query1_cnf.nonterminals)


def test_dred_deletion(benchmark, query1_cnf):
    """DRed deletion (the solver's first)."""
    graph = build_graph("funding")
    solver = IncrementalCFPQ(graph, query1_cnf)
    batch = [(f"N{k}", "subClassOf", f"Class{k}") for k in range(10)]
    solver.add_edges(batch)
    benchmark.pedantic(solver.remove_edges, args=(batch,),
                       iterations=1, rounds=1)
    scratch = solve_matrix_relations(solver.graph, query1_cnf,
                                     normalize=False)
    assert solver.relations().same_as(scratch)


# ----------------------------------------------------------------------
# Machine-readable sweep
# ----------------------------------------------------------------------

def _random_batch(batch_size: int, edges_per_node: float = 3.5,
                  seed: int = 7) -> list:
    """*batch_size* distinct random a-edges over ``batch_size /
    edges_per_node`` nodes (deterministic in *seed*)."""
    import random

    nodes = max(4, round(batch_size / edges_per_node))
    rng = random.Random(seed)
    seen: set = set()
    edges: list = []
    while len(edges) < batch_size:
        edge = (rng.randrange(nodes), "a", rng.randrange(nodes))
        if edge not in seen:
            seen.add(edge)
            edges.append(edge)
    return edges


def _detour_graph(hops: int) -> LabeledGraph:
    """Each hop: a direct a-edge or a two-edge b-detour — ``2^hops``
    end-to-end paths, lengths ``hops .. 2 * hops``."""
    edges = []
    for hop in range(hops):
        detour = hops + 1 + hop
        edges += [(hop, "a", hop + 1), (hop, "b", detour),
                  (detour, "b", hop + 1)]
    return LabeledGraph.from_edges(edges, nodes=list(range(2 * hops + 1)))


def _dred_cell(size: int, grammar, backend: str, strategy: str,
               repeats: int) -> dict:
    edges = _random_batch(size)
    victims = edges[::10]
    seconds = float("inf")
    for _ in range(max(1, repeats)):
        solver = IncrementalCFPQ(LabeledGraph(), grammar,
                                 backend=backend, strategy=strategy)
        solver.add_edges(edges)
        started = time.perf_counter()
        removed = solver.remove_edges(victims)
        seconds = min(seconds, time.perf_counter() - started)
    scratch = solve_matrix_relations(solver.graph, grammar, backend=backend,
                                     normalize=False)
    return {
        "edges": len(edges),
        "deleted": len(victims),
        "facts_removed": removed,
        "delete_wall_time_s": round(seconds, 6),
        "agree": solver.relations().same_as(scratch),
    }


def _kbest_cell(hops: int, k: int, repeats: int) -> dict:
    from repro import parse_grammar

    grammar = to_cnf(parse_grammar("S -> T | T S\nT -> a | b",
                                   terminals=["a", "b"]))
    graph = _detour_graph(hops)
    index = AllPathIndex.build(graph, grammar)

    kbest_seconds = exhaustive_seconds = float("inf")
    for _ in range(max(1, repeats)):
        fresh = AllPathIndex.build(graph, grammar)
        started = time.perf_counter()
        best = fresh.top_k("S", 0, hops, k)
        kbest_seconds = min(kbest_seconds, time.perf_counter() - started)
        expansions = fresh.kbest_stats["expansions"]

        started = time.perf_counter()
        every = list(index.iter_paths("S", 0, hops, max_length=2 * hops))
        exhaustive_seconds = min(exhaustive_seconds,
                                 time.perf_counter() - started)
    best_lengths = [len(path) for path in best]
    population_lengths = sorted(len(path) for path in every)
    return {
        "hops": hops,
        "k": k,
        "path_population": len(every),
        "kbest_wall_time_s": round(kbest_seconds, 6),
        "exhaustive_wall_time_s": round(exhaustive_seconds, 6),
        "speedup": round(exhaustive_seconds / kbest_seconds, 3)
        if kbest_seconds else float("inf"),
        "expansions": expansions,
        "agree": (len(best) == k
                  and best_lengths == population_lengths[:k]
                  and expansions < len(every)),
    }


def _closure_cells(repeats: int) -> dict:
    """The weighted closures on funding · Q1, each checked against the
    relational fixpoint."""
    from repro.grammar.builders import same_generation_query1

    graph = build_graph("funding")
    grammar = to_cnf(same_generation_query1())
    relational = solve_matrix_relations(graph, grammar, normalize=False)
    cells: dict = {}
    for semiring in (ViterbiSemiring(), COUNTING_SEMIRING):
        seconds = float("inf")
        for _ in range(max(1, repeats)):
            started = time.perf_counter()
            result = solve_annotated(graph, grammar, semiring,
                                     normalize=False)
            seconds = min(seconds, time.perf_counter() - started)
        cells[semiring.name] = {
            "wall_time_s": round(seconds, 6),
            "iterations": result.iterations,
            "entries": sum(m.nnz() for m in result.matrices.values()),
            "agree": all(
                set(matrix.nonzero_pairs()) == relational.pairs(nonterminal)
                for nonterminal, matrix in result.matrices.items()),
        }
    return cells


def run_weighted_suite(batch_sizes: tuple[int, ...] = (200, 600),
                       hops: int = 12, k: int = 3,
                       backend: str | None = None,
                       strategy: str = "delta",
                       repeats: int = 2) -> dict:
    """Time DRed deletion, lazy k-best vs exhaustive, and the
    weighted closures.

    Returns ``{dred: {size: {delete_wall_time_s, agree}},
    kbest: {kbest_wall_time_s, exhaustive_wall_time_s, speedup,
    expansions, agree}, closures: {semiring: {wall_time_s, agree}}}``.
    """
    from repro.matrices.base import default_backend

    grammar = to_cnf(chain_reachability("a"))
    backend = backend or default_backend()
    report: dict = {
        "benchmark": "weighted semirings: DRed deletion + lazy k-best",
        "workload": "random a-graph deletions; layered detour graph "
                    f"with 2^{hops} paths",
        "backend": backend,
        "strategy": strategy,
        "dred": {},
    }
    for size in batch_sizes:
        report["dred"][str(size)] = _dred_cell(size, grammar, backend,
                                               strategy, repeats)
    report["kbest"] = _kbest_cell(hops, k, repeats)
    report["closures"] = _closure_cells(repeats)
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="weighted-semiring benchmark (JSON summary)"
    )
    parser.add_argument("--batch-sizes", type=int, nargs="+",
                        default=[200, 600])
    parser.add_argument("--hops", type=int, default=12)
    parser.add_argument("--k", type=int, default=3)
    parser.add_argument("--backend", default=None)
    parser.add_argument("--strategy", default="delta")
    parser.add_argument("--output", default=None,
                        help="write JSON here (default: stdout)")
    args = parser.parse_args(argv)

    report = run_weighted_suite(batch_sizes=tuple(args.batch_sizes),
                                hops=args.hops, k=args.k,
                                backend=args.backend,
                                strategy=args.strategy)
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
