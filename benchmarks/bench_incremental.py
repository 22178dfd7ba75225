"""Incremental maintenance vs. recompute-from-scratch, and one
``add_edges`` worklist run vs. the per-tuple ``add_edge`` loop.

Two layers:

1. pytest-benchmark tests on the funding ontology: initial solve,
   per-insertion delta propagation vs. full re-solve per insertion, and
   DRed deletion, each gated by a consistency check against the batch
   engine.

2. a machine-readable batch-size sweep (run this module as a script)::

       PYTHONPATH=src python benchmarks/bench_incremental.py \
           --batch-sizes 10 100 300 1000 --output incremental.json

   For each batch size the sweep inserts the same random-reachability
   edge batch twice — once through the per-tuple ``add_edge`` loop,
   once through ``add_edges`` — and reports wall time, derived facts/s
   and the batch-over-per-tuple speedup, the DRed wall time for
   deleting a tenth of the batch, ``single_path_wall_time_s``, the
   same ``add_edges`` on the single-path solver, and
   ``single_path_over_relational_x``, its ratio to the batch.  Both
   routes run the one row-group worklist; the batch wins by merging
   what a row gains before it is popped.  The workload (S -> a | a S
   over a random graph with ~3 edges per node) makes insertions
   *interact* heavily — the regime a graph-database bulk load lives in.
   ``dense_load`` is the dense end of that regime: 1 000 random
   ``a``/``b`` edges over 333 nodes loaded into ``S -> a S b | a b | S
   S | a`` by both solvers.  ``funding_tick`` times a serving-sized
   tick on both solvers: 150 new instances (``type`` plus ``type_r``,
   300 edges) on funding·Q1.  ``benchmarks/BENCH_incremental.json``
   pins the acceptance numbers (no cell slower than the loop, delete ≤
   6× the batch insert and single-path ≤ 5× relational at 1000 edges)
   and CI's bench-smoke gate re-measures them.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import pytest

from repro.core.incremental import IncrementalCFPQ, IncrementalSinglePathCFPQ
from repro.core.matrix_cfpq import solve_matrix_relations
from repro.core.single_path import build_single_path_index
from repro.datasets.registry import build_graph
from repro.graph.labeled_graph import LabeledGraph

INSERTIONS = [
    (f"NewClass{k}", "subClassOf", f"Class{k}") for k in range(10)
]


def _copy(graph: LabeledGraph) -> LabeledGraph:
    return LabeledGraph.from_edges(graph.edges(), nodes=list(graph.nodes))


def _base_graph() -> LabeledGraph:
    """A private copy of funding: the solvers mutate the graph they
    are given, and ``build_graph`` hands every caller one cached
    graph."""
    return _copy(build_graph("funding"))


def _lengths_agree(solver: IncrementalSinglePathCFPQ) -> bool:
    """The solver's lengths equal a fresh single-path index's on its
    graph."""
    index = build_single_path_index(solver.graph, solver.grammar,
                                    normalize=False)
    return {
        (nonterminal, i, j): length
        for (i, j), entries in index.cells.items()
        for nonterminal, length in entries.items()
    } == {
        (nonterminal, i, j): length
        for nonterminal, cells in solver.length_cells().items()
        for i, j, length in cells
    }


def test_initial_incremental_solve(benchmark, query1_cnf):
    graph = _base_graph()
    solver = benchmark.pedantic(
        IncrementalCFPQ, args=(graph, query1_cnf), iterations=1, rounds=1,
    )
    assert solver.pairs("S")


def test_insertion_stream_incremental(benchmark, query1_cnf):
    cached_edges = build_graph("funding").edge_count
    graph = _base_graph()
    solver = IncrementalCFPQ(graph, query1_cnf)

    def insert_stream() -> int:
        derived = 0
        for child, label, parent in INSERTIONS:
            derived += solver.add_edge(child, label, parent)
            derived += solver.add_edge(parent, f"{label}_r", child)
        return derived

    benchmark.pedantic(insert_stream, iterations=1, rounds=1)
    # consistency gate: incremental state equals a batch solve
    batch = solve_matrix_relations(solver.graph, query1_cnf,
                                   normalize=False)
    assert solver.relations().same_as(batch)
    assert build_graph("funding").edge_count == cached_edges


def test_insertion_stream_recompute(benchmark, query1_cnf):
    """The baseline the incremental solver is saving: full re-solve
    after every insertion."""
    graph = _base_graph()
    working = LabeledGraph.from_edges(graph.edges())

    def recompute_stream() -> int:
        total = 0
        for child, label, parent in INSERTIONS:
            working.add_edge(child, label, parent)
            working.add_edge(parent, f"{label}_r", child)
            total += solve_matrix_relations(working, query1_cnf,
                                            normalize=False).count("S")
        return total

    result = benchmark.pedantic(recompute_stream, iterations=1, rounds=1)
    assert result > 0


def test_deletion_stream_dred(benchmark, query1_cnf):
    """DRed delete-and-rederive for an insertion's worth of edges —
    the dynamic-workload counterpart of the insertion stream."""
    cached_edges = build_graph("funding").edge_count
    graph = _base_graph()
    solver = IncrementalCFPQ(graph, query1_cnf)
    batch = [(child, label, parent) for child, label, parent in INSERTIONS]
    batch += [(parent, f"{label}_r", child)
              for child, label, parent in INSERTIONS]
    solver.add_edges(batch)

    benchmark.pedantic(solver.remove_edges, args=(batch,),
                       iterations=1, rounds=1)
    scratch = solve_matrix_relations(solver.graph, query1_cnf,
                                     normalize=False)
    assert solver.relations().same_as(scratch)
    assert build_graph("funding").edge_count == cached_edges


# ----------------------------------------------------------------------
# Batch vs per-tuple sweep (machine-readable)
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


def run_incremental_suite(batch_sizes: tuple[int, ...] = (10, 100, 300, 1000),
                          edges_per_node: float = 3.5,
                          backend: str | None = None,
                          strategy: str = "delta",
                          repeats: int = 2) -> dict:
    """Time ``add_edges`` vs the ``add_edge`` loop per batch size.

    Returns ``{batch_sizes: {size: {batch_wall_time_s,
    per_tuple_wall_time_s, speedup, facts, batch_facts_per_s,
    delete_wall_time_s, single_path_wall_time_s,
    single_path_over_relational_x, agree}}}``.
    """
    from repro.grammar.builders import chain_reachability
    from repro.grammar.cnf import to_cnf
    from repro.matrices.base import default_backend

    grammar = to_cnf(chain_reachability("a"))
    backend = backend or default_backend()
    report: dict = {
        "benchmark": "incremental batch vs per-tuple insertion",
        "workload": f"random a-graph, ~{edges_per_node:g} edges/node, "
                    "S -> a | a S",
        "backend": backend,
        "strategy": strategy,
        "batch_sizes": {},
    }
    for size in batch_sizes:
        edges = _random_batch(size, edges_per_node=edges_per_node)

        # Best-of-repeats per path: fresh solver per repetition, only
        # the mutation calls are timed.
        tuple_seconds = batch_seconds = float("inf")
        for _ in range(max(1, repeats)):
            per_tuple = IncrementalCFPQ(LabeledGraph(), grammar,
                                        backend=backend, strategy=strategy)
            started = time.perf_counter()
            tuple_facts = sum(per_tuple.add_edge(*edge) for edge in edges)
            tuple_seconds = min(tuple_seconds,
                                time.perf_counter() - started)

            batched = IncrementalCFPQ(LabeledGraph(), grammar,
                                      backend=backend, strategy=strategy)
            started = time.perf_counter()
            batch_facts = batched.add_edges(edges)
            batch_seconds = min(batch_seconds,
                                time.perf_counter() - started)

        agree = (batch_facts == tuple_facts
                 and batched.relations().same_as(per_tuple.relations()))

        single_seconds = float("inf")
        for _ in range(max(1, repeats)):
            single = IncrementalSinglePathCFPQ(LabeledGraph(), grammar,
                                               strategy=strategy)
            started = time.perf_counter()
            single.add_edges(edges)
            single_seconds = min(single_seconds,
                                 time.perf_counter() - started)
        agree = agree and _lengths_agree(single)

        # DRed: delete a tenth of the batch in one call — on each of
        # the two loaded solvers, best of both like the insert timings.
        victims = edges[::10]
        delete_seconds = float("inf")
        for solver in (per_tuple, batched):
            started = time.perf_counter()
            removed = solver.remove_edges(victims)
            delete_seconds = min(delete_seconds,
                                 time.perf_counter() - started)
            agree = agree and solver.relations().same_as(
                solve_matrix_relations(solver.graph, grammar,
                                       backend=backend, normalize=False))

        report["batch_sizes"][str(size)] = {
            "edges": len(edges),
            "facts": batch_facts,
            "per_tuple_wall_time_s": round(tuple_seconds, 6),
            "batch_wall_time_s": round(batch_seconds, 6),
            "speedup": round(tuple_seconds / batch_seconds, 3)
            if batch_seconds else float("inf"),
            "batch_facts_per_s": round(batch_facts / batch_seconds, 1)
            if batch_seconds else float("inf"),
            "delete_wall_time_s": round(delete_seconds, 6),
            "facts_removed": removed,
            "single_path_wall_time_s": round(single_seconds, 6),
            "single_path_over_relational_x": round(
                single_seconds / batch_seconds, 3)
            if batch_seconds else float("inf"),
            "agree": agree,
        }
    return report


def run_dense_load(edges: int = 1000, nodes: int = 333,
                   seed: int = 7) -> dict:
    """Time one ``add_edges`` bulk load of *edges* random ``a``/``b``
    edges over *nodes* nodes into ``S -> a S b | a b | S S | a`` on both
    solvers, once each; ``agree`` holds when both derive the same facts
    and the single-path lengths equal a fresh index's."""
    import random

    from repro.grammar.cnf import to_cnf
    from repro.grammar.parser import parse_grammar

    grammar = to_cnf(parse_grammar("S -> a S b | a b | S S | a",
                                   terminals=["a", "b"]))
    rng = random.Random(seed)
    batch: set = set()
    while len(batch) < edges:
        batch.add((rng.randrange(nodes), rng.choice("ab"),
                   rng.randrange(nodes)))
    load = sorted(batch)
    cell: dict = {"edges": edges, "nodes": nodes}
    solvers = {}
    for name, solver_class in (("relational", IncrementalCFPQ),
                               ("single_path", IncrementalSinglePathCFPQ)):
        solver = solvers[name] = solver_class(LabeledGraph(), grammar)
        started = time.perf_counter()
        cell["facts"] = solver.add_edges(load)
        cell[f"{name}_wall_time_s"] = round(
            time.perf_counter() - started, 6)
    cell["single_path_over_relational_x"] = round(
        cell["single_path_wall_time_s"] / cell["relational_wall_time_s"], 3)
    cell["agree"] = (solvers["relational"].relations().same_as(
        solvers["single_path"].relations())
        and _lengths_agree(solvers["single_path"]))
    return cell


def run_funding_tick(instances: int = 150, repeats: int = 3,
                     seed: int = 11) -> dict:
    """Time one ``add_edges`` tick of *instances* new funding instances
    (an edge ``type`` to a class and its ``type_r``) on Q1, best of
    *repeats*, on both solvers; ``agree`` holds when each ends in the
    state of a solver built fresh on the ticked graph."""
    import random

    from repro.grammar.builders import same_generation_query1
    from repro.grammar.cnf import to_cnf

    grammar = to_cnf(same_generation_query1())
    base = build_graph("funding")
    rng = random.Random(seed)
    classes = sorted({j for _i, j in base.edge_pairs("type")})
    tick: list = []
    for k in range(instances):
        cls = base.node_at(rng.choice(classes))
        tick += [(f"new{k}", "type", cls), (cls, "type_r", f"new{k}")]

    cell: dict = {"edges": len(tick), "agree": True}
    for name, solver_class in (("relational", IncrementalCFPQ),
                               ("single_path", IncrementalSinglePathCFPQ)):
        seconds = float("inf")
        for _ in range(max(1, repeats)):
            solver = solver_class(_base_graph(), grammar)
            started = time.perf_counter()
            facts = solver.add_edges(tick)
            seconds = min(seconds, time.perf_counter() - started)
        fresh = solver_class(_copy(solver.graph), grammar)
        cell["agree"] = cell["agree"] and \
            solver.export_state() == fresh.export_state()
        cell["facts"] = facts
        cell[f"{name}_wall_time_s"] = round(seconds, 6)
    return cell


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="incremental batch-insertion benchmark (JSON summary)"
    )
    parser.add_argument("--batch-sizes", type=int, nargs="+",
                        default=[10, 100, 300, 1000])
    parser.add_argument("--edges-per-node", type=int, default=3)
    parser.add_argument("--backend", default=None)
    parser.add_argument("--strategy", default="delta")
    parser.add_argument("--output", default=None,
                        help="write JSON here (default: stdout)")
    args = parser.parse_args(argv)

    report = run_incremental_suite(batch_sizes=tuple(args.batch_sizes),
                                   edges_per_node=args.edges_per_node,
                                   backend=args.backend,
                                   strategy=args.strategy)
    report["dense_load"] = run_dense_load()
    report["funding_tick"] = run_funding_tick()
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
