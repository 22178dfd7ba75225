"""Ablation: boolean matrix backend choice (the paper's dGPU / sCPU /
sGPU columns reduced to their storage-format essence).

Expected shape: on sparse real-world graphs the CSR backend dominates
the dense one, and the gap widens with graph size — the reason the
paper's Table 1 omits dGPU for g1–g3.  The pure-Python backend trails
both (it exists for auditability, not speed).

Two modes (mirroring ``bench_single_path.py``):

1. pytest-benchmark micro tests (``pytest benchmarks/ --benchmark-only``);
2. a machine-readable JSON sweep over backends × datasets, plus a
   kernel micro-benchmark pitting the vectorized bitset ``multiply``
   against the seed row-loop kernel it replaced on a 512-node graph::

       PYTHONPATH=src python benchmarks/bench_backends.py \
           --datasets skos travel funding --output backends.json

   The committed ``BENCH_backends.json`` pins these numbers; CI's
   bench-smoke job re-runs the sweep and fails on a >2× wall-time
   regression in any cell (see ``check_bench_regression.py``), and
   ``tests/bench/test_backend_baseline.py`` asserts the pinned kernel
   speedup stays ≥ 3×.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import pytest

from repro.core.matrix_cfpq import solve_matrix_relations
from repro.datasets.registry import build_graph

BACKENDS = ("sparse", "dense", "setmatrix")
SMALL, MEDIUM = "skos", "funding"


@pytest.mark.parametrize("backend", BACKENDS)
def test_backend_small_graph(benchmark, query1_cnf, backend):
    graph = build_graph(SMALL)
    relations = benchmark(solve_matrix_relations, graph, query1_cnf,
                          backend, False)
    assert relations.count("S") > 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_backend_medium_graph(benchmark, query1_cnf, backend):
    graph = build_graph(MEDIUM)
    relations = benchmark.pedantic(
        solve_matrix_relations, args=(graph, query1_cnf, backend, False),
        iterations=1, rounds=1,
    )
    assert relations.count("S") > 0


def test_backends_return_identical_relations(query1_cnf):
    """Correctness gate for the ablation: same answers everywhere."""
    graph = build_graph(SMALL)
    results = {
        backend: solve_matrix_relations(graph, query1_cnf, backend, False)
        for backend in BACKENDS
    }
    reference = results["sparse"]
    for backend, relations in results.items():
        assert relations.same_as(reference), backend


# ----------------------------------------------------------------------
# Machine-readable backend × dataset sweep + kernel micro-benchmark
# ----------------------------------------------------------------------

#: Backends covered by the JSON sweep (array-storage backends only —
#: the pure-Python ones exist for auditability, not speed).
SWEEP_BACKENDS = ("bitset", "dense", "sparse")

#: Kernel micro-benchmark shape: a 512-node random graph dense enough
#: that the row-loop kernel pays per set bit.
KERNEL_NODES = 512
KERNEL_EDGES = 13_000


def bench_bitset_kernel(nodes: int = KERNEL_NODES,
                        edges: int = KERNEL_EDGES,
                        repeats: int = 10) -> dict:
    """Time vectorized ``BitsetMatrix.multiply`` against the seed
    row-loop kernel (:meth:`BitsetMatrix.multiply_rowloop`) on one
    random boolean matrix squared.  Returns the timing cell with the
    measured speedup (best-of-*repeats* each, so timer noise cannot
    manufacture a regression)."""
    from repro.graph.generators import random_graph
    from repro.graph.matrices import boolean_adjacency

    matrix = boolean_adjacency(
        random_graph(nodes, edges, ["e"], seed=42), backend="bitset"
    )

    def best_of(operation, count: int) -> float:
        best = float("inf")
        for _ in range(count):
            started = time.perf_counter()
            operation()
            best = min(best, time.perf_counter() - started)
        return best

    vectorized = best_of(lambda: matrix.multiply(matrix), repeats)
    rowloop = best_of(lambda: matrix.multiply_rowloop(matrix),
                      max(2, repeats // 3))
    assert matrix.multiply(matrix).same_pairs(
        matrix.multiply_rowloop(matrix))
    return {
        "nodes": nodes,
        "edges": edges,
        "vectorized_wall_time_s": round(vectorized, 6),
        "rowloop_wall_time_s": round(rowloop, 6),
        "speedup": round(rowloop / vectorized, 2),
    }


def run_backend_suite(datasets: tuple[str, ...] = ("skos", "travel",
                                                   "funding"),
                      backends: tuple[str, ...] = SWEEP_BACKENDS) -> dict:
    """Time the relational closure per (dataset, backend) plus the
    bitset kernel micro-benchmark.  An ``agree`` flag per dataset
    asserts every backend produced identical relations."""
    from repro.grammar.builders import same_generation_query1
    from repro.grammar.cnf import to_cnf

    grammar = to_cnf(same_generation_query1())
    report: dict = {
        "benchmark": "matrix backends x datasets",
        "grammar": "Q1 (same-generation, Figure 10)",
        "workloads": {},
        "kernels": {
            "bitset_multiply_512": bench_bitset_kernel(),
        },
    }
    for dataset in datasets:
        graph = build_graph(dataset)
        cells: dict = {}
        reference = None
        agree = True
        for backend in backends:
            started = time.perf_counter()
            relations = solve_matrix_relations(graph, grammar,
                                               backend=backend,
                                               normalize=False)
            elapsed = time.perf_counter() - started
            if reference is None:
                reference = relations
            elif not relations.same_as(reference):
                agree = False
            cells[backend] = {
                "wall_time_s": round(elapsed, 6),
                "relation_size": len(relations.pairs("S")),
            }
        report["workloads"][dataset] = {
            "nodes": graph.node_count,
            "edges": graph.edge_count,
            "agree": agree,
            "backends": cells,
        }
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="matrix backend ablation benchmark (JSON summary)"
    )
    parser.add_argument("--datasets", nargs="+",
                        default=["skos", "travel", "funding"])
    parser.add_argument("--backends", nargs="+", default=list(SWEEP_BACKENDS))
    parser.add_argument("--output", default=None,
                        help="write JSON here (default: stdout)")
    args = parser.parse_args(argv)

    report = run_backend_suite(datasets=tuple(args.datasets),
                               backends=tuple(args.backends))
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
