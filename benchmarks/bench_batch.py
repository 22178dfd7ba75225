"""Batched multi-query benchmark: one closure vs per-query loops.

The batched path (:func:`repro.core.batch.solve_batch`) answers the
whole batch with **one** closure plus row reads; the unbatched
alternative runs one closure per query.  Each cell measures
both on the same query set, beside the closure alone:

* ``batched``   — one ``solve_batch(queries)`` call;
* ``all_pairs`` — one ``solve_matrix`` with the same backend, strategy
  and options: the floor a batch can cost (CI holds ``batched`` to
  1.5× of it);
* ``per_query`` — ``solve_batch([query])`` for each of the first
  ``--sample`` queries (running all of a 32-query loop on funding × 8
  would be pure waiting — the per-query *rate* is what matters);
* ``speedup``   — batched queries/s over per-query queries/s, the
  headline number (target: ≥ 3× at batch 32 on funding × 8, bitset);
* ``agree``     — every batched answer equals the reference computed
  from one all-pairs solve, and every sampled per-query answer matches.

Each cell draws its seeded batch in one of three shapes (every run
measures the same batch):

* ``probe`` — membership with one source and one target, half drawn
  from the solved relation (answer True) and half random (mostly
  False); these cells keep the bare ``funding_x{k}_b{n}_{strategy}``
  names;
* ``sets``  — membership with 64 sources and 64 targets, half holding
  one related pair (True) and half with targets outside the sources'
  reach (False), the shape whose miss reads every source row;
* ``rows``  — source-restricted relational over 8 random sources, the
  shape that returns the source rows themselves.

Usage::

    PYTHONPATH=src python benchmarks/bench_batch.py \
        --output benchmarks/BENCH_batch.json
"""

from __future__ import annotations

import argparse
import json
import random
import time

from bench_workloads import repeated_funding
from repro.core.batch import BatchQuery, solve_batch
from repro.core.matrix_cfpq import solve_matrix, solve_matrix_relations
from repro.grammar.builders import same_generation_query1
from repro.grammar.cnf import ensure_cnf
from repro.grammar.symbols import Nonterminal
from repro.matrices import get_backend

START = Nonterminal("S")
GRAMMAR = ensure_cnf(same_generation_query1())

#: (funding copies, batch size, strategy, backend, query shape).
#: Workload names end ``_<backend>`` so the regression gate skips cells
#: whose optional dependency is missing on the checking host.
DEFAULT_CELLS = (
    (2, 8, "delta", "bitset", "probe"),
    (2, 32, "delta", "bitset", "probe"),
    (2, 32, "blocked", "bitset", "probe"),
    (2, 32, "delta", "sparse", "probe"),
    (2, 32, "delta", "setmatrix", "probe"),
    (8, 32, "delta", "bitset", "probe"),  # the gated ≥3× headline cell
    (2, 32, "delta", "sparse", "sets"),
    (2, 32, "delta", "bitset", "sets"),
    (2, 32, "delta", "sparse", "rows"),
    (2, 32, "delta", "dense", "rows"),
)

#: Sources and targets per ``sets`` query; sources per ``rows`` query.
SET_SIZE = 64
ROW_SOURCES = 8

_RELATION_CACHE: dict[int, frozenset] = {}


def _relation(copies: int) -> frozenset:
    """The full R_S on funding × copies (one all-pairs solve, cached):
    the answer oracle every batched/per-query result is checked
    against."""
    if copies not in _RELATION_CACHE:
        graph = repeated_funding(copies)
        relations = solve_matrix_relations(graph, GRAMMAR,
                                           normalize=False)
        _RELATION_CACHE[copies] = relations.node_pairs(START)
    return _RELATION_CACHE[copies]


def make_queries(copies: int, count: int, shape: str = "probe",
                 seed: int = 20180414) -> list:
    """*count* seeded queries of *shape* (see the module docstring)."""
    graph = repeated_funding(copies)
    nodes = [graph.node_at(i) for i in range(graph.node_count)]
    relation = sorted(_relation(copies), key=str)
    reach: dict = {}
    for source, target in relation:
        reach.setdefault(source, set()).add(target)
    rng = random.Random(seed)
    queries = []
    for index in range(count):
        hit = index % 2 == 0 and relation
        if shape == "rows":
            queries.append(BatchQuery(
                START, sources=frozenset(rng.sample(nodes, ROW_SOURCES))))
        elif shape == "sets":
            sources = set(rng.sample(nodes, SET_SIZE))
            reached = set().union(*(reach.get(s, ()) for s in sources))
            pool = [node for node in nodes if node not in reached]
            targets = set(rng.sample(pool, min(SET_SIZE, len(pool))))
            if hit:
                source, target = relation[rng.randrange(len(relation))]
                sources.add(source)
                targets.add(target)
            queries.append(BatchQuery(START, sources=frozenset(sources),
                                      targets=frozenset(targets),
                                      semantics="membership"))
        else:
            if hit:
                source, target = relation[rng.randrange(len(relation))]
            else:
                source, target = rng.choice(nodes), rng.choice(nodes)
            queries.append(BatchQuery(START, sources=frozenset((source,)),
                                      targets=frozenset((target,)),
                                      semantics="membership"))
    return queries


def _expected(relation: frozenset, query: BatchQuery):
    """*query*'s answer filtered out of the all-pairs *relation*."""
    pairs = frozenset(
        (source, target) for source, target in relation
        if source in query.sources
        and (query.targets is None or target in query.targets)
    )
    return bool(pairs) if query.semantics == "membership" else pairs


def cell_name(copies: int, batch_size: int, strategy: str, backend: str,
              shape: str = "probe") -> str:
    kind = "" if shape == "probe" else f"_{shape}"
    return f"funding_x{copies}_b{batch_size}{kind}_{strategy}_{backend}"


def bench_cell(copies: int, batch_size: int, strategy: str,
               backend: str, sample: int, shape: str = "probe") -> dict:
    graph = repeated_funding(copies)
    queries = make_queries(copies, batch_size, shape)
    relation = _relation(copies)
    expected = [_expected(relation, query) for query in queries]

    get_backend(backend)  # load the backend outside the timed calls

    started = time.perf_counter()
    batched = solve_batch(graph, GRAMMAR, queries, backend=backend,
                          strategy=strategy, normalize=False)
    batched_s = time.perf_counter() - started

    started = time.perf_counter()
    solve_matrix(graph, GRAMMAR, backend=backend, strategy=strategy,
                 normalize=False)
    all_pairs_s = time.perf_counter() - started

    measured = min(max(1, sample), batch_size)
    started = time.perf_counter()
    per_query = [
        solve_batch(graph, GRAMMAR, [query], backend=backend,
                    strategy=strategy, normalize=False)[0]
        for query in queries[:measured]
    ]
    per_query_s = time.perf_counter() - started

    batched_qps = batch_size / batched_s if batched_s else 0.0
    per_query_qps = measured / per_query_s if per_query_s else 0.0
    return {
        "nodes": graph.node_count,
        "edges": graph.edge_count,
        "batch_size": batch_size,
        "shape": shape,
        "agree": batched == expected and per_query == expected[:measured],
        "speedup": round(batched_qps / per_query_qps, 3)
        if per_query_qps else 0.0,
        "solvers": {
            "all_pairs": {"wall_time_s": round(all_pairs_s, 6)},
            "batched": {
                "queries": batch_size,
                "queries_per_s": round(batched_qps, 3),
                "wall_time_s": round(batched_s, 6),
            },
            "per_query": {
                "queries": measured,
                "queries_per_s": round(per_query_qps, 3),
                "wall_time_s": round(per_query_s, 6),
            },
        },
    }


def run(cells=DEFAULT_CELLS, sample: int = 4) -> dict:
    report: dict = {
        "benchmark": "batched multi-query closure (one closure plus "
                     "reads vs per-query loops, funding × k, Q1 "
                     "membership and source-restricted relations)",
        "workloads": {},
    }
    for copies, batch_size, strategy, backend, shape in cells:
        name = cell_name(copies, batch_size, strategy, backend, shape)
        print(f"  {name}...", flush=True)
        try:
            report["workloads"][name] = bench_cell(
                copies, batch_size, strategy, backend, sample, shape)
        except ImportError as error:
            print(f"    skipped ({error})", flush=True)
    return report


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        description="batched-query benchmark: one closure vs "
                    "per-query loops (JSON summary)"
    )
    parser.add_argument("--sample", type=int, default=4,
                        help="per-query closures measured per cell "
                             "(the rate extrapolates; default 4)")
    parser.add_argument("--cells", type=int, default=None,
                        help="run only the first N sweep cells")
    parser.add_argument("--output", default=None,
                        help="write JSON here (default: stdout)")
    args = parser.parse_args(argv)

    cells = DEFAULT_CELLS[:args.cells] if args.cells else DEFAULT_CELLS
    print(f"batch benchmark: {len(cells)} cells, "
          f"sample={args.sample}", flush=True)
    report = run(cells, sample=args.sample)
    payload = json.dumps(report, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as stream:
            stream.write(payload + "\n")
        print(f"wrote {args.output}")
    else:
        print(payload)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
