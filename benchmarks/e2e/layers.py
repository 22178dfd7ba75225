"""Per-layer attribution: an in-process replay of a workload's inputs
with a span around each call into a layer's public function.

The spans come from this file, not from the program: each records name,
start, end, parent and workload, stays in memory and is written to
``out/trace_<workload>.jsonl`` when the run ends.  A span's name is
``<layer>.<operation>``; a layer's self time is the time inside its
spans that no child span covers.  Counts are read at the same
boundaries, from the public result and stats objects.

Every run reports every per-layer metric; a layer the workload never
enters reports 0, which is the point of having workloads that bypass
layers.
"""

from __future__ import annotations

import contextlib
import filecmp
import gc
import json
import os
import random
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import loadgen
import offline
import workloads
from workloads import START


class Recorder:
    """In-memory span recorder.  Disabled, :meth:`span` costs one test —
    the replay runs both ways to price the tracing itself.  *measure*
    marks the replay whose spans are kept: the micro-measurements that
    follow a replay are taken after that one only."""

    def __init__(self, workload: str, enabled: bool = True,
                 measure: bool = False):
        self.workload = workload
        self.enabled = enabled
        self.measure = measure
        self.spans: list = []
        self._stack: list = []

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "workload": self.workload, "start": time.perf_counter(),
                  "end": None}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, function, *args, **kwargs):
        with self.span(name):
            return function(*args, **kwargs)

    def wrap(self, owner, method: str, name: str) -> None:
        """Route ``owner.method`` through a span, so a layer called from
        inside another (the solver from inside a service tick) shows up
        as the caller's child."""
        inner = getattr(owner, method)
        setattr(owner, method,
                lambda *args, **kwargs: self.call(name, inner, *args,
                                                  **kwargs))

    def durations(self, name: str) -> list:
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def median_ms(self, name: str) -> float:
        values = self.durations(name)
        return statistics.median(values) * 1e3 if values else 0.0

    def self_seconds(self) -> dict:
        """Span name -> time inside those spans not covered by a child."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        by_name: dict = defaultdict(float)
        for s, seconds in zip(self.spans, own):
            by_name[s["name"]] += seconds
        return dict(by_name)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as stream:
            for record in self.spans:
                stream.write(json.dumps(record) + "\n")


def median_ms(function, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        function()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples) * 1e3


# ----------------------------------------------------------------------
# Offline replays
# ----------------------------------------------------------------------

def _pair_rules(cnf) -> list:
    return [(rule.head, rule.body[0], rule.body[1])
            for rule in cnf.binary_rules]


def _heaviest_operands(matrices: dict, cnf):
    """The operands of the rule whose product reads the most entries."""
    _head, left, right = max(
        _pair_rules(cnf),
        key=lambda rule: matrices[rule[1]].nnz() + matrices[rule[2]].nnz())
    return matrices[left], matrices[right]


def replay_boolean_cell(rec: Recorder, cell, workdir: str, counts: dict):
    """What ``repro-cfpq query --json`` does for a boolean cell, one
    public call per layer.  Returns the closed matrices, the CNF and the
    backend."""
    from repro.core.closure import run_closure
    from repro.core.matrix_cfpq import initial_boolean_matrices
    from repro.core.relations import ContextFreeRelations
    from repro.grammar.builders import get_grammar
    from repro.grammar.cnf import ensure_cnf
    from repro.graph.io import load_graph_file
    from repro.matrices.base import default_backend, get_backend

    backend = get_backend(cell.backend or default_backend())
    options = dict(cell.options)
    if "memory_budget" in options:
        options["spill_dir"] = os.path.join(workdir, "spill")
    with rec.span("run.cell"):
        graph = rec.call("graph.load", load_graph_file, cell.graph_file)
        cnf = rec.call("grammar.cnf", lambda: ensure_cnf(
            get_grammar(cell.grammar_name)))
        matrices = rec.call("closure.init", initial_boolean_matrices,
                            graph, cnf, backend)
        closure = rec.call(f"closure.{cell.strategy}", run_closure, matrices,
                           _pair_rules(cnf), backend,
                           strategy=cell.strategy, **options)
        pairs = rec.call("relations.extract", lambda: ContextFreeRelations(
            graph, {nt: m.to_pair_set()
                    for nt, m in closure.matrices.items()}
        ).node_pairs(START))
        rec.call("cli.render", lambda: json.dumps({
            "start": START, "count": len(pairs),
            "pairs": [[str(a), str(b)]
                      for a, b in sorted(pairs, key=str)]}))
    counts["rounds"] += closure.iterations
    counts["multiplications"] += closure.multiplications
    counts["delta_nnz"] += sum(closure.delta_nnz_per_round)
    counts["blocked"] = closure.details.get("blocked")
    if frozenset(pairs) != cell.expected:
        counts["wrong"] += 1
    return closure.matrices, cnf, backend


def kernel_metrics(prefix: str, matrices: dict, cnf, backend) -> dict:
    """One product and one in-place union of the heaviest rule's operands
    at the fixpoint, with the bytes they touch computed from sizes."""
    left, right = _heaviest_operands(matrices, cnf)
    product = left.multiply(right)
    target = backend.clone(left)
    return {
        f"{prefix}.mxm_ms": median_ms(lambda: left.multiply(right), 5),
        f"{prefix}.union_update_ms": median_ms(
            lambda: backend.union_update(backend.clone(target), product), 5),
        f"{prefix}.operand_nnz": left.nnz() + right.nnz(),
        f"{prefix}.bytes_moved_computed": sum(
            backend.matrix_nbytes(m) for m in (left, right, product)),
    }


def cli_pass(cells: list, env: dict) -> dict:
    """The bare import and one pass of the real CLI children.  Taken
    before the replays grow this process: a child is forked at its
    parent's size, and ``ru_maxrss`` would report that."""
    import_s = median_ms(lambda: subprocess.run(
        [sys.executable, "-c", "import repro.cli"], env=env, check=True),
        3) / 1e3
    answer_s = 0.0
    for cell in cells:
        elapsed, code, _stdout = offline.run_cli(cell.args, env)
        if code != 0:
            raise RuntimeError(f"cell {cell.name} exited {code}")
        answer_s += elapsed
    return {"answer_s": answer_s,
            "peak_rss_mb": offline.children_peak_rss_mb(),
            "cli.import_s": import_s}


def replay_offline_relational(rec, cells, workdir, counts) -> dict:
    heaviest = None
    for cell in cells:
        result = replay_boolean_cell(rec, cell, workdir, counts)
        if cell.name == "g1_q1":
            heaviest = result
    if not rec.measure:
        return {}
    kernel = kernel_metrics("matrices.sparse", *heaviest)
    return {"matrices.sparse.mxm_ms": kernel["matrices.sparse.mxm_ms"],
            "matrices.sparse.operand_nnz":
                kernel["matrices.sparse.operand_nnz"]}


def replay_offline_budgeted(rec, cells, workdir, counts) -> dict:
    from repro.core.closure import run_closure
    from repro.core.matrix_cfpq import initial_boolean_matrices

    cell = cells[0]
    matrices, cnf, backend = replay_boolean_cell(rec, cell, workdir, counts)
    if not rec.measure:
        return {}
    stats = counts["blocked"]
    budgeted_s = rec.total("closure.blocked")
    from repro.graph.io import load_graph_file
    fresh = initial_boolean_matrices(load_graph_file(cell.graph_file), cnf,
                                     backend)
    started = time.perf_counter()
    run_closure(fresh, _pair_rules(cnf), backend, strategy="blocked",
                tile_size=cell.options["tile_size"])
    unbounded_s = time.perf_counter() - started
    print(f"  blocked closure: budgeted {budgeted_s:.4f} s, unbounded "
          f"{unbounded_s:.4f} s (base of tilestore.budget_overhead_x)")
    return {
        **kernel_metrics("matrices.bitset", matrices, cnf, backend),
        "closure.blocked_tile_products": stats.tile_products,
        "closure.blocked_tiles_skipped": stats.tiles_skipped_by_frontier,
        "tilestore.tiles_spilled": stats.tiles_spilled,
        "tilestore.tiles_reloaded": stats.tiles_reloaded,
        "tilestore.spill_bytes": stats.spill_bytes,
        "tilestore.peak_resident_bytes": stats.peak_resident_bytes,
        "tilestore.reload_per_spill":
            stats.tiles_reloaded / max(1, stats.tiles_spilled),
        "tilestore.budget_overhead_x": budgeted_s / unbounded_s,
        "tilestore.scheduler_s": stats.scheduler_wall_time_s,
    }


def replay_offline_paths(rec, cells, workdir, counts) -> dict:
    """The five CLI cells: each loads, normalizes, closes under its
    semiring and extracts; then path extraction and k-best paging over
    seeded pairs on the indexes the cells built."""
    from repro.core.path_index import AllPathIndex
    from repro.core.semiring import get_semiring, solve_annotated
    from repro.core.single_path import SinglePathIndex, extract_path
    from repro.grammar.builders import get_grammar
    from repro.grammar.cnf import ensure_cnf
    from repro.grammar.symbols import Nonterminal
    from repro.graph.io import load_graph_file

    by_name = {cell.name: cell for cell in cells}
    source, target = by_name["path"].endpoints
    index = forest = None
    for cell in cells:
        with rec.span("run.cell"):
            graph = rec.call("graph.load", load_graph_file, cell.graph_file)
            cnf = rec.call("grammar.cnf", lambda: ensure_cnf(
                get_grammar(cell.grammar_name)))
            if cell.kind == "top_k":
                forest = rec.call("semiring.witness_closure",
                                  AllPathIndex.build, graph, cnf)
                paths = rec.call("paths.top_k_first", forest.top_k, START,
                                 source, target, 5)
                rec.call("cli.render", json.dumps, [
                    [[str(graph.node_at(i)), label, str(graph.node_at(j))]
                     for i, label, j in path] for path in paths])
                continue
            semiring = get_semiring(cell.semiring)
            result = rec.call(f"semiring.{cell.semiring}_closure",
                              solve_annotated, graph, cnf, semiring,
                              normalize=False)
            if cell.kind == "path":
                index = rec.call("paths.index", lambda: SinglePathIndex(
                    graph=graph, grammar=cnf, cells=result.cells(),
                    iterations=result.iterations))
                path = rec.call("paths.extract", extract_path, index, START,
                                source, target)
                rec.call("cli.render", json.dumps, [
                    [str(graph.node_at(i)), label, str(graph.node_at(j))]
                    for i, label, j in path])
            else:
                matrix = result.matrices[Nonterminal(START)]
                rows = rec.call("relations.extract", lambda: sorted(
                    [str(graph.node_at(i)), str(graph.node_at(j)),
                     semiring.count(v) if cell.semiring == "counting" else v]
                    for i, j, v in matrix.nonzero_cells()))
                rec.call("cli.render", json.dumps, rows)
                if {(r[0], r[1]) for r in rows} != {
                        (str(a), str(b)) for a, b in cell.expected}:
                    counts["wrong"] += 1
    if not rec.measure:
        return {}

    rng = random.Random(len(by_name["length"].expected))
    pairs = rng.sample(sorted(by_name["length"].expected), 200)
    extract_ms = statistics.median(
        median_ms(lambda: extract_path(index, START, s, t), 1)
        for s, t in pairs)
    first, following = [], []
    for s, t in pairs[:20]:
        stream = forest.iter_k_best(START, s, t)
        first.append(median_ms(lambda: [next(stream, None)
                                        for _ in range(5)], 1))
        following.append(median_ms(lambda: [next(stream, None)
                                            for _ in range(5)], 1))

    from repro.core.matrix_cfpq import solve_matrix
    graph = load_graph_file(cells[0].graph_file)
    started = time.perf_counter()
    solve_matrix(graph, get_grammar("query1"))
    boolean_s = time.perf_counter() - started
    length_s = rec.total("semiring.length_closure") / 2  # path + length cells
    print(f"  boolean solve {boolean_s:.4f} s (base of "
          f"semiring.length_over_boolean_x)")
    return {
        "semiring.length_closure_s": length_s,
        "semiring.length_over_boolean_x": length_s / boolean_s,
        "paths.extract_ms": extract_ms,
        "paths.top_k_first_ms": statistics.median(first),
        "paths.top_k_next_ms": statistics.median(following),
        "paths.kbest_expansions": forest.kbest_stats["expansions"],
    }


# ----------------------------------------------------------------------
# Serving replays
# ----------------------------------------------------------------------

def _decode(request) -> dict:
    return json.loads(request.line)


def _ops(inputs, index: int) -> list:
    inserted, deleted = inputs.ticks[index]
    ops = [("insert", tuple(e)) for i in inserted
           for e in inputs.pool_edges[i]]
    return ops + [("delete", tuple(e)) for i in deleted
                  for e in inputs.pool_edges[i]]


def _service_query(service, request):
    spec = _decode(request)
    return service.query(spec["start"], source=spec.get("source"),
                         target=spec.get("target"),
                         semantics=spec.get("semantics", "relational"))


def replay_service(rec: Recorder, inputs, service) -> None:
    """The request stream against the service object, ticks beside it:
    every read under a ``service.<kind>`` span, every tick under
    ``service.tick`` with the solver's share as child spans."""
    rec.wrap(service.solver, "add_edges", "incremental.add_edges")
    rec.wrap(service.solver, "remove_edges", "incremental.remove_edges")
    tick = 0
    for position, request in enumerate(inputs.requests[:900]):
        if position % 300 == 150:
            rec.call("service.tick", service.tick, _ops(inputs, tick))
            rec.call("service.full_miss", service.query, START)
            tick += 1
        spec = _decode(request)
        if request.kind == "batch":
            rec.call("batch.query_batch8", service.query_batch,
                     spec["queries"])
        elif request.kind == "top_k":
            rec.call("paths.top_k_page", service.top_k_page, spec["start"],
                     spec["source"], spec["target"], spec["k"],
                     cursor=spec["cursor"])
        else:
            rec.call(f"service.{request.kind}", _service_query, service,
                     request)


def incremental_metrics(inputs, graph, grammar) -> dict:
    """The solver alone, on the service's configuration: batch inserts of
    one and ten instances, the per-tuple path, and deletions (the first
    one builds the DRed support index)."""
    from repro.core.incremental import IncrementalSinglePathCFPQ

    solver = IncrementalSinglePathCFPQ(graph, grammar)
    absent = [i for i in inputs.pool_edges if i not in inputs.present]
    edges = {i: [tuple(e) for e in inputs.pool_edges[i]] for i in absent}
    propagated = solver.stats["propagated_facts"]
    one = median_ms(lambda i=iter(absent[:5]): solver.add_edges(
        edges[next(i)]), 5)
    ten = median_ms(lambda: solver.add_edges(
        [e for i in absent[5:15] for e in edges[i]]), 1)
    per_tuple = median_ms(lambda i=iter(absent[15:20]): [
        solver.add_edge(*e) for e in edges[next(i)]], 5)
    propagated = solver.stats["propagated_facts"] - propagated
    started = time.perf_counter()
    solver.remove_edges(edges[absent[0]])
    support_s = time.perf_counter() - started
    removal = median_ms(lambda i=iter(absent[1:5]): solver.remove_edges(
        edges[next(i)]), 4)
    return {"incremental.add_edges_ms": one,
            "incremental.add_edges_b10_ms": ten,
            "incremental.add_edge_ms": per_tuple,
            "incremental.remove_edges_ms": removal,
            "incremental.support_build_s": support_s,
            "incremental.facts_propagated": propagated}


async def round_trips(inputs, address, with_full: bool = True) -> dict:
    """Median round-trip times on one connection: ping, membership over
    300 keys, and (optionally) the whole relation."""
    connection = loadgen.Connection(address)
    member = [r for r in inputs.requests if r.kind == "membership"][:300]
    full = json.dumps({"op": "query", "start": START}).encode() + b"\n"
    ping = json.dumps({"op": "ping"}).encode() + b"\n"

    async def rtt_ms(line: bytes) -> float:
        started = time.perf_counter()
        reply = await connection.request(line, 30.0)
        if reply is None:
            raise RuntimeError(f"no reply from {address}")
        return (time.perf_counter() - started) * 1e3

    try:
        return {
            "server.ping_rtt_ms": statistics.median(
                [await rtt_ms(ping) for _ in range(200)]),
            "server.membership_rtt_ms": statistics.median(
                [await rtt_ms(r.line) for r in member]),
            "server.full_relation_rtt_ms": statistics.median(
                [await rtt_ms(full) for _ in range(3)]) if with_full
            else 0.0,
        }
    finally:
        await connection.close()


def wire_probe(inputs):
    """The probe the end-to-end drive awaits after its read phases, on
    the real server children: in one process the generator and the
    server would share an interpreter lock and time each other's waits.
    Replicated, membership goes straight to the follower and through
    the leader that forwards to it."""

    async def probe(address, follower) -> dict:
        if follower is None:
            return await round_trips(inputs, address)
        counter = loadgen.Connection(follower)
        try:
            async def follower_queries() -> int:
                stats = await counter.call({"op": "stats"})
                return stats["result"]["queries"]

            # Same keys three times: the first pass fills the follower's
            # cache, so the forwarded and the direct pass both read it
            # warm.
            await round_trips(inputs, follower, with_full=False)
            before = await follower_queries()
            forwarded = await round_trips(inputs, address, with_full=False)
            reached = await follower_queries() - before
            direct = await round_trips(inputs, follower, with_full=False)
        finally:
            await counter.close()
        return {
            **forwarded,
            "replica.forward_overhead_ms":
                forwarded["server.membership_rtt_ms"]
                - direct["server.membership_rtt_ms"],
            # 300 memberships went to the leader (pings are not reads).
            "replica.forwarded_share": reached / 300,
        }

    return probe


def _load(rec: Recorder, inputs):
    from repro.grammar.builders import get_grammar
    from repro.graph.io import load_graph_file

    graph = rec.call("graph.load", load_graph_file, inputs.graph_file)
    grammar = rec.call("grammar.cnf", get_grammar, "query1")
    return graph, grammar


def service_metrics(rec: Recorder, service) -> dict:
    stats = service.stats
    ticks = len(rec.durations("service.tick"))
    own = rec.self_seconds()
    return {
        "service.membership_us": rec.median_ms("service.membership") * 1e3,
        "service.length_us": rec.median_ms("service.length") * 1e3,
        "service.single_path_ms": rec.median_ms("service.single_path"),
        # Ticks on pooled instances leave ``R_S`` alone, so the whole
        # relation misses the cache once: the slowest call is that miss.
        "service.full_relation_ms": max(
            rec.durations("service.full")
            + rec.durations("service.full_miss"), default=0.0) * 1e3,
        "service.tick_ms": rec.median_ms("service.tick"),
        "service.tick_overhead_ms":
            own.get("service.tick", 0.0) / max(1, ticks) * 1e3,
        "service.cache_hit_rate": stats["cache_hit_rate"],
        "service.cache_invalidations_per_tick":
            stats["cache_invalidations"] / max(1, stats["ticks"]),
        "batch.query_batch8_ms": rec.median_ms("batch.query_batch8"),
        "batch.batch8_over_single_x":
            rec.median_ms("batch.query_batch8")
            / max(1e-9, 8 * rec.median_ms("service.membership")),
        "paths.top_k_first_ms": rec.median_ms("paths.top_k_page"),
        # The first path queries after a tick rebuild the indexes.
        "semiring.witness_closure_s":
            max(rec.durations("paths.top_k_page"), default=0.0),
        "semiring.length_closure_s":
            max(rec.durations("service.single_path"), default=0.0),
    }


def replay_serve_mixed(rec, inputs, workdir, counts) -> dict:
    from repro.service.query_service import QueryService

    with rec.span("run.replay"):
        graph, grammar = _load(rec, inputs)
        service = rec.call("service.startup", QueryService, graph, grammar,
                           single_path=True)
        replay_service(rec, inputs, service)
    if not rec.measure:
        return {}
    metrics = service_metrics(rec, service)
    metrics["service.startup_s"] = rec.total("service.startup")
    # A fresh graph: the replayed ticks have moved this one's instances.
    metrics.update(incremental_metrics(
        inputs, *_load(Recorder(rec.workload, enabled=False), inputs)))
    return metrics


def replay_serve_replicated(rec, inputs, workdir, counts) -> dict:
    from repro.core.engine import CFPQEngine
    from repro.service.query_service import QueryService
    from repro.service.replica import FollowerService, ReplicatedService
    from repro.service.snapshot import save_engine_snapshot
    from repro.service.wal import TickLog

    snapshot = os.path.join(workdir, "replay.snapshot")
    wal = os.path.join(workdir, "replay.wal")
    for path in (snapshot, wal):
        if os.path.exists(path):
            os.remove(path)
    ticks = 3
    with rec.span("run.replay"):
        graph, grammar = _load(rec, inputs)
        engine = CFPQEngine(graph, grammar)
        rec.call("closure.delta", engine.solve)
        rec.call("semiring.length_closure", engine.single_path_index)
        size = rec.call("snapshot.save", save_engine_snapshot, snapshot,
                        engine, ("relational", "single-path"))
        service = rec.call("snapshot.load", QueryService.from_snapshot,
                           snapshot)
        log = TickLog(wal, fsync="batch")
        leader = ReplicatedService(service, log)
        follower = rec.call("snapshot.load", FollowerService.from_snapshot,
                            snapshot, wal)
        rec.wrap(log, "append", "wal.append")
        rec.wrap(service, "tick", "service.tick")
        for index in range(ticks):
            rec.call("replica.leader_tick", leader.tick, _ops(inputs, index))
        rec.call("replica.replay", follower.replay)
    if not rec.measure:
        log.close()
        return {}
    paths = [os.path.join(workdir, f"replay.{role}.snapshot")
             for role in ("leader", "follower")]
    leader.save_snapshot(paths[0])
    follower.save_snapshot(paths[1])
    counts["wrong"] += not filecmp.cmp(*paths, shallow=False)

    cold = time.perf_counter()
    QueryService(graph, grammar, single_path=True)
    cold_s = time.perf_counter() - cold
    load_s = statistics.median(rec.durations("snapshot.load"))
    print(f"  cold service start {cold_s:.4f} s (base of "
          f"snapshot.load_over_cold_x)")
    wal_bytes = os.path.getsize(wal) / ticks
    always = TickLog(os.path.join(workdir, "always.wal"), fsync="always")
    always_ms = median_ms(lambda i=iter(range(ticks)): always.append(
        _ops(inputs, next(i))), ticks)
    always.close()

    metrics = {
        "snapshot.save_s": rec.total("snapshot.save"),
        "snapshot.load_s": load_s,
        "snapshot.bytes": size,
        "snapshot.load_over_cold_x": load_s / cold_s,
        "service.startup_s": load_s,
        "service.tick_ms": rec.median_ms("service.tick"),
        "wal.append_ms": rec.median_ms("wal.append"),
        "wal.append_always_ms": always_ms,
        "wal.bytes_per_tick": wal_bytes,
        "replica.replay_ms_per_tick":
            rec.total("replica.replay") / ticks * 1e3,
    }
    log.close()
    return metrics


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------

REPLAYS = {
    "offline_relational": replay_offline_relational,
    "offline_budgeted": replay_offline_budgeted,
    "offline_paths": replay_offline_paths,
    "serve_mixed": replay_serve_mixed,
    "serve_replicated": replay_serve_replicated,
}

#: Span name -> per-layer metric holding the summed seconds.
SPAN_SECONDS = {
    "graph.load": "graph.load_s", "grammar.cnf": "grammar.cnf_s",
    "closure.init": "closure.init_s", "closure.delta": "closure.delta_s",
    "closure.blocked": "closure.blocked_s",
    "relations.extract": "relations.extract_s", "cli.render": "cli.render_s",
    "semiring.length_closure": "semiring.length_closure_s",
    "semiring.witness_closure": "semiring.witness_closure_s",
    "semiring.counting_closure": "semiring.counting_closure_s",
    "semiring.viterbi_closure": "semiring.viterbi_closure_s",
}


#: The replay runs this many times with spans off and as many with
#: spans on, in turn; the fastest of each side is compared.
REPLAY_PAIRS = 3


def run_traced(args, workdir: str, out_dir: str, declared: list, env: dict,
               drive) -> dict:
    """Replay the workload's inputs with spans off and on; the per-layer
    metrics, every declared name present.  For a serving workload
    ``drive(probe)`` runs the end-to-end drive as well: it supplies the
    wire round trips and the serving metrics that have no bound."""
    import repro.cli  # noqa: F401  (pays the imports before any timing)

    name, seed = args.workload, args.seed
    size = workloads.QUICK_SIZE if args.quick else workloads.FULL_SIZE
    offline_run = name.startswith("offline")

    def make_inputs():
        if offline_run:
            return getattr(workloads, name)(workdir, seed, size)
        mix = workloads.READ_MIX if name == "serve_mixed" \
            else workloads.REPLICATED_MIX
        return workloads.serve_inputs(workdir, seed, 4000, 6, mix)

    # The oracles hold millions of tuples; frozen, the collector stops
    # walking them on every allocation burst of the replay, as it never
    # has to in the short-lived CLI process being mirrored.
    inputs = make_inputs()
    cli = cli_pass(inputs, env) if offline_run else {}
    gc.collect()
    gc.freeze()
    untraced_s, traced_s, layered_s = [], [], []
    pairs = 1 if args.quick else REPLAY_PAIRS
    for pair in range(pairs):
        # A serving replay moves the generator's graph with its ticks.
        if not offline_run:
            inputs = make_inputs()
        started = time.perf_counter()
        REPLAYS[name](Recorder(name, enabled=False), inputs, workdir,
                      defaultdict(int))
        untraced_s.append(time.perf_counter() - started)
        if not offline_run:
            inputs = make_inputs()
        gc.collect()
        recorder = Recorder(name, measure=pair == pairs - 1)
        counts: dict = defaultdict(int)
        extra = REPLAYS[name](recorder, inputs, workdir, counts)
        # The spans-on replay proper is its ``run.*`` root spans; the
        # micro-measurements after them are taken on this side only.
        traced_s.append(sum(s["end"] - s["start"] for s in recorder.spans
                            if s["name"].startswith("run.")))
        own = recorder.self_seconds()
        layered_s.append(sum(seconds for span, seconds in own.items()
                             if not span.startswith("run.")))

    layered = layered_s[-1]
    metrics = {metric: 0.0 for metric in declared}
    for span_name, metric in SPAN_SECONDS.items():
        metrics[metric] = recorder.total(span_name)
    metrics["closure.rounds"] = counts["rounds"]
    metrics["closure.multiplications"] = counts["multiplications"]
    metrics["closure.delta_nnz_total"] = counts["delta_nnz"]
    metrics.update(extra)
    failed, attempted = counts["wrong"], len(recorder.spans)
    if offline_run:
        # What a CLI call pays around the layers — argument parsing, the
        # sort and JSON of the answer, interpreter exit: what is left of
        # the CLI pass once the imports and the fastest replay's layer
        # spans, its rendering aside, are taken off.
        spans_s = min(layered_s) - own.get("cli.render", 0.0)
        print(f"  one CLI pass {cli['answer_s']:.4f} s, import "
              f"{cli['cli.import_s']:.4f} s x {len(inputs)}, layer spans "
              f"{spans_s:.4f} s")
        metrics.update(cli)
        metrics["cli.overhead_s"] = cli["answer_s"] \
            - len(inputs) * cli["cli.import_s"] - spans_s
    else:
        driven = drive(wire_probe(inputs))
        metrics.update({key: value
                        for key, value in driven["metrics"].items()
                        if key in metrics})
        failed += driven["failed"]
        attempted += driven["attempted"]
        if "service.membership_us" in extra:
            metrics["server.wire_overhead_ms"] = \
                metrics["server.membership_rtt_ms"] \
                - metrics["service.membership_us"] / 1e3
    metrics["obs.span_coverage"] = layered / traced_s[-1]
    metrics["obs.trace_overhead_x"] = min(traced_s) / min(untraced_s)
    print("  replay walls (s): spans off "
          + " ".join(f"{value:.4f}" for value in untraced_s)
          + ", spans on " + " ".join(f"{value:.4f}" for value in traced_s)
          + f" with {len(recorder.spans)} spans")
    recorder.dump(os.path.join(out_dir, f"trace_{name}.jsonl"))

    layers: dict = defaultdict(float)
    for span, seconds in own.items():
        layers[span.split(".")[0]] += seconds
    for layer, seconds in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"  self time {layer:12s} {seconds:9.4f} s")
    return {"metrics": metrics, "attempted": attempted, "failed": failed}
