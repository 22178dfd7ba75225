"""A query session over a live, mutating graph.

:class:`QueryService` wraps the batch-incremental solver
(:mod:`repro.core.incremental`) behind the three things a server needs
and the solver alone does not give:

* **point reads are views, whole relations are cached**, one entry per
  start non-terminal; a tick pops the entries whose matrix moved, from
  the closure's exact per-non-terminal deltas
  (:attr:`~repro.core.incremental.IncrementalCFPQ.last_changes`);
* **coalesced update ticks**: per tick, the last operation per edge
  wins, applied as at most one DRed ``remove_edges`` pass plus one
  ``add_edges`` worklist run;
* **one owner**: no locks.  One thread calls the service (the stdio
  loop or the TCP server's event loop), so a query, and a path *view*
  over the live fact maps, always reads a completed tick's fixpoint.
  A whole relation and a snapshot are also offered as *steps*
  (:func:`run_inline`), whose yielded callables only read the index:
  a server runs those on a worker while its own thread keeps the
  counters and the cache.

Construction is cold (one initial closure) unless a ``warm_state`` is
supplied — :meth:`QueryService.from_snapshot` restores one from the
snapshot store (:mod:`repro.service.snapshot`), making restart cost
O(load) with zero closure rounds.
"""

from __future__ import annotations

import dataclasses
import functools
import os
from collections import Counter, OrderedDict
from typing import Callable, Generator, Hashable, Iterable

from ..core.closure import closure_settings
from ..core.incremental import IncrementalCFPQ, IncrementalSinglePathCFPQ
from ..core.semiring import LENGTH_SEMIRING, RANKING_SEMIRINGS, get_semiring
from ..core.single_path import extract_path
from ..errors import ReproError, SemanticsError
from ..grammar.symbols import Nonterminal
from ..graph.labeled_graph import Edge, LabeledGraph
from ..graph.request import Query, read_query
from ..matrices.base import get_backend
from ..obs.metrics import DEFAULT_SIZE_BUCKETS, get_registry
from ..obs.trace import get_tracer, stopwatch
from . import snapshot as snapshot_store


def _cache_requests_counter():
    """The relation-cache hit/miss counter (resolved at use time so a
    test-swapped registry is always honoured)."""
    return get_registry().counter(
        "repro_cache_requests_total",
        "Whole-relation cache lookups by outcome",
        ("outcome",),
    )

#: Most k-best streams kept; the least recently paged is dropped first.
KBEST_STREAMS = 1024

#: Exceptions :meth:`QueryService.query_batch` converts into per-item
#: results instead of failing the whole batch (mirrors the server's
#: error envelope).
BATCH_ITEM_ERRORS = (ReproError, ValueError, KeyError, TypeError)


class _KBestStream:
    """One cached k-best enumeration: the materialized best-first prefix
    plus the live lazy iterator that extends it on demand.

    Pagination re-reads the prefix and only advances the iterator for
    genuinely new ranks, so a cursor walk over a cached stream never
    re-enumerates — and the full path set is never materialized."""

    def __init__(self, iterator) -> None:
        self._iterator = iterator
        self._prefix: list = []
        self._exhausted = False

    def page(self, cursor: int, k: int) -> tuple[list, int, bool]:
        """Paths ``[cursor, cursor + k)`` in rank order, the follow-up
        cursor, and whether the stream is exhausted at that cursor."""
        needed = cursor + k
        while len(self._prefix) < needed and not self._exhausted:
            try:
                self._prefix.append(next(self._iterator))
            except StopIteration:
                self._exhausted = True
        page = list(self._prefix[cursor:needed])
        next_cursor = cursor + len(page)
        exhausted = self._exhausted and next_cursor >= len(self._prefix)
        return page, next_cursor, exhausted


#: A service operation as steps: a generator that yields callables which
#: only *read* the index, is sent back their results, and returns the
#: answer.
Steps = Generator[Callable[[], object], object, object]


def run_inline(steps: Steps):
    """Drive *steps* on this thread: call each yielded callable and send
    its result back; return the generator's answer.  The synchronous
    API (:meth:`QueryService.query`, :meth:`~QueryService.save_snapshot`,
    ...) is this over the matching ``*_steps`` method."""
    result = None
    while True:
        try:
            work = steps.send(result)
        except StopIteration as stop:
            return stop.value
        result = work()


@dataclasses.dataclass(frozen=True)
class TickReport:
    """Outcome of one coalesced update tick; ``invalidated_entries``
    counts the cached whole relations it dropped."""

    inserts_requested: int
    deletes_requested: int
    inserts_applied: int
    deletes_applied: int
    coalesced_away: int
    facts_added: int
    facts_removed: int
    dred_passes: int
    frontier_runs: int
    changed_nonterminals: tuple[str, ...] = ()
    invalidated_entries: int = 0
    seconds: float = 0.0

    def as_dict(self) -> dict:
        payload = dataclasses.asdict(self)
        payload["changed_nonterminals"] = list(self.changed_nonterminals)
        payload["seconds"] = round(self.seconds, 6)
        return payload


class QueryService:
    """A CFPQ session over one (graph, grammar), owned by one thread.

    Point reads (membership, length, single-path) are answered from
    views of the solver's live state; whole relations are cached per
    start non-terminal until a tick changes that non-terminal's matrix.
    No method takes a lock: other threads go through a server
    (:mod:`repro.service.server`), which calls it from one thread.

    Parameters
    ----------
    graph, grammar:
        The data and the query language; the grammar is normalized once.
    backend, strategy, strategy_options:
        Closure configuration, as on :class:`~repro.core.engine.CFPQEngine`.
    single_path:
        Maintain length annotations incrementally so ``single-path`` and
        ``length`` queries are served; costs the annotated closure at
        startup (or a snapshot's lengths) and per tick.
    warm_state:
        A closed solver state, ``{"facts": {A: relation}}``: a closed
        matrix or pairs, or for single-path a closed length matrix or
        ``(i, j, length)`` cells, adopted by rows as facts and lengths
        at once.  :meth:`from_engine` passes the engine's matrices,
        :meth:`from_snapshot` the snapshot's as a stream of ``(A,
        relation)`` items; either skips the initial closure entirely.
    semiring:
        The ``top_k`` rank order, one of
        :data:`~repro.core.semiring.RANKING_SEMIRINGS`: shortest first
        (``length``) or most probable first (``viterbi``).
    """

    def __init__(self, graph: LabeledGraph, grammar, backend: str | None = None,
                 strategy: str | None = None,
                 single_path: bool = False,
                 warm_state: dict | None = None,
                 semiring: str = "length",
                 **strategy_options):
        self.backend, self.strategy, self.strategy_options = \
            closure_settings(backend, strategy, **strategy_options)
        # Import the backend now, not on the first tick: a server loads
        # what its requests reach before it listens.
        get_backend(self.backend)
        self.single_path = single_path
        if semiring not in RANKING_SEMIRINGS:
            raise SemanticsError(
                f"unknown service semiring {semiring!r}; expected one "
                f"of {RANKING_SEMIRINGS}")
        #: The ranking semiring of the k-best streams (``top_k``).
        self.semiring = get_semiring(semiring)
        with get_tracer().span("service.startup",
                               warm=warm_state is not None), \
                stopwatch() as startup_timer:
            if single_path:
                self.solver: IncrementalCFPQ = IncrementalSinglePathCFPQ(
                    graph, grammar, strategy=self.strategy,
                    warm_state=warm_state, **self.strategy_options,
                )
            else:
                self.solver = IncrementalCFPQ(
                    graph, grammar, backend=self.backend,
                    strategy=self.strategy, warm_state=warm_state,
                    **self.strategy_options,
                )
        self._startup_seconds = startup_timer.elapsed
        self._warm_started = warm_state is not None

        self._relations: dict[Nonterminal, frozenset] = {}
        # Path answers are views of the solver's live state, made once:
        # reads and ticks come from one thread, so a view is always
        # read at a fixpoint.  tick() only drops the forest's memo
        # tables.
        self._forest = self.solver.all_path_index()
        self._single_path_view = (self.solver.single_path_index()
                                  if single_path else None)
        self._kbest_cache: OrderedDict[tuple, _KBestStream] = OrderedDict()
        self._snapshot_meta: dict = {}

        # Rule graph for dependency closures: head -> body non-terminals.
        self._rule_bodies: dict[Nonterminal, set[Nonterminal]] = {}
        for rule in self.solver.grammar.binary_rules:
            self._rule_bodies.setdefault(rule.head, set()).update(rule.body)
        self._deps_cache: dict[Nonterminal, frozenset[Nonterminal]] = {}

        # The additive stats, by key.
        self._counts: Counter = Counter(tick_total_seconds=0.0)
        self._tick_seconds_last = 0.0
        self._snapshot_bytes = 0

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_engine(cls, engine,
                    single_path: bool = False) -> "QueryService":
        """Wrap an already-solved engine: its cached closure seeds the
        incremental solver, so no work is repeated."""
        warm_state = {"facts": engine.single_path_index().matrices
                      if single_path else engine.solve().matrices}
        return cls(engine.graph, engine.grammar, backend=engine.backend,
                   strategy=engine.strategy,
                   single_path=single_path, warm_state=warm_state,
                   **engine.strategy_options)

    @classmethod
    def from_snapshot(cls, path: str, backend: str | None = None,
                      strategy: str | None = None,
                      single_path: bool | None = None,
                      **strategy_options) -> "QueryService":
        """Warm-start a service from a snapshot file.

        Service (:meth:`save_snapshot`) and engine snapshots share one
        layout: a relational solver seeds its facts from ``relational``,
        a single-path one its facts and lengths at once from the
        ``length`` cells (from the ``incremental`` section of a service
        file older than that layout), and either runs **zero** closure
        rounds.  *single_path* defaults to whatever the snapshot can
        support losslessly, and *backend* and *strategy* to the
        snapshot's.
        """
        payload = snapshot_store.read_snapshot(path)
        graph, grammar = snapshot_store.decode_problem(payload)

        lengths: dict | None = None
        if "length" in payload:
            lengths = {name: entry["cells"]
                       for name, entry in payload["length"].items()}
        elif "lengths" in payload.get("incremental", ()):
            lengths = {}
            for name, *cell in payload["incremental"]["lengths"]:
                lengths.setdefault(name, []).append(cell)
        if single_path is None:
            single_path = lengths is not None and "relational" in payload
        warm_state: dict | None = None
        if single_path and lengths is not None:
            warm_state = {"facts": ((Nonterminal(name), cells)
                                    for name, cells in lengths.items())}
        elif not single_path and "relational" in payload:
            # Stream the decode: the solver adopts each matrix by rows as
            # it is decoded and drops it before the next decodes — the
            # matrices never all coexist.
            warm_state = {"facts": snapshot_store.iter_decoded_matrices(
                payload["relational"]["matrices"])}
        service = cls(graph, grammar,
                      backend=backend or payload.get("backend"),
                      strategy=strategy or payload.get("strategy"),
                      single_path=single_path,
                      warm_state=warm_state, **strategy_options)
        service._snapshot_bytes = os.path.getsize(path)
        service._snapshot_meta = {"wal_seq": payload.get("wal_seq", 0)}
        return service

    @property
    def snapshot_meta(self) -> dict:
        """Serving-layer metadata carried by the snapshot this service
        warm-started from — notably ``wal_seq``, the write-ahead-log
        sequence the snapshot state includes (0 when absent), which is
        where a follower resumes replay."""
        return dict(self._snapshot_meta)

    def save_snapshot(self, path: str, extra: "dict | None" = None) -> int:
        """Persist the current fixpoint in the engine's layout — the
        ``relational`` matrices, plus ``length`` when :attr:`single_path`
        is set — so both :meth:`from_snapshot` and
        :meth:`CFPQEngine.from_snapshot <repro.core.engine.CFPQEngine.from_snapshot>`
        warm-start from it with zero closure rounds.  Returns the
        snapshot size in bytes.

        The encoding is canonical (sorted): two processes holding the
        same logical state write byte-identical files, which is how the
        replicated tier proves a follower converged.  *extra* merges
        plain-container keys into the payload (the leader stamps
        ``wal_seq``)."""
        return run_inline(self.save_snapshot_steps(path, extra))

    def save_snapshot_steps(self, path: str,
                            extra: "dict | None" = None) -> Steps:
        """:meth:`save_snapshot` as steps: the one yielded callable
        encodes and writes the file."""
        size = yield functools.partial(self._write_snapshot, path, extra)
        self._snapshot_bytes = size
        return size

    def _write_snapshot(self, path: str, extra: "dict | None") -> int:
        solver = self.solver
        n = solver.graph.node_count
        payload = snapshot_store.encode_problem(
            solver.graph, solver.grammar, self.backend, self.strategy)
        payload["relational"] = {
            "matrices": snapshot_store.encode_relations(
                solver.row_maps, self.backend, n),
        }
        if self.single_path:
            payload["length"] = snapshot_store.encode_annotated_matrices(
                solver.length_cells(), n, LENGTH_SEMIRING)
        if extra:
            payload.update(extra)
        return snapshot_store.write_snapshot(path, payload)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def graph(self) -> LabeledGraph:
        return self.solver.graph

    def query(self, start, source: Hashable = None, target: Hashable = None,
              semantics: str = "relational"):
        """Answer one query.

        * ``relational`` with no endpoints: the full relation as node
          pairs, cached until a tick changes the start matrix; with both
          endpoints: a membership bool.
        * ``single-path`` (both endpoints): one witness path as
          ``(source, label, target)`` node triples; raises
          :class:`~repro.errors.PathNotFoundError` when absent.
        * ``length`` (both endpoints): the minimal witness length, or
          None.
        """
        return run_inline(self.query_steps(read_query(
            {"start": start, "source": source, "target": target,
             "semantics": semantics})))

    def query_batch(self, queries: Iterable) -> list:
        """Answer many queries in one call.

        Each item is a server batch item (a ``(start, source, target,
        semantics)`` tuple, trailing elements optional, or a dict with
        those keys; :func:`~repro.graph.request.read_query`).  The
        answers come back in input order; an item that fails raises
        nothing — its slot holds the exception instance, so one bad
        query never poisons the batch.

        Every item is answered exactly as :meth:`query` answers it — a
        membership probe reads one cell of the closed fact maps — so the
        whole batch sees one fixpoint.
        """
        return run_inline(self.query_batch_steps(queries))

    def query_batch_steps(self, queries: Iterable) -> Steps:
        """:meth:`query_batch` as steps: one build per whole relation
        missing from the cache."""
        queries = list(queries)
        get_registry().histogram(
            "repro_batch_occupancy", "Queries answered per batch call",
            buckets=DEFAULT_SIZE_BUCKETS,
        ).observe(len(queries))
        results: list = []
        for query in queries:
            try:
                query = read_query(query, self.graph)
                results.append((yield from self.query_steps(query)))
            except BATCH_ITEM_ERRORS as exc:
                results.append(exc)
        self._counts["batch_queries"] += len(results)
        return results

    def query_steps(self, query: Query) -> Steps:
        """The answer to one read :class:`~repro.graph.request.Query`
        (an ``all-path`` one answers a :meth:`top_k_page`) as steps:
        only a whole relation missing from the cache yields, its build."""
        self._counts["queries"] += 1
        solver = self.solver
        start_nt = solver.grammar.resolve_nonterminal(query.start)
        graph = solver.graph
        semantics = query.semantics
        if semantics == "relational":
            # The whole relation: cached, or copied out of the fact
            # maps by the one yielded step, and cached.
            value = self._relations.get(start_nt)
            hit = value is not None
            self._counts["cache_hits" if hit else "cache_misses"] += 1
            _cache_requests_counter().inc(outcome="hit" if hit else "miss")
            if not hit:
                value = yield functools.partial(
                    self.solver.relations().node_pairs, start_nt)
                self._relations[start_nt] = value
            return value
        source, target = query.ends
        present = graph.has_node(source) and graph.has_node(target)
        if semantics == "all-path":
            self._counts["top_k_queries"] += 1
            if not present:
                return [], query.cursor, True
            key = (str(start_nt), source, target, query.max_length)
            stream = self._kbest_cache.get(key)
            if stream is not None:
                self._counts["top_k_stream_hits"] += 1
                self._kbest_cache.move_to_end(key)
            else:
                stream = _KBestStream(
                    tuple((graph.node_at(i), label, graph.node_at(j))
                          for i, label, j in path)
                    for path in self._forest.iter_k_best(
                        start_nt, source, target,
                        max_length=query.max_length,
                        rank=self.semiring))
                self._kbest_cache[key] = stream
                while len(self._kbest_cache) > KBEST_STREAMS:
                    self._kbest_cache.popitem(last=False)
            return stream.page(query.cursor, query.k)
        if semantics == "membership":
            # One cell of the live fact maps — nothing is copied.
            return present and self._forest.node_exists(
                start_nt, graph.node_id(source), graph.node_id(target))
        if not self.single_path:
            raise SemanticsError(
                f"{semantics!r} queries need a service constructed "
                "with single_path=True (length annotations are not "
                "being maintained)"
            )
        if semantics == "length":
            return solver.length_of(start_nt, source, target) \
                if present else None
        path = extract_path(self._single_path_view, start_nt, source, target)
        return tuple((graph.node_at(i), label, graph.node_at(j))
                     for i, label, j in path)

    # ------------------------------------------------------------------
    # k-best paths
    # ------------------------------------------------------------------
    def top_k(self, start, source: Hashable, target: Hashable, k: int,
              max_length: int | None = None) -> list:
        """The *k* best paths from *source* to *target* under the
        service semiring — shortest first (``length``) or most probable
        first (``viterbi``).  A prefix of ``top_k(..., k + 1)``."""
        paths, _cursor, _exhausted = self.top_k_page(
            start, source, target, k, cursor=0, max_length=max_length)
        return paths

    def top_k_page(self, start, source: Hashable, target: Hashable, k: int,
                   cursor: int = 0,
                   max_length: int | None = None) -> tuple[list, int, bool]:
        """One page of the k-best stream: paths ``[cursor, cursor + k)``
        in rank order, the next cursor, and an exhaustion flag.

        The underlying enumeration is lazy and cached per
        ``(start, source, target, max_length)``: consecutive pages (and
        repeated queries) extend one best-first iterator instead of
        re-enumerating.  A tick drops the streams whose start can reach
        a changed non-terminal through the grammar rules."""
        return run_inline(self.query_steps(read_query(
            {"start": start, "source": source, "target": target, "k": k,
             "cursor": cursor, "max_length": max_length}, surface="top_k")))

    # ------------------------------------------------------------------
    # Update ticks
    # ------------------------------------------------------------------
    def update(self, inserts: Iterable[Edge] = (),
               deletes: Iterable[Edge] = ()) -> TickReport:
        """Convenience tick: all *inserts* then all *deletes*."""
        ops = [("insert", edge) for edge in inserts]
        ops += [("delete", edge) for edge in deletes]
        return self.tick(ops)

    def tick(self, ops: Iterable[tuple[str, Edge]]) -> TickReport:
        """Apply one coalesced update tick.

        *ops* is an interleaved stream of ``("insert"|"delete",
        (source, label, target))``.  Per edge only the **last**
        operation matters (intermediate states inside a tick are never
        observable), so the stream is deduplicated and applied as one
        DRed ``remove_edges`` pass followed by one ``add_edges``
        worklist run (``frontier_runs`` counts it).  Queries afterwards
        see exactly the new fixpoint.
        """
        with get_tracer().span("service.tick") as tick_span, \
                stopwatch() as tick_timer:
            last_op: dict[tuple, str] = {}
            inserts_requested = deletes_requested = 0
            for op, edge in ops:
                if op not in ("insert", "delete"):
                    raise ValueError(
                        f"unknown update op {op!r}; expected 'insert' or "
                        "'delete'"
                    )
                if op == "insert":
                    inserts_requested += 1
                else:
                    deletes_requested += 1
                last_op[(edge[0], edge[1], edge[2])] = op
            deletes = [edge for edge, op in last_op.items()
                       if op == "delete"]
            inserts = [edge for edge, op in last_op.items()
                       if op == "insert"]
            coalesced_away = (inserts_requested + deletes_requested
                              - len(inserts) - len(deletes))

            solver = self.solver
            # Deleting an absent edge is a no-op; filtering here keeps a
            # retract-in-tick pattern from triggering a pointless DRed
            # pass.
            deletes = [edge for edge in deletes
                       if solver.graph.has_edge(*edge)]
            changed: set[Nonterminal] = set()
            facts_added = facts_removed = 0
            dred_passes = frontier_runs = 0
            if deletes:
                facts_removed = solver.remove_edges(deletes)
                dred_passes = 1
                changed.update(solver.last_changes)
            if inserts:
                facts_added = solver.add_edges(inserts)
                frontier_runs = 1
                changed.update(solver.last_changes)
            self._forest.drop_memos()
            invalidated = sum(self._relations.pop(nonterminal, None)
                              is not None for nonterminal in changed)
            self._counts["cache_invalidations"] += invalidated
            # An inserted edge can add a *new alternative* at an
            # already-derived forest node — no fact or length delta, but
            # the node's path set (and hence k-best answers through it)
            # grows.  Widen the stream invalidation with the heads of
            # every inserted label.
            path_changed = set(changed)
            for label in {label for _source, label, _target in inserts}:
                path_changed.update(solver.grammar.heads_for_label(label))
            self._drop_streams(path_changed, everything=bool(deletes))
            seconds = tick_timer.elapsed
            tick_span.set("ops", inserts_requested + deletes_requested)
            tick_span.set("coalesced_away", coalesced_away)
            tick_span.set("facts_added", facts_added)
            tick_span.set("facts_removed", facts_removed)

            self._counts.update(
                ticks=1,
                tick_ops_requested=inserts_requested + deletes_requested,
                tick_ops_coalesced_away=coalesced_away,
                dred_passes=dred_passes, frontier_runs=frontier_runs,
                tick_total_seconds=seconds)
            self._tick_seconds_last = seconds
            registry = get_registry()
            registry.counter("repro_ticks_total",
                             "Update ticks applied").inc()
            registry.counter(
                "repro_tick_ops_coalesced_total",
                "Update ops coalesced away before applying",
            ).inc(coalesced_away)
            registry.histogram("repro_tick_seconds",
                               "Update tick latency").observe(seconds)
            return TickReport(
                inserts_requested=inserts_requested,
                deletes_requested=deletes_requested,
                inserts_applied=len(inserts),
                deletes_applied=len(deletes),
                coalesced_away=coalesced_away,
                facts_added=facts_added,
                facts_removed=facts_removed,
                dred_passes=dred_passes,
                frontier_runs=frontier_runs,
                changed_nonterminals=tuple(sorted(
                    nonterminal.name for nonterminal in changed
                )),
                invalidated_entries=invalidated,
                seconds=seconds,
            )

    # ------------------------------------------------------------------
    # k-best stream invalidation
    # ------------------------------------------------------------------
    def _dependencies(self, start: Nonterminal) -> frozenset[Nonterminal]:
        """Non-terminals whose matrices a path enumeration starting at
        *start* can read: the rule-graph reachability closure (path
        extraction walks rule bodies recursively)."""
        cached = self._deps_cache.get(start)
        if cached is None:
            reachable = {start}
            frontier = [start]
            while frontier:
                for body_symbol in self._rule_bodies.get(frontier.pop(), ()):
                    if body_symbol not in reachable:
                        reachable.add(body_symbol)
                        frontier.append(body_symbol)
            cached = frozenset(reachable)
            self._deps_cache[start] = cached
        return cached

    def _drop_streams(self, path_changed: set[Nonterminal],
                      everything: bool) -> None:
        """Drop the k-best streams whose reachable rule closure meets
        *path_changed* — or, with *everything* (an edge was really
        deleted), all of them: a stream's paths reference edges, and
        DRed can re-derive every fact of a deleted edge with identical
        annotations, which the cell deltas cannot see."""
        stale = [key for key in self._kbest_cache
                 if everything or not path_changed.isdisjoint(
                     self._dependencies(Nonterminal(key[0])))]
        for key in stale:
            del self._kbest_cache[key]

    # ------------------------------------------------------------------
    # Instrumentation
    # ------------------------------------------------------------------
    @property
    def stats(self) -> dict:
        """Service instrumentation: cache behavior, tick latency,
        startup mode, snapshot size and the wrapped solver's counters."""
        counts = self._counts
        hits = counts["cache_hits"]
        answered = hits + counts["cache_misses"]
        return {
            "backend": self.backend,
            "strategy": self.strategy,
            "single_path": self.single_path,
            "semiring": self.semiring.name,
            "top_k": {
                "queries": counts["top_k_queries"],
                "stream_hits": counts["top_k_stream_hits"],
                "cached_streams": len(self._kbest_cache),
            },
            "graph": {
                "nodes": self.solver.graph.node_count,
                "edges": self.solver.graph.edge_count,
            },
            "queries": counts["queries"],
            "cache_hits": hits,
            "cache_misses": counts["cache_misses"],
            "cache_hit_rate": round(hits / answered, 4) if answered else 0.0,
            "cache_entries": len(self._relations),
            "cache_invalidations": counts["cache_invalidations"],
            "ticks": counts["ticks"],
            "tick_ops_requested": counts["tick_ops_requested"],
            "tick_ops_coalesced_away": counts["tick_ops_coalesced_away"],
            "dred_passes": counts["dred_passes"],
            "frontier_runs": counts["frontier_runs"],
            "tick_last_seconds": round(self._tick_seconds_last, 6),
            "tick_total_seconds": round(counts["tick_total_seconds"], 6),
            "startup": {
                "warm_start": self._warm_started,
                "closure_iterations":
                    self.solver.initial_closure_iterations,
                "seconds": round(self._startup_seconds, 6),
            },
            "snapshot_bytes": self._snapshot_bytes,
            "batch": {"queries": counts["batch_queries"]},
            "solver": dict(self.solver.stats),
        }
