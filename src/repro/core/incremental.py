"""Incremental CFPQ: maintaining relations under edge insertions *and*
deletions.

Graph databases mutate; recomputing the whole closure per update wastes
the work already done.  Two complementary engines keep the relations
``R_A`` at the fixpoint:

**Insertions** exploit that Algorithm 1's fixpoint is a *monotone*
least fixpoint (Theorem 3's argument: facts are only ever added), so
the closure supports semi-naive delta propagation at two granularities:

* :meth:`IncrementalCFPQ.add_edge` — tuple-granular: seed a worklist
  with the new base facts ``{(A, u, v) | (A → x) ∈ P}`` and propagate
  only their consequences through the pair rules (the Hellings step
  started from the delta);
* :meth:`IncrementalCFPQ.add_edges` — **matrix-granular batch path**:
  convert the whole insertion batch into per-non-terminal delta
  matrices and hand them to the closure engine as an
  ``initial_frontier`` (:func:`repro.core.closure.run_closure`), so a
  bulk load runs as a handful of frontier × matrix products instead of
  one worklist pop per derived fact.  The solver's ``strategy`` /
  ``tile_size`` / ``memory_budget`` options apply: with
  ``strategy="blocked"`` the inserted edges become a *tile-granular*
  frontier on the blocked tile engine
  (:func:`repro.core.closure.closure_blocked`).

**Deletions** break monotonicity, so :meth:`IncrementalCFPQ.remove_edges`
runs plain **delete-and-rederive** (DRed) — with no support store.
Removing edges (1) **over-deletes** the downward closure of the touched
facts — count-blind, which is what makes the phase sound on cyclic
derivations where support counts would keep self-supporting facts
alive — and drops those facts from the fact maps, then (2)
**re-derives**: each over-deleted fact is *probed* for its one-step
derivations from the survivors (a terminal edge, an ``("empty",)``
nullability mark or a binary ``(rule, midpoint)`` split whose operands
are still facts), and the derivations found re-enter the same
tuple-granular worklist insertions use, which restores everything still
derivable.  A deletion therefore costs what it over-deletes, never the
size of the relations, and insertions carry no bookkeeping for it.

A batch of fewer than :data:`SMALL_BATCH_EDGES` new edges takes the
tuple-granular worklist as well: the matrix path pays O(|facts|) to
build its operand matrices before the first product, which a small
batch never earns back.

**Layout.**  Each relation is held once, as the row map ``rows[A][i] =
{j}`` that the joins, :meth:`~IncrementalCFPQ.relations`, snapshots,
DRed and the matrix route all read, mirrored by ``cols[A][j] = {i}``;
symbols are interned, so ``rows[A]`` costs a pointer hash.  A closed
matrix is adopted by rows: row ``i`` is one slice of its
``row_major()`` export, column ``j`` one of its transpose's.  One
worklist serves both solvers and both directions: a popped fact yields
one consequence *group* per pair rule (a whole row or column of the
other operand), and the presence-only step drops what is known by one
set difference against the head's row.

:class:`IncrementalSinglePathCFPQ` layers the Section-5 length
annotations on the same engine, so its lengths equal a from-scratch
:class:`~repro.core.single_path.SinglePathIndex` after every update.

**Path views.**  The same derivation reader that serves DRed is all a
path answer needs, so :meth:`IncrementalCFPQ.all_path_index` and
:meth:`IncrementalSinglePathCFPQ.single_path_index` hand out *views* of
the live state, not index copies.

This realizes the dynamic-graph direction implied by the paper's
"graph databases" motivation, and it doubles as yet another
differential-testing angle: after any interleaved insert/delete
sequence the incremental state must equal a from-scratch solve
(property-tested in ``tests/core/test_incremental.py``).
"""

from __future__ import annotations

from collections import deque
from itertools import chain, repeat
from typing import Hashable, Iterable, Iterator, Mapping

from ..grammar.cfg import CFG
from ..grammar.cnf import ensure_cnf
from ..grammar.symbols import Nonterminal, as_nonterminal
from ..graph.labeled_graph import Edge, LabeledGraph
from ..matrices.base import BooleanMatrix, default_backend, get_backend
from ..obs.trace import get_tracer
from .closure import run_closure
from .path_index import (AllPathIndex, Fact, FactMaps, Support, fact_maps,
                         one_step_derivations)
from .relations import ContextFreeRelations, row_map_pairs
from .single_path import SinglePathView, lengths_by_fact

#: Per-non-terminal pair sets: a change log.
PairSets = dict[Nonterminal, set[tuple[int, int]]]

#: Facts sharing a head and a support: ``(head, i, None, targets,
#: support)`` is every ``(head, i, k)``, ``k`` in *targets*; ``(head,
#: None, j, sources, support)`` every ``(head, k, j)``.
Group = tuple

_NO_NODES: frozenset[int] = frozenset()

#: ``add_edges`` batches with fewer new edges than this run the
#: tuple-granular worklist; at or above it, the matrix frontier.  The
#: measured crossover of ``benchmarks/bench_incremental.py`` (see
#: README, *Incremental updates*).
SMALL_BATCH_EDGES = 200


def _facts_in(rows: FactMaps) -> Iterator[Fact]:
    """Every fact ``(A, i, j)`` held by row maps."""
    return chain.from_iterable(
        zip(repeat(nonterminal), repeat(i), targets)
        for nonterminal, row_map in rows.items()
        for i, targets in row_map.items())


def _merge_rows(index: dict, matrix) -> list[tuple[int, set[int]]]:
    """Union the rows of a closed *matrix* into the row map *index*,
    each row one slice of its ``row_major()`` export; returns ``(i,
    {j})`` for the entries that were new."""
    indptr, indices = matrix.row_major()
    starts, columns = indptr.tolist(), indices.tolist()
    grown = []
    for node, (start, end) in enumerate(zip(starts, starts[1:])):
        if start != end:
            others = set(columns[start:end])
            known = index.setdefault(node, others)
            if known is not others:
                others -= known
                known |= others
            if others:
                grown.append((node, others))
    return grown


class IncrementalCFPQ:
    """A CFPQ solver whose graph can mutate after the initial solve.

    >>> solver = IncrementalCFPQ(graph, grammar)
    >>> solver.relations().pairs("S")
    >>> solver.add_edge("u", "a", "v")       # tuple-granular propagation
    >>> solver.add_edges(batch)              # matrix-granular when large
    >>> solver.remove_edges(batch)           # DRed delete + re-derive
    >>> solver.relations().pairs("S")        # always at the fixpoint

    All mutators return the number of facts that entered (``add_*``) or
    left (``remove_*``) the relations — the seeded base facts count,
    matching :class:`IncrementalSinglePathCFPQ`.

    After every mutator call :attr:`last_changes` holds the exact
    per-non-terminal delta of that call (the cells whose matrix content
    changed), which is what the query-service layer
    (:mod:`repro.service.query_service`) uses to drop cached relations
    and k-best streams.

    *warm_state* seeds the solver from an already-closed fact set
    instead of running the initial closure: construction is O(|facts|)
    and :attr:`initial_closure_iterations` is 0.  Its ``"facts"`` maps
    each non-terminal to a closed matrix or to its pairs (as
    :meth:`export_state` does), or is an iterable of those items,
    consumed once.
    """

    def __init__(self, graph: LabeledGraph, grammar: CFG,
                 backend: str | None = None, strategy: str = "delta",
                 warm_state: "dict | None" = None,
                 **strategy_options):
        self.graph = graph
        self.grammar = ensure_cnf(grammar)
        self.backend = backend or default_backend()
        self.strategy = strategy
        self.strategy_options = strategy_options

        nonterminals = self.grammar.nonterminals
        self._rows = fact_maps(nonterminals)
        self._cols = fact_maps(nonterminals)
        self._live = (self._rows, self._cols)
        self._fact_count = 0  # the maps' size, kept by every writer
        # Pair rules indexed by operand, each bound once to the map its
        # join reads: a fact (B, i, r) as the LEFT part of A -> B C
        # meets the row r of C, a fact (C, r, j) as the RIGHT part the
        # column r of B.
        self._as_left: dict[Nonterminal, list] = {nt: [] for nt in nonterminals}
        self._as_right: dict[Nonterminal, list] = {nt: [] for nt in nonterminals}
        self._pair_rules: list[tuple[Nonterminal, Nonterminal, Nonterminal]] = []
        for rule in self.grammar.binary_rules:
            head = rule.head
            left, right = rule.body  # type: ignore[misc]
            self._as_left[left].append((head, right, self._rows[right]))   # type: ignore[index]
            self._as_right[right].append((head, left, self._cols[left]))   # type: ignore[index]
            self._pair_rules.append((head, left, right))  # type: ignore[arg-type]
        #: Every one-step derivation of a fact from the current graph
        #: and fact maps — the DRed re-derivation probe, and what the
        #: path views of this solver read.
        self._derivations = one_step_derivations(
            graph, self.grammar, self._rows, self._cols)
        self._nullable = self.grammar.nullable_diagonal

        self._edge_insertions = 0
        self._edge_removals = 0
        self._batch_updates = 0
        self._propagated_facts = 0
        self._facts_removed = 0

        #: Active per-call change recorder (None outside a mutator).
        self._change_recorder: PairSets | None = None
        self._last_changes: dict[Nonterminal, frozenset[tuple[int, int]]] = {}
        self._initial_iterations = 0

        if warm_state is not None:
            self._seed_from_state(warm_state)
        else:
            self._seed_from_engine(self.backend, strategy)
        # Keep the stats contract of the worklist-seeded version: every
        # initially derived fact counts as one propagation.
        self._propagated_facts = self._fact_count

    def _seed_from_engine(self, backend: str, strategy: str) -> None:
        """Initial solve: run the matrix closure engine to the fixpoint
        and seed the fact maps from the closed matrices.
        Annotated subclasses override this to seed from the semiring
        engine instead."""
        from .matrix_cfpq import solve_matrix

        result = solve_matrix(self.graph, self.grammar, backend=backend,
                              normalize=False, strategy=strategy,
                              **self.strategy_options)
        self._initial_iterations = result.stats.iterations
        self._seed_from_state({"facts": result.matrices})

    def _seed_from_state(self, state: dict) -> None:
        """Adopt an already-closed fact set (a *warm_state*) without
        running any closure."""
        facts = state.get("facts", {})
        pairs = get_backend("setmatrix").from_pairs
        for nonterminal, relation in (facts.items() if isinstance(
                facts, Mapping) else facts):
            if not isinstance(relation, BooleanMatrix):
                relation = pairs(self.graph.node_count, relation)
            self._adopt(nonterminal, relation)

    def _adopt(self, nonterminal: Nonterminal,
               matrix) -> list[tuple[int, set[int]]]:
        """Record the facts of one closed matrix (seeding, an absorbed
        batch: nothing to log or chase) by rows, the columns by rows of
        its transpose; returns the new facts as ``(i, {j})`` rows."""
        fresh_rows = _merge_rows(self._rows[nonterminal], matrix)
        if fresh_rows:
            _merge_rows(self._cols[nonterminal], matrix.transpose())
            self._fact_count += sum(len(fresh) for _i, fresh in fresh_rows)
        return fresh_rows

    def _add_fact(self, nonterminal: Nonterminal, i: int, j: int) -> None:
        """Record one new fact ``(A, i, j)`` in the row and column maps."""
        self._rows[nonterminal][i].add(j)
        self._cols[nonterminal][j].add(i)
        self._fact_count += 1

    def export_state(self) -> dict:
        """The solver's closed state as plain containers — the inverse
        of the ``warm_state`` constructor argument."""
        return {
            "facts": {nonterminal: set(row_map_pairs(row_map))
                      for nonterminal, row_map in self._rows.items()
                      if row_map},
        }

    # ------------------------------------------------------------------
    # Exact per-call deltas (cache-invalidation feed)
    # ------------------------------------------------------------------
    @property
    def last_changes(self) -> dict[Nonterminal, frozenset[tuple[int, int]]]:
        """The exact per-non-terminal cell delta of the most recent
        mutator call: for insertions the genuinely new facts (plus, on
        the single-path solver, cells whose length annotation was
        refined), for deletions the facts permanently removed plus cells
        re-derived with a different annotation.  Empty mapping when the
        last call changed nothing."""
        return self._last_changes

    @property
    def initial_closure_iterations(self) -> int:
        """Closure rounds run by the initial solve (0 after a warm
        start from ``warm_state``)."""
        return self._initial_iterations

    def _publish(self, changes: PairSets) -> None:
        self._last_changes = {nonterminal: frozenset(pairs)
                              for nonterminal, pairs in changes.items()}

    def _log_changes(self, nonterminal: Nonterminal,
                     pairs: Iterable[tuple[int, int]]) -> None:
        if self._change_recorder is not None:
            self._change_recorder.setdefault(nonterminal, set()).update(pairs)

    # ------------------------------------------------------------------
    # Mutation: insertion
    # ------------------------------------------------------------------
    def add_edge(self, source: Hashable, label: str, target: Hashable) -> int:
        """Insert one edge at tuple granularity; returns the number of
        new facts (see :meth:`add_edges`)."""
        return self.add_edges([(source, label, target)])

    def add_edges(self, edges: Iterable[Edge]) -> int:
        """Insert a batch of edges; returns the number of new facts:
        seeded base facts, nullable-diagonal facts of freshly created
        nodes and everything derived from them.

        The batch's base derivations (base facts of the new edges plus
        nullable diagonals of new nodes) enter the tuple-granular
        worklist when the batch has fewer than
        :data:`SMALL_BATCH_EDGES` new edges.  A larger batch is
        converted into per-non-terminal seed matrices and closed by one
        ``initial_frontier`` run of the configured closure strategy —
        no per-tuple worklist.
        """
        recorder = self._change_recorder = {}
        before = self._fact_count
        try:
            self._add_edges(edges)
            return self._fact_count - before
        finally:
            self._change_recorder = None
            self._publish(recorder)

    def _add_edges(self, edges: Iterable[Edge]) -> None:
        nodes_before = self.graph.node_count
        new_edges: list[tuple[int, str, int]] = []
        for source, label, target in edges:
            self._edge_insertions += 1
            if self.graph.has_edge(source, label, target):
                continue
            self.graph.add_edge(source, label, target)
            new_edges.append((self.graph.node_id(source), label,
                              self.graph.node_id(target)))

        base: list[tuple[Fact, Support]] = [
            ((head, i, i), ("empty",))
            for head in self._nullable
            for i in range(nodes_before, self.graph.node_count)
        ]
        for i, label, j in new_edges:
            support = ("edge", label)
            base += [((head, i, j), support)
                     for head in self.grammar.heads_for_label(label)]
        if len(new_edges) < SMALL_BATCH_EDGES:
            self._insert((head, i, None, {j}, support)
                         for (head, i, j), support in base)
        elif base:
            self._run_batch(base)

    # ------------------------------------------------------------------
    # Mutation: deletion (DRed)
    # ------------------------------------------------------------------
    def remove_edge(self, source: Hashable, label: str,
                    target: Hashable) -> int:
        """Remove one edge; returns the number of facts that left the
        relations (see :meth:`remove_edges`)."""
        return self.remove_edges([(source, label, target)])

    def remove_edges(self, edges: Iterable[Edge]) -> int:
        """Remove a batch of edges with delete-and-rederive (see the
        module docstring): over-delete the downward closure of every fact a
        removed edge derived, then re-derive the over-deleted facts
        still derivable from the survivors
        (:func:`~repro.core.path_index.one_step_derivations`) on the
        tuple-granular worklist.  Returns the number of facts
        permanently removed.
        """
        self._last_changes = {}
        rows, count_before = self._rows, self._fact_count
        seeds: list[Group] = []
        for source, label, target in edges:
            self._edge_removals += 1
            if not self.graph.remove_edge(source, label, target):
                continue
            i = self.graph.node_id(source)
            j = self.graph.node_id(target)
            seeds += [(head, i, None, {j}, None)
                      for head in self.grammar.heads_for_label(label)
                      if j in rows[head].get(i, _NO_NODES)]

        # Phase 1: over-delete the downward closure into scratch maps.
        # The live maps the joins read still reflect the pre-deletion
        # database, which is exactly the over-approximation DRed's
        # deletion phase needs.
        gone_rows, gone_cols = fact_maps(rows), fact_maps(rows)
        scratch = (gone_rows, gone_cols)
        mark = IncrementalCFPQ._improve  # presence-only on both solvers
        tracer = get_tracer()
        with tracer.span("dred.overdelete") as phase_span:
            overdeleted = self._propagate(
                seeds, lambda head, i, j, others, support: mark(
                    self, head, i, j, others, support, scratch))
            phase_span.set("overdeleted", overdeleted)

        if not overdeleted:
            return 0

        # One in-place difference per touched relation, row and column;
        # every over-deleted fact is held (the live maps are closed).
        self._fact_count -= overdeleted
        for live, marked in ((rows, gone_rows), (self._cols, gone_cols)):
            for nonterminal, entries in marked.items():
                index = live[nonterminal]
                for node, others in entries.items():
                    remaining = index[node]
                    remaining -= others
                    if not remaining:
                        del index[node]
        # Annotation values before the delete (single-path: lengths) so
        # re-derived facts whose annotation moved land in last_changes.
        before = self._forget(_facts_in(gone_rows))

        # Phase 2: re-derive from the survivors.  A probe that runs
        # after an earlier one's fact re-entered may already see it as
        # an operand; that derivation is just as valid, and the worklist
        # refines any annotation it carried too high.
        with tracer.span("dred.rederive"):
            self._insert(
                (head, i, None, {j}, support)
                for head, i, j in _facts_in(gone_rows)
                for support in self._derivations((head, i, j)))

        removed = count_before - self._fact_count
        changes: PairSets = {}
        for nonterminal, entries in gone_rows.items():
            index = rows[nonterminal]
            for i, targets in entries.items():
                lost = targets - index.get(i, _NO_NODES)
                if lost:
                    changes.setdefault(nonterminal, set()).update(
                        zip(repeat(i), lost))
        for nonterminal, i, j in self._reannotated(before):
            changes.setdefault(nonterminal, set()).add((i, j))
        self._publish(changes)
        self._facts_removed += removed
        return removed

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def relations(self) -> ContextFreeRelations:
        """The relations ``R_A`` as a **view** of the row maps: rows and
        node pairs are read live; a symbol's id pair set is built on its
        first :meth:`~ContextFreeRelations.pairs` call, then fixed."""
        return ContextFreeRelations(self.graph, self._rows)

    @property
    def row_maps(self) -> FactMaps:
        """The live row maps ``A -> {i: {j}}``, one per non-terminal:
        read them, never write them."""
        return self._rows

    def pairs(self, nonterminal: Nonterminal | str) -> frozenset[tuple[int, int]]:
        """``R_A`` as dense-id pairs, copied now."""
        row_map = self._rows.get(as_nonterminal(nonterminal), {})
        return frozenset(row_map_pairs(row_map))

    def all_path_index(self) -> AllPathIndex:
        """The all-path parse forest as a **view** of the live fact
        maps: built in O(|rules|), never rebuilt.  After a mutator call
        its memo tables are stale — :meth:`AllPathIndex.drop_memos`
        (the query service does it once per tick)."""
        return AllPathIndex(self.graph, self.grammar, self._rows,
                            self._cols)

    @property
    def stats(self) -> dict[str, int]:
        """Instrumentation: updates seen and facts propagated/removed."""
        return {
            "edge_insertions": self._edge_insertions,
            "edge_removals": self._edge_removals,
            "batch_updates": self._batch_updates,
            "propagated_facts": self._propagated_facts,
            "facts_removed": self._facts_removed,
            "total_facts": self._fact_count,
        }

    # ------------------------------------------------------------------
    # Batch engine (large add_edges batches)
    # ------------------------------------------------------------------
    def _run_batch(self, base: list[tuple[Fact, Support]]) -> None:
        """Close the current state with the *base* derivations as the
        initial frontier and absorb what appeared."""
        n, before = self.graph.node_count, self._fact_count
        with get_tracer().span("frontier.run",
                               strategy=self.strategy) as span:
            matrices = self._matrices_from_state(n)
            result = run_closure(
                matrices, self._pair_rules, self._batch_backend(),
                strategy=self.strategy,
                initial_frontier=self._seed_matrices(n, base),
                **self.strategy_options)
            self._batch_updates += 1
            self._absorb(result.matrices)
            new_facts = self._fact_count - before
            span.set("new_facts", new_facts)
        self._propagated_facts += new_facts

    def _batch_backend(self):
        return get_backend(self.backend)

    def _matrices_from_state(self, n: int) -> dict:
        backend = self._batch_backend()
        return {nt: backend.from_pairs(n, row_map_pairs(row_map))
                for nt, row_map in self._rows.items()}

    def _seed_matrices(self, n: int,
                       base: list[tuple[Fact, Support]]) -> dict:
        backend = self._batch_backend()
        pairs: PairSets = {}
        for (nonterminal, i, j), _support in base:
            pairs.setdefault(nonterminal, set()).add((i, j))
        return {nt: backend.from_pairs(n, cells)
                for nt, cells in pairs.items()}

    def _absorb(self, matrices: dict) -> None:
        """Record the closed matrices into the fact maps and log the
        facts that were not present before."""
        for nonterminal, matrix in matrices.items():
            for i, fresh in self._adopt(nonterminal, matrix):
                self._log_changes(nonterminal, zip(repeat(i), fresh))

    def _forget(self, facts: Iterable[Fact]) -> dict:
        """Drop and return the annotations of just-deleted *facts* (none
        on the presence-only base solver — a re-derived boolean cell
        cannot change value)."""
        return {}

    def _reannotated(self, before: dict) -> Iterable[Fact]:
        """The facts of *before* (a :meth:`_forget` result) that are
        back with a different annotation."""
        return ()

    # ------------------------------------------------------------------
    # Tuple-granular engine
    # ------------------------------------------------------------------
    def _improve(self, head: Nonterminal, i: int | None, j: int | None,
                 others: set[int], _support: Support | None,
                 scratch: tuple[FactMaps, FactMaps] | None = None,
                 ) -> Iterable[Fact]:
        """Apply one consequence group; returns the facts that must
        (re-)enter the worklist.  Presence-only here — annotated
        subclasses override the arithmetic: what is already known drops
        out by one set difference against the head's row (or column),
        and the rest is recorded in the solver's state, or only in the
        *scratch* row and column maps when given (over-deletion marks
        there)."""
        rows, cols = scratch or self._live
        if j is None:
            known, across, node = rows[head][i], cols[head], i
        else:
            known, across, node = cols[head][j], rows[head], j
        fresh = others - known
        if not fresh:
            return ()
        known |= fresh
        for k in fresh:
            across[k].add(node)
        if scratch is None:
            self._fact_count += len(fresh)
            self._log_changes(head, zip(repeat(i), fresh) if j is None
                              else zip(fresh, repeat(j)))
        return (zip(repeat(head), repeat(i), fresh) if j is None
                else zip(repeat(head), fresh, repeat(j)))

    def _propagate(self, groups: Iterable[Group], improve) -> int:
        """The tuple-granular worklist: *improve* applies each group
        and returns the facts to enqueue.  Every popped fact is joined
        once, as left and as right operand of the pair rules, against
        the live fact maps: one group per rule, the whole row (or
        column) of the other operand, not copied.  Returns the number
        of facts popped."""
        as_left, as_right = self._as_left, self._as_right
        worklist: deque[Fact] = deque()
        enqueue = worklist.extend
        for group in groups:
            enqueue(improve(*group))
        popped = 0
        while worklist:
            nonterminal, i, j = worklist.popleft()
            popped += 1
            for head, right, right_rows in as_left[nonterminal]:
                targets = right_rows.get(j)
                if targets:
                    enqueue(improve(head, i, None, targets,
                                    ("split", nonterminal, right, j)))
            for head, left, left_cols in as_right[nonterminal]:
                sources = left_cols.get(i)
                if sources:
                    enqueue(improve(head, None, j, sources,
                                    ("split", left, nonterminal, i)))
        return popped

    def _insert(self, groups: Iterable[Group]) -> None:
        """Record the facts of the given derivation groups and
        everything they entail."""
        self._propagated_facts += self._propagate(groups, self._improve)


class IncrementalSinglePathCFPQ(IncrementalCFPQ):
    """Incremental solver that also maintains Section-5 witness lengths.

    The initial solve seeds both the relational facts *and* their
    length annotations from the semiring-generalized closure engine
    (:func:`repro.core.semiring.solve_annotated` over the length
    semiring) — the same engine :func:`~repro.core.single_path.build_single_path_index`
    runs — so the starting annotation is the canonical minimal witness
    length per fact.

    * :meth:`add_edge` propagates at tuple granularity with the min-merge
      rule: a fact whose recorded length *improves* re-enters the
      worklist.
    * :meth:`add_edges` runs a large batch's closure over the
      length-semiring matrix adapter, whose ``union_update`` feeds
      refinements back into the semi-naive frontier.
    * :meth:`remove_edges` (inherited DRed) drops the lengths of the
      over-deleted facts and re-derives them on the same worklist from
      the surviving canonical lengths — survivors outside the downward
      closure cannot change, so their annotations are reused as-is.

    ``length_of`` therefore equals a from-scratch
    :class:`~repro.core.single_path.SinglePathIndex` after every
    insertion and deletion (property-tested).
    """

    def __init__(self, graph: LabeledGraph, grammar: CFG,
                 strategy: str = "delta",
                 warm_state: "dict | None" = None,
                 **strategy_options):
        self._lengths: dict[Fact, int] = {}
        super().__init__(graph, grammar, strategy=strategy,
                         warm_state=warm_state, **strategy_options)

    def _seed_from_engine(self, backend: str, strategy: str) -> None:
        from .semiring import LENGTH_SEMIRING, solve_annotated
        result = solve_annotated(self.graph, self.grammar, LENGTH_SEMIRING,
                                 strategy=strategy, normalize=False,
                                 **self.strategy_options)
        self._initial_iterations = result.iterations
        self._seed_from_state({"facts": result.matrices,
                               "lengths": lengths_by_fact(result.matrices)})

    def _seed_from_state(self, state: dict) -> None:
        super()._seed_from_state(state)
        self._lengths.update(state.get("lengths", {}))

    def export_state(self) -> dict:
        state = super().export_state()
        state["lengths"] = dict(self._lengths)
        return state

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def single_path_index(self) -> SinglePathView:
        """The maintained lengths and fact maps as a **view**, so
        :func:`~repro.core.single_path.extract_path` runs on the live
        incremental state: nothing is copied, and the view stays
        current across updates."""
        return SinglePathView(self.graph, self.grammar, self._lengths,
                              self._derivations)

    def length_of(self, nonterminal: Nonterminal | str, source: Hashable,
                  target: Hashable) -> int | None:
        """The maintained witness length for ``(A, source, target)``, or
        None when the pair is not in ``R_A``."""
        return self._lengths.get(
            (as_nonterminal(nonterminal), self.graph.node_id(source),
             self.graph.node_id(target))
        )

    def length_cells(self) -> dict[Nonterminal, list[tuple[int, int, int]]]:
        """``A -> [(i, j, l_A(i, j)), ...]`` for every non-terminal, in
        no order: a snapshot's ``length`` section before encoding."""
        cells: dict = {nt: [] for nt in self.grammar.nonterminals}
        for (nonterminal, i, j), length in self._lengths.items():
            cells[nonterminal].append((i, j, length))
        return cells

    # ------------------------------------------------------------------
    # Batch hooks
    # ------------------------------------------------------------------
    def _batch_backend(self):
        from .semiring import LENGTH_SEMIRING, AnnotatedBackend

        return AnnotatedBackend(LENGTH_SEMIRING)

    def _matrices_from_state(self, n: int) -> dict:
        backend = self._batch_backend()
        lengths = self._lengths
        return {
            nt: backend.from_cells(
                (n, n), {(i, j): lengths[(nt, i, j)]
                         for i, j in row_map_pairs(row_map)})
            for nt, row_map in self._rows.items()
        }

    def _seed_matrices(self, n: int,
                       base: list[tuple[Fact, Support]]) -> dict:
        backend = self._batch_backend()
        cells: dict[Nonterminal, dict[tuple[int, int], int]] = {}
        for fact, support in base:
            row = cells.setdefault(fact[0], {})
            length = self._derivation_length(fact, support)
            row[fact[1:]] = min(length, row.get(fact[1:], length))
        return {nt: backend.from_cells((n, n), row)
                for nt, row in cells.items()}

    def _absorb(self, matrices: dict) -> None:
        """Record the closed length matrices; only the cells whose
        length is new or refined (a C-level dict-items difference) are
        walked."""
        lengths = self._lengths
        for fact, length in (lengths_by_fact(matrices).items()
                             - lengths.items()):
            if fact not in lengths:
                self._add_fact(*fact)
            # A refined length changes the matrix content even though
            # the relation did not.
            lengths[fact] = length
            self._log_changes(fact[0], (fact[1:],))

    def _derivation_length(self, fact: Fact, support: Support) -> int:
        """Witness length of *fact* through one one-step derivation
        (whose operands, for a split, must carry lengths)."""
        if support[0] == "empty":
            return 0
        if support[0] == "edge":
            return 1
        _tag, left, right, r = support
        _nonterminal, i, j = fact
        return self._lengths[(left, i, r)] + self._lengths[(right, r, j)]

    def _forget(self, facts: Iterable[Fact]) -> dict[Fact, int]:
        forget = self._lengths.pop
        return {fact: forget(fact) for fact in facts}

    def _reannotated(self, before: dict[Fact, int]) -> Iterable[Fact]:
        lengths = self._lengths
        return [fact for fact, length in before.items()
                if lengths.get(fact, length) != length]

    def _improve(self, head: Nonterminal, i: int | None, j: int | None,
                 others: set[int], support: Support) -> list[Fact]:
        """Min-refinement over one group: a fact is recorded when new,
        and re-enters the worklist when new or when its recorded length
        improves."""
        lengths = self._lengths
        entered: list[Fact] = []
        for k in tuple(others):
            fact = (head, i, k) if j is None else (head, k, j)
            length = self._derivation_length(fact, support)
            current = lengths.get(fact)
            if current is None:
                self._add_fact(*fact)
            elif length >= current:
                continue
            lengths[fact] = length
            self._log_changes(head, (fact[1:],))
            entered.append(fact)
        return entered
