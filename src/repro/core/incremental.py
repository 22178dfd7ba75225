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
  ``scheduler`` / ``tile_size`` options apply: with
  ``strategy="blocked"`` the inserted edges become a *tile-granular*
  frontier on the parallel tile engine of :mod:`repro.core.tiles`.

**Deletions** break monotonicity, so :meth:`IncrementalCFPQ.remove_edges`
runs support-counted **delete-and-rederive** (DRed) over the same
machinery: every fact carries its *derivation supports* (the terminal
edges, ``("empty",)`` nullability marks and binary ``(rule, midpoint)``
splits that derive it in one step).  Removing edges (1) **over-deletes**
the downward closure of the touched facts — count-blind, which is what
makes the phase sound on cyclic derivations where support counts alone
would keep self-supporting facts alive — while discarding the
invalidated supports, then (2) **re-derives**: the over-deleted facts
whose remaining supports are non-empty are exactly the ones one-step
derivable from the survivors, and one ``initial_frontier`` closure run
seeded with them restores everything still derivable.

The support index (:class:`SupportIndex`) is one ``dict`` from each fact
to the set of its supports.  It is built lazily by one recount over the
current facts on the first deletion — insertion-only workloads never pay
for it — and from then on every mutator maintains it: the per-tuple
worklist registers each derivation it enumerates, and a batch closure
recounts only the facts it added (new or re-derived) from the live
tuple indexes.

:class:`IncrementalSinglePathCFPQ` layers the Section-5 length
annotations on the same engine: batches run the closure over the
length-semiring adapter (:mod:`repro.core.semiring`), and deletions
recompute the lengths of the affected facts from the surviving
canonical lengths, so :meth:`~IncrementalSinglePathCFPQ.length_of`
equals a from-scratch :class:`~repro.core.single_path.SinglePathIndex`
after every update.

This realizes the dynamic-graph direction implied by the paper's
"graph databases" motivation, and it doubles as yet another
differential-testing angle: after any interleaved insert/delete
sequence the incremental state must equal a from-scratch solve
(property-tested in ``tests/core/test_incremental.py``).
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Hashable, Iterable

from ..grammar.cfg import CFG
from ..grammar.cnf import ensure_cnf
from ..grammar.symbols import Nonterminal, Terminal
from ..graph.labeled_graph import Edge, LabeledGraph
from ..obs.trace import get_tracer
from .closure import run_closure
from .relations import ContextFreeRelations

#: A derived fact ``(A, i, j)`` by dense node ids.
Fact = tuple[Nonterminal, int, int]

#: One one-step derivation of a fact: ``("edge", label)`` for a base
#: edge, ``("empty",)`` for the empty path of a nullable non-terminal,
#: ``("split", B, C, r)`` for a pair rule applied at midpoint ``r``.
Support = tuple


class SupportIndex:
    """The DRed support index of one :class:`IncrementalCFPQ`: a plain
    ``dict`` from each fact to the set of its one-step derivation
    supports.  Inactive (and free) until :meth:`ensure` builds it on the
    solver's first deletion; while active, every fact of the solver has
    an entry holding *all* its one-step derivations from the current
    graph and facts (asserted against a from-scratch recount in
    ``tests/core/test_incremental.py``)."""

    def __init__(self, solver: "IncrementalCFPQ") -> None:
        self._solver = solver
        self._supports: dict[Fact, set[Support]] | None = None

    @property
    def active(self) -> bool:
        return self._supports is not None

    def ensure(self) -> None:
        """Build the index on first use (one recount over the current
        facts; later updates maintain it)."""
        if self._supports is None:
            self._supports = {
                (nonterminal, i, j): self._recount(nonterminal, i, j)
                for nonterminal, pairs in self._solver._facts.items()
                for (i, j) in pairs
            }

    def _recount(self, nonterminal: Nonterminal, i: int,
                 j: int) -> set[Support]:
        """All one-step derivations of ``(A, i, j)`` from the current
        graph and fact indexes."""
        solver = self._solver
        found: set[Support] = set()
        if i == j and nonterminal in solver._nullable:
            found.add(("empty",))
        for label in solver._terminals_for_head.get(nonterminal, ()):
            if solver.graph.has_edge_id(i, label, j):
                found.add(("edge", label))
        for left, right in solver._bodies_for_head.get(nonterminal, ()):
            for r in solver._by_source.get((left, i), ()):
                if j in solver._by_source.get((right, r), ()):
                    found.add(("split", left, right, r))
        return found

    def add(self, fact: Fact, support: Support) -> None:
        assert self._supports is not None
        self._supports.setdefault(fact, set()).add(support)

    def discard(self, fact: Fact, support: Support) -> None:
        assert self._supports is not None
        recorded = self._supports.get(fact)
        if recorded is not None:
            recorded.discard(support)

    def pop(self, fact: Fact) -> set[Support]:
        """Drop *fact* from the index; returns the supports it still
        had."""
        assert self._supports is not None
        return self._supports.pop(fact, set())

    def entry_count(self) -> int:
        if self._supports is None:
            return 0
        return sum(len(entries) for entries in self._supports.values())

    def export(self) -> dict[Fact, set[Support]] | None:
        if self._supports is None:
            return None
        return {fact: set(entries)
                for fact, entries in self._supports.items()}

    def load(self, mapping: dict) -> None:
        self._supports = {
            fact: set(entries) for fact, entries in mapping.items()
        }

    def after_batch(self, new_facts: list[Fact]) -> None:
        """After a batch closure added *new_facts* (new, or re-derived
        by DRed): recount their supports, and register the split
        supports they newly provide to the consequences that already
        existed."""
        if self._supports is None:
            return
        for fact in new_facts:
            self._supports[fact] = self._recount(*fact)
        for fact in new_facts:
            for consequence, support in self._solver._consequences(fact):
                self._supports[consequence].add(support)


class IncrementalCFPQ:
    """A CFPQ solver whose graph can mutate after the initial solve.

    >>> solver = IncrementalCFPQ(graph, grammar)
    >>> solver.relations().pairs("S")
    >>> solver.add_edge("u", "a", "v")       # tuple-granular propagation
    >>> solver.add_edges(batch)              # matrix-granular batch
    >>> solver.remove_edges(batch)           # DRed delete + re-derive
    >>> solver.relations().pairs("S")        # always at the fixpoint

    All mutators return the number of facts that entered (``add_*``) or
    left (``remove_*``) the relations — the seeded base facts count,
    matching :class:`IncrementalSinglePathCFPQ`.

    After every mutator call :attr:`last_changes` holds the exact
    per-non-terminal delta of that call (the cells whose matrix content
    changed), which is what the query-service layer
    (:mod:`repro.service.query_service`) uses for fine-grained cache
    invalidation.

    *warm_state* (a mapping produced by :meth:`export_state`, typically
    via a snapshot — :mod:`repro.service.snapshot`) seeds the solver
    from an already-closed fact set instead of running the initial
    closure: construction is O(|facts|) and
    :attr:`initial_closure_iterations` is 0.
    """

    def __init__(self, graph: LabeledGraph, grammar: CFG,
                 backend: str = "pyset", strategy: str = "delta",
                 warm_state: "dict | None" = None,
                 **strategy_options):
        self.graph = graph
        self.grammar = ensure_cnf(grammar)
        self.backend = backend
        self.strategy = strategy
        self.strategy_options = strategy_options

        self._facts: dict[Nonterminal, set[tuple[int, int]]] = defaultdict(set)
        self._by_source: dict[tuple[Nonterminal, int], set[int]] = defaultdict(set)
        self._by_target: dict[tuple[Nonterminal, int], set[int]] = defaultdict(set)
        self._rules_by_left: dict[Nonterminal, list[tuple[Nonterminal, Nonterminal]]] = \
            defaultdict(list)
        self._rules_by_right: dict[Nonterminal, list[tuple[Nonterminal, Nonterminal]]] = \
            defaultdict(list)
        self._bodies_for_head: dict[Nonterminal, list[tuple[Nonterminal, Nonterminal]]] = \
            defaultdict(list)
        self._pair_rules: list[tuple[Nonterminal, Nonterminal, Nonterminal]] = []
        for rule in self.grammar.binary_rules:
            left, right = rule.body  # type: ignore[misc]
            self._rules_by_left[left].append((rule.head, right))   # type: ignore[index,arg-type]
            self._rules_by_right[right].append((rule.head, left))  # type: ignore[index,arg-type]
            self._bodies_for_head[rule.head].append((left, right))  # type: ignore[arg-type]
            self._pair_rules.append((rule.head, left, right))       # type: ignore[arg-type]
        self._terminals_for_head: dict[Nonterminal, list[str]] = defaultdict(list)
        for rule in self.grammar.terminal_rules:
            self._terminals_for_head[rule.head].append(rule.body[0].label)  # type: ignore[union-attr]
        self._nullable = self.grammar.nullable_diagonal

        #: DRed support index.  Inactive until the first deletion:
        #: insertion-only workloads never build it.
        self._support_store = SupportIndex(self)

        self._edge_insertions = 0
        self._edge_removals = 0
        self._batch_updates = 0
        self._propagated_facts = 0
        self._facts_removed = 0

        #: Active per-call change recorder (None outside a mutator).
        self._change_recorder: dict[Nonterminal, set[tuple[int, int]]] | None = None
        self._last_changes: dict[Nonterminal, frozenset[tuple[int, int]]] = {}
        self._initial_iterations = 0

        if warm_state is not None:
            self._seed_from_state(warm_state)
        else:
            self._seed_from_engine(backend, strategy)
        # Keep the stats contract of the worklist-seeded version: every
        # initially derived fact counts as one propagation.
        self._propagated_facts = sum(
            len(pairs) for pairs in self._facts.values()
        )

    def _seed_from_engine(self, backend: str, strategy: str) -> None:
        """Initial solve: run the matrix closure engine to the fixpoint
        and seed the tuple-level indexes from the closed matrices.
        Annotated subclasses override this to seed from the semiring
        engine instead."""
        from .matrix_cfpq import solve_matrix

        result = solve_matrix(self.graph, self.grammar, backend=backend,
                              normalize=False, strategy=strategy,
                              **self.strategy_options)
        self._initial_iterations = result.stats.iterations
        for nonterminal, matrix in result.matrices.items():
            for i, j in matrix.nonzero_pairs():
                self._record(nonterminal, i, j)

    def _seed_from_state(self, state: dict) -> None:
        """Warm start: adopt an already-closed fact set (and, when
        present, the DRed support index) without running any closure."""
        for nonterminal, pairs in state.get("facts", {}).items():
            for i, j in pairs:
                self._record(nonterminal, i, j)
        supports = state.get("supports")
        if supports is not None:
            self._support_store.load(supports)

    def export_state(self) -> dict:
        """The solver's closed state as plain containers — the inverse
        of the ``warm_state`` constructor argument (used by the
        snapshot store)."""
        state: dict = {
            "facts": {
                nonterminal: set(pairs)
                for nonterminal, pairs in self._facts.items() if pairs
            },
        }
        supports = self._support_store.export()
        if supports is not None:
            state["supports"] = supports
        return state

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

    def _begin_change_log(self) -> None:
        self._change_recorder = {}

    def _commit_change_log(self) -> None:
        recorder = self._change_recorder or {}
        self._change_recorder = None
        self._last_changes = {
            nonterminal: frozenset(pairs)
            for nonterminal, pairs in recorder.items()
        }

    def _log_change(self, nonterminal: Nonterminal,
                    pair: tuple[int, int]) -> None:
        if self._change_recorder is not None:
            self._change_recorder.setdefault(nonterminal, set()).add(pair)

    # ------------------------------------------------------------------
    # Mutation: insertion
    # ------------------------------------------------------------------
    def add_edge(self, source: Hashable, label: str, target: Hashable) -> int:
        """Insert one edge and propagate its consequences at tuple
        granularity.

        Returns the number of **new facts** — seeded base facts,
        nullable-diagonal facts of freshly created nodes and everything
        derived from them (0 when the edge adds nothing, e.g. a
        duplicate).  Once deletion support is active the propagation
        additionally maintains the derivation supports, so single-edge
        inserts stay O(delta) instead of re-running the batch path.
        """
        self._begin_change_log()
        try:
            return self._add_edge(source, label, target)
        finally:
            self._commit_change_log()

    def _add_edge(self, source: Hashable, label: str, target: Hashable) -> int:
        already_present = self.graph.has_edge(source, label, target)
        new_nodes = [node for node in dict.fromkeys((source, target))
                     if not self.graph.has_node(node)]
        self.graph.add_edge(source, label, target)
        self._edge_insertions += 1

        base: list[tuple[Fact, Support]] = []
        for node in new_nodes:
            node_id = self.graph.node_id(node)
            base += [((head, node_id, node_id), ("empty",))
                     for head in self._nullable]
        if not already_present:
            i = self.graph.node_id(source)
            j = self.graph.node_id(target)
            base += [((head, i, j), ("edge", label))
                     for head in self.grammar.heads_for_terminal(
                         Terminal(label))]
        return self._propagate(base)

    def add_edges(self, edges: Iterable[Edge]) -> int:
        """Insert a batch of edges through the matrix-granular path.

        The batch is converted into per-non-terminal seed matrices (base
        facts of the new edges plus nullable diagonals of new nodes) and
        closed by one ``initial_frontier`` run of the configured closure
        strategy — no per-tuple worklist.  Returns the number of new
        facts.
        """
        self._begin_change_log()
        try:
            return self._add_edges(edges)
        finally:
            self._commit_change_log()

    def _add_edges(self, edges: Iterable[Edge]) -> int:
        edges = list(edges)
        nodes_before = self.graph.node_count
        new_edges: list[tuple[int, str, int]] = []
        for source, label, target in edges:
            self._edge_insertions += 1
            if self.graph.has_edge(source, label, target):
                continue
            self.graph.add_edge(source, label, target)
            new_edges.append((self.graph.node_id(source), label,
                              self.graph.node_id(target)))

        store = self._support_store
        seeds: dict[Nonterminal, dict[tuple[int, int], object]] = {}
        for head in self._nullable:
            for i in range(nodes_before, self.graph.node_count):
                seeds.setdefault(head, {})[(i, i)] = \
                    self._seed_value((head, i, i), (("empty",),))
        for i, label, j in new_edges:
            for head in self.grammar.heads_for_terminal(Terminal(label)):
                seeds.setdefault(head, {}).setdefault(
                    (i, j), self._seed_value((head, i, j), (("edge", label),)))
                if store.active and (i, j) in self._facts[head]:
                    # The batch closure recounts only the facts it adds;
                    # a pre-existing fact gains the fresh edge here.
                    store.add((head, i, j), ("edge", label))
        if not seeds:
            return 0
        return self._run_batch(seeds)

    # ------------------------------------------------------------------
    # Mutation: deletion (support-counted DRed)
    # ------------------------------------------------------------------
    def remove_edge(self, source: Hashable, label: str,
                    target: Hashable) -> int:
        """Remove one edge; returns the number of facts that left the
        relations (see :meth:`remove_edges`)."""
        return self.remove_edges([(source, label, target)])

    def remove_edges(self, edges: Iterable[Edge]) -> int:
        """Remove a batch of edges with delete-and-rederive.

        Phase 1 *over-deletes* the downward closure of every fact a
        removed edge supported (count-blind — sound even when facts
        support each other in cycles), discarding the invalidated
        supports along the way.  Phase 2 *re-derives*: over-deleted
        facts whose surviving supports are non-empty re-enter as the
        ``initial_frontier`` of one closure run, which restores every
        fact still derivable.  Returns the number of facts permanently
        removed from the relations.
        """
        store = self._support_store
        store.ensure()
        self._last_changes = {}

        worklist: deque[Fact] = deque()
        for source, label, target in edges:
            self._edge_removals += 1
            if not self.graph.remove_edge(source, label, target):
                continue
            i = self.graph.node_id(source)
            j = self.graph.node_id(target)
            for head in self.grammar.heads_for_terminal(Terminal(label)):
                fact = (head, i, j)
                store.discard(fact, ("edge", label))
                if (i, j) in self._facts.get(head, ()):
                    worklist.append(fact)

        # Phase 1: over-delete the downward closure, invalidating every
        # support an over-deleted fact provided.  The tuple indexes
        # still reflect the pre-deletion database, which is exactly the
        # over-approximation DRed's deletion phase needs.
        tracer = get_tracer()
        overdeleted: set[Fact] = set()
        with tracer.span("dred.overdelete") as phase_span:
            while worklist:
                fact = worklist.popleft()
                if fact in overdeleted:
                    continue
                overdeleted.add(fact)
                for consequence, support in self._consequences(fact):
                    store.discard(consequence, support)
                    if consequence not in overdeleted:
                        worklist.append(consequence)
            phase_span.set("overdeleted", len(overdeleted))

        if not overdeleted:
            return 0

        # Annotation values before the delete (single-path: lengths) so
        # re-derived facts whose annotation moved land in last_changes.
        annotation_snapshot = self._annotations_of(overdeleted)

        # Surviving supports of the over-deleted facts, taken as their
        # entries leave the support index: a surviving support means the
        # fact is one-step derivable from facts outside the over-deleted
        # set — exactly the re-derivation seeds.
        remaining_by_fact = {fact: store.pop(fact) for fact in overdeleted}
        for fact in overdeleted:
            nonterminal, i, j = fact
            self._facts[nonterminal].discard((i, j))
            self._by_source[(nonterminal, i)].discard(j)
            self._by_target[(nonterminal, j)].discard(i)
            self._on_fact_removed(fact)

        # Phase 2: re-derive from the survivors.
        with tracer.span("dred.rederive") as phase_span:
            seeds: dict[Nonterminal, dict[tuple[int, int], object]] = {}
            for fact, remaining in remaining_by_fact.items():
                if not remaining:
                    continue
                nonterminal, i, j = fact
                seeds.setdefault(nonterminal, {})[(i, j)] = \
                    self._seed_value(fact, remaining)
            phase_span.set("seeds", sum(len(cells)
                                        for cells in seeds.values()))
            if seeds:
                self._run_batch(seeds)

        removed = 0
        changes: dict[Nonterminal, set[tuple[int, int]]] = {}
        for fact in overdeleted:
            nonterminal, i, j = fact
            if (i, j) not in self._facts.get(nonterminal, ()):
                removed += 1
                changes.setdefault(nonterminal, set()).add((i, j))
            elif self._annotation_changed(fact, annotation_snapshot):
                changes.setdefault(nonterminal, set()).add((i, j))
        self._last_changes = {
            nonterminal: frozenset(pairs)
            for nonterminal, pairs in changes.items()
        }
        self._facts_removed += removed
        return removed

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def relations(self) -> ContextFreeRelations:
        """The current relations ``R_A`` (always at fixpoint)."""
        return ContextFreeRelations(
            self.graph,
            {nt: set(self._facts.get(nt, ())) for nt in self.grammar.nonterminals},
        )

    def pairs(self, nonterminal: Nonterminal | str) -> frozenset[tuple[int, int]]:
        """``R_A`` as dense-id pairs."""
        if isinstance(nonterminal, str):
            nonterminal = Nonterminal(nonterminal)
        return frozenset(self._facts.get(nonterminal, ()))

    def targets_from(self, nonterminal: Nonterminal | str,
                     source: int) -> frozenset[int]:
        """The targets reachable from one source: ``{j : (source, j) ∈
        R_A}``.  One row of the by-source index — a membership probe
        never has to materialize (or copy) the full relation."""
        if isinstance(nonterminal, str):
            nonterminal = Nonterminal(nonterminal)
        return frozenset(self._by_source.get((nonterminal, source), ()))

    @property
    def stats(self) -> dict[str, int]:
        """Instrumentation: updates seen, facts propagated/removed, and
        the size of the DRed support index (0 until a deletion
        activates it)."""
        return {
            "edge_insertions": self._edge_insertions,
            "edge_removals": self._edge_removals,
            "batch_updates": self._batch_updates,
            "propagated_facts": self._propagated_facts,
            "facts_removed": self._facts_removed,
            "total_facts": sum(len(pairs) for pairs in self._facts.values()),
            "support_entries": self._support_store.entry_count(),
        }

    # ------------------------------------------------------------------
    # Batch engine (shared by add_edges and the re-derive phase)
    # ------------------------------------------------------------------
    def _run_batch(self, seeds: dict) -> int:
        """Close the current state with *seeds* as the initial frontier;
        absorb and return the number of facts that appeared."""
        n = self.graph.node_count
        with get_tracer().span("frontier.run",
                               strategy=self.strategy) as span:
            matrices = self._matrices_from_state(n)
            result = run_closure(
                matrices, self._pair_rules, self._batch_backend(),
                strategy=self.strategy,
                initial_frontier=self._seed_matrices(n, seeds),
                **self.strategy_options)
            self._batch_updates += 1
            new_facts = self._absorb(result.matrices)
            span.set("new_facts", len(new_facts))
        self._propagated_facts += len(new_facts)
        self._support_store.after_batch(new_facts)
        return len(new_facts)

    def _batch_backend(self):
        from ..matrices.base import get_backend

        return get_backend(self.backend)

    def _matrices_from_state(self, n: int) -> dict:
        backend = self._batch_backend()
        return {
            nt: backend.from_pairs(n, self._facts.get(nt, ()))
            for nt in self.grammar.nonterminals
        }

    def _seed_matrices(self, n: int, seeds: dict) -> dict:
        backend = self._batch_backend()
        return {
            nt: backend.from_pairs(n, cells.keys())
            for nt, cells in seeds.items()
        }

    def _absorb(self, matrices: dict) -> list[Fact]:
        """Record the closed matrices into the tuple indexes; returns
        the facts that were not present before.  Index updates are
        bulk-grouped by row/column so absorbing a large batch costs set
        operations, not one ``_record`` call per fact."""
        new_facts: list[Fact] = []
        for nonterminal, matrix in matrices.items():
            known = self._facts[nonterminal]
            fresh = matrix.to_pair_set() - known
            if not fresh:
                continue
            known |= fresh
            self._index_pairs(nonterminal, fresh)
            if self._change_recorder is not None:
                self._change_recorder.setdefault(nonterminal, set()).update(fresh)
            new_facts.extend((nonterminal, i, j) for i, j in fresh)
        return new_facts

    def _index_pairs(self, nonterminal: Nonterminal,
                     pairs: Iterable[tuple[int, int]]) -> None:
        rows: dict[int, list[int]] = {}
        cols: dict[int, list[int]] = {}
        for i, j in pairs:
            rows.setdefault(i, []).append(j)
            cols.setdefault(j, []).append(i)
        for i, targets in rows.items():
            self._by_source[(nonterminal, i)].update(targets)
        for j, sources in cols.items():
            self._by_target[(nonterminal, j)].update(sources)

    def _seed_value(self, fact: Fact, supports: Iterable[Support]):
        """The frontier cell value of *fact* seeded through *supports*
        (presence for the base solver; annotated subclasses fold the
        supports' annotations)."""
        return True

    def _on_fact_removed(self, fact: Fact) -> None:
        """Hook for annotated subclasses (drop per-fact annotations)."""

    def _annotations_of(self, facts: set[Fact]) -> dict:
        """Pre-deletion annotation values of *facts* (empty for the
        presence-only base solver — re-derived boolean cells cannot
        change value)."""
        return {}

    def _annotation_changed(self, fact: Fact, snapshot: dict) -> bool:
        """Did the DRed pass leave *fact* present with a different
        annotation than *snapshot* recorded?"""
        return False

    # ------------------------------------------------------------------
    # Tuple-granular engine
    # ------------------------------------------------------------------
    def _record(self, nonterminal: Nonterminal, i: int, j: int) -> None:
        self._facts[nonterminal].add((i, j))
        self._by_source[(nonterminal, i)].add(j)
        self._by_target[(nonterminal, j)].add(i)
        self._log_change(nonterminal, (i, j))

    def _consequences(self, fact: Fact):
        """Every ``(consequence, support)`` that *fact* yields as the
        left or right operand of a pair rule against the current fact
        indexes.  The index rows are copied, so the caller may record
        facts while iterating."""
        nonterminal, i, j = fact
        for head, right in self._rules_by_left.get(nonterminal, ()):
            support = ("split", nonterminal, right, j)
            for k in tuple(self._by_source.get((right, j), ())):
                yield (head, i, k), support
        for head, left in self._rules_by_right.get(nonterminal, ()):
            support = ("split", left, nonterminal, i)
            for k in tuple(self._by_target.get((left, i), ())):
                yield (head, k, j), support

    def _improve(self, fact: Fact, support: Support) -> tuple[bool, bool]:
        """Apply one one-step derivation of *fact*; returns ``(added,
        improved)``.  Presence-only: a fact is added iff absent and
        never improved — annotated subclasses override the arithmetic."""
        nonterminal, i, j = fact
        if (i, j) in self._facts[nonterminal]:
            return False, False
        self._record(nonterminal, i, j)
        return True, False

    def _propagate(self, derivations: Iterable[tuple[Fact, Support]]) -> int:
        """The tuple-granular worklist: apply the given base
        ``(fact, support)`` derivations, then every derivation they
        entail; returns the number of new facts.

        Each enumerated derivation records or refines its fact
        (:meth:`_improve`) and, with the DRed support index active, is
        registered as a support — also of a fact that already exists,
        which is what keeps the index exact (every derivation of a delta
        fact involves at least one delta operand, and each such
        combination is enumerated when that operand pops)."""
        store = self._support_store if self._support_store.active else None
        improve = self._improve
        worklist: deque[Fact] = deque()
        created = 0
        while True:
            for fact, support in derivations:
                added, improved = improve(fact, support)
                if store is not None:
                    store.add(fact, support)
                if added or improved:
                    worklist.append(fact)
                    created += added
            if not worklist:
                return created
            self._propagated_facts += 1
            derivations = self._consequences(worklist.popleft())


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
    * :meth:`add_edges` runs the batch closure over the length-semiring
      matrix adapter, whose ``union_update`` feeds refinements back into
      the semi-naive frontier.
    * :meth:`remove_edges` (inherited DRed) drops the lengths of the
      over-deleted facts and recomputes the affected submatrix from the
      surviving canonical lengths — survivors outside the downward
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
        for nonterminal, matrix in result.matrices.items():
            for i, j, length in matrix.nonzero_cells():
                self._record(nonterminal, i, j)
                self._lengths[(nonterminal, i, j)] = length

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
    def single_path_index(self):
        """The maintained lengths as a
        :class:`~repro.core.single_path.SinglePathIndex`, so
        :func:`~repro.core.single_path.extract_path` runs on the live
        incremental state (the query service rebuilds this after every
        update tick)."""
        from .single_path import SinglePathIndex

        cells: dict[tuple[int, int], dict] = {}
        for (nonterminal, i, j), length in self._lengths.items():
            cells.setdefault((i, j), {})[nonterminal] = length
        return SinglePathIndex(graph=self.graph, grammar=self.grammar,
                               cells=cells, iterations=0)

    def length_of(self, nonterminal: Nonterminal | str, source: Hashable,
                  target: Hashable) -> int | None:
        """The maintained witness length for ``(A, source, target)``, or
        None when the pair is not in ``R_A``."""
        if isinstance(nonterminal, str):
            nonterminal = Nonterminal(nonterminal)
        return self._lengths.get(
            (nonterminal, self.graph.node_id(source),
             self.graph.node_id(target))
        )

    # ------------------------------------------------------------------
    # Batch hooks
    # ------------------------------------------------------------------
    def _batch_backend(self):
        from .semiring import LENGTH_SEMIRING, AnnotatedBackend

        return AnnotatedBackend(LENGTH_SEMIRING)

    def _matrices_from_state(self, n: int) -> dict:
        backend = self._batch_backend()
        return {
            nt: backend.from_cells(
                (n, n),
                {(i, j): self._lengths[(nt, i, j)]
                 for (i, j) in self._facts.get(nt, ())},
                symbol=nt,
            )
            for nt in self.grammar.nonterminals
        }

    def _seed_matrices(self, n: int, seeds: dict) -> dict:
        backend = self._batch_backend()
        return {
            nt: backend.from_cells((n, n), cells, symbol=nt)
            for nt, cells in seeds.items()
        }

    def _absorb(self, matrices: dict) -> list[Fact]:
        new_facts: list[Fact] = []
        lengths = self._lengths
        for nonterminal, matrix in matrices.items():
            known = self._facts[nonterminal]
            fresh: list[tuple[int, int]] = []
            for i, j, length in matrix.nonzero_cells():
                previous = lengths.get((nonterminal, i, j))
                lengths[(nonterminal, i, j)] = length
                if (i, j) not in known:
                    fresh.append((i, j))
                elif previous != length:
                    # Length refinement of an existing fact: the matrix
                    # content changed even though the relation did not.
                    self._log_change(nonterminal, (i, j))
            if not fresh:
                continue
            known.update(fresh)
            self._index_pairs(nonterminal, fresh)
            if self._change_recorder is not None:
                self._change_recorder.setdefault(nonterminal, set()).update(fresh)
            new_facts.extend((nonterminal, i, j) for i, j in fresh)
        return new_facts

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

    def _seed_value(self, fact: Fact, supports: Iterable[Support]) -> int:
        """Min length over the given derivations.  For a re-derivation
        seed they are the surviving supports — their operands are all
        survivors, so their canonical lengths are available; the closure
        run then refines downward if a shorter route re-appears through
        other re-derived facts."""
        return min(self._derivation_length(fact, support)
                   for support in supports)

    def _on_fact_removed(self, fact: Fact) -> None:
        self._lengths.pop(fact, None)

    def _annotations_of(self, facts: set[Fact]) -> dict:
        return {fact: self._lengths.get(fact) for fact in facts}

    def _annotation_changed(self, fact: Fact, snapshot: dict) -> bool:
        return self._lengths.get(fact) != snapshot.get(fact)

    # ------------------------------------------------------------------
    # Tuple-granular engine
    # ------------------------------------------------------------------
    def _improve(self, fact: Fact, support: Support) -> tuple[bool, bool]:
        """Min-refinement: a fact whose recorded length improves counts
        as improved (it re-enters the worklist), not as new."""
        length = self._derivation_length(fact, support)
        current = self._lengths.get(fact)
        if current is None:
            self._record(*fact)
            self._lengths[fact] = length
            return True, False
        if length < current:
            self._lengths[fact] = length
            self._log_change(fact[0], fact[1:])
            return False, True
        return False, False
