"""Incremental CFPQ: maintaining relations under edge insertions *and*
deletions.

Graph databases mutate; recomputing the whole closure per update wastes
the work already done.  The initial solve runs the matrix closure
engine once (its ``backend``, ``strategy`` and strategy options shape
only that solve); afterwards one worklist keeps the relations ``R_A``
at the fixpoint.

**Insertions** exploit that Algorithm 1's fixpoint is a *monotone*
least fixpoint (Theorem 3's argument: facts are only ever added), so
:meth:`IncrementalCFPQ.add_edges` propagates only the consequences of
the new base facts ``{(A, u, v) | (A → x) ∈ P}`` (and the nullable
diagonals of new nodes) — the Hellings step started from the delta,
whatever the batch size.

**Deletions** break monotonicity, so :meth:`IncrementalCFPQ.remove_edges`
runs plain **delete-and-rederive** (DRed) with no support store: (1)
**over-delete** the downward closure of the touched facts — count-blind,
which stays sound where support counts would keep self-supporting
cycles alive — then (2) **re-derive**: probe each over-deleted fact for
its one-step derivations from the survivors (a terminal edge, an
``("empty",)`` nullability mark or a ``(rule, midpoint)`` split) and
feed them to the worklist insertions use.  A deletion costs what it
over-deletes, never the size of the relations, and insertions carry no
bookkeeping for it.

**The worklist pops row groups**, as
:func:`~repro.baselines.hellings.solve_hellings` does.  A fact ``(A, i,
j)`` that enters joins the pending set keyed by ``(A, i)``; the queue
holds each key once, so what a row gains before it is popped merges
into one set ``J``.  A pop joins all of ``J`` as the left operand of
``H → A C`` through ``rows[C][j]`` and as the right operand of ``H → B
A`` through ``cols[B][i]``, and what the head already holds drops out
by one set difference.  The over-delete marks run on the same loop,
writing into scratch maps while the joins read the live ones.

**Layout.**  Each relation is held once, as the row map ``rows[A][i]``
that everything reads — the set ``{j}``, or on
:class:`IncrementalSinglePathCFPQ` the dict ``{j: l_A(i, j)}`` of
Section-5 lengths — mirrored by ``cols[A][j] = {i}``; a closed matrix
is adopted by rows.  The single-path solver overrides the writers, and
its min-join reads each length from the row it walks; every reader
only iterates rows or tests membership, which a dict row answers as a
set does.  A fact whose length improves re-enters its pending set.

**Path views.**  The same derivation reader that serves DRed is all a
path answer needs, so :meth:`IncrementalCFPQ.all_path_index` and
:meth:`IncrementalSinglePathCFPQ.single_path_index` hand out *views* of
the live state, not index copies.

After any interleaved insert/delete sequence the incremental state
equals a from-scratch solve (property-tested in
``tests/core/test_incremental.py``).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Hashable, Iterable, Iterator, Mapping

from ..errors import UnknownNodeError
from ..grammar.cfg import CFG
from ..grammar.cnf import ensure_cnf
from ..grammar.symbols import Nonterminal, as_nonterminal
from ..graph.labeled_graph import Edge, LabeledGraph
from ..matrices.base import BooleanMatrix, get_backend
from ..obs.trace import get_tracer
from .closure import closure_settings
from .path_index import (AllPathIndex, Fact, FactMaps, Support, fact_maps,
                         one_step_derivations)
from .relations import ContextFreeRelations, row_map_pairs
from .single_path import SinglePathView


#: What a recording step hands the worklist: the facts ``(head, i, k)``,
#: ``k`` in the set, that must (re-)enter the pending set of ``(head, i)``.
Entry = tuple[Nonterminal, int, set[int]]

_UNREACHED = float("inf")


class _Changes(Mapping):
    """The cells one mutator call changed: row maps ``{i: {j}}`` per
    non-terminal, read as pair sets, so a reader of the changed symbols
    alone builds no pairs."""

    def __init__(self, rows: FactMaps):
        self._rows = {nt: row_map for nt, row_map in rows.items() if row_map}

    def __getitem__(self, nonterminal: Nonterminal) -> frozenset:
        return frozenset(row_map_pairs(self._rows[nonterminal]))

    def __iter__(self) -> Iterator[Nonterminal]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)


def _merge_rows(index: dict, matrix) -> None:
    """Union the rows of a closed *matrix* into the row map *index*,
    each row one slice of its ``row_major()`` export."""
    indptr, indices = matrix.row_major()
    starts, columns = indptr.tolist(), indices.tolist()
    for node, (start, end) in enumerate(zip(starts, starts[1:])):
        if start != end:
            index[node].update(columns[start:end])


class IncrementalCFPQ:
    """A CFPQ solver whose graph can mutate after the initial solve.

    >>> solver = IncrementalCFPQ(graph, grammar)
    >>> solver.relations().pairs("S")
    >>> solver.add_edge("u", "a", "v")       # one worklist run
    >>> solver.add_edges(batch)              # one worklist run
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

    _ROW = set  # the row container: rows[A][i] = {j}

    def __init__(self, graph: LabeledGraph, grammar: CFG,
                 backend: str | None = None, strategy: str | None = None,
                 warm_state: "dict | None" = None,
                 **strategy_options):
        self.backend, self.strategy, self.strategy_options = \
            closure_settings(backend, strategy, **strategy_options)
        self.graph = graph
        self.grammar = ensure_cnf(grammar)

        nonterminals = self.grammar.nonterminals
        self._rows = fact_maps(nonterminals, self._ROW)
        self._cols = fact_maps(nonterminals)
        self._live = (self._rows, self._cols)
        self._fact_count = 0  # the maps' size, kept by every writer
        # Pair rules indexed by operand, each bound once to the map its
        # join reads: a row group (B, i, J) as the LEFT part of A -> B C
        # meets the rows j in J of C, a group (C, r, J) as the RIGHT
        # part the column r of B.
        self._as_left: dict[Nonterminal, list] = {nt: [] for nt in nonterminals}
        self._as_right: dict[Nonterminal, list] = {nt: [] for nt in nonterminals}
        for rule in self.grammar.binary_rules:
            head = rule.head
            left, right = rule.body  # type: ignore[misc]
            self._as_left[left].append((head, right, self._rows[right]))   # type: ignore[index]
            self._as_right[right].append((head, left, self._cols[left]))   # type: ignore[index]
        #: Every one-step derivation of a fact from the current graph
        #: and fact maps — the DRed re-derivation probe, and what the
        #: path views of this solver read.
        self._derivations = one_step_derivations(
            graph, self.grammar, self._rows, self._cols)
        self._nullable = self.grammar.nullable_diagonal

        self._edge_insertions = 0
        self._edge_removals = 0
        self._propagated_facts = 0
        self._facts_removed = 0

        #: Active per-call change recorder (None outside a mutator).
        self._change_recorder: FactMaps | None = None
        self._last_changes: Mapping[Nonterminal, frozenset] = {}
        self._initial_iterations = 0

        if warm_state is not None:
            self._seed_from_state(warm_state)
        else:
            self._seed_from_engine()
        # Keep the stats contract of the worklist-seeded version: every
        # initially derived fact counts as one propagation.
        self._propagated_facts = self._fact_count

    def _seed_from_engine(self) -> None:
        """Initial solve: run the matrix closure engine to the fixpoint
        and seed the fact maps from the closed matrices."""
        from .matrix_cfpq import solve_matrix

        result = solve_matrix(self.graph, self.grammar, backend=self.backend,
                              normalize=False, strategy=self.strategy,
                              **self.strategy_options)
        self._initial_iterations = result.stats.iterations
        self._seed_from_state({"facts": result.matrices})

    def _seed_from_state(self, state: dict) -> None:
        """Adopt an already-closed fact set (a *warm_state*) without
        running any closure."""
        facts = state.get("facts", {})
        for nonterminal, relation in (facts.items() if isinstance(
                facts, Mapping) else facts):
            self._adopt(nonterminal, relation)
        self._fact_count = sum(len(row) for row_map in self._rows.values()
                               for row in row_map.values())

    def _adopt(self, nonterminal: Nonterminal, relation) -> None:
        """Record the facts of one closed matrix or pair set (seeding:
        nothing to log or chase) by rows, the columns by rows of its
        transpose."""
        if not isinstance(relation, BooleanMatrix):
            relation = get_backend("setmatrix").from_pairs(
                self.graph.node_count, relation)
        _merge_rows(self._rows[nonterminal], relation)
        _merge_rows(self._cols[nonterminal], relation.transpose())

    def export_state(self) -> dict:
        """The solver's closed state as plain containers — the inverse
        of the ``warm_state`` constructor argument."""
        return {"facts": {nonterminal: set(row_map_pairs(row_map))
                          for nonterminal, row_map in self._rows.items()
                          if row_map}}

    @property
    def last_changes(self) -> Mapping[Nonterminal, frozenset[tuple[int, int]]]:
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

    def _log_changes(self, nonterminal: Nonterminal, i: int,
                     targets: set[int]) -> None:
        if self._change_recorder is not None:
            self._change_recorder[nonterminal][i] |= targets

    # ------------------------------------------------------------------
    # Mutation: insertion
    # ------------------------------------------------------------------
    def add_edge(self, source: Hashable, label: str, target: Hashable) -> int:
        """Insert one edge; returns the number of new facts (see
        :meth:`add_edges`)."""
        return self.add_edges([(source, label, target)])

    def add_edges(self, edges: Iterable[Edge]) -> int:
        """Insert a batch of edges; returns the number of new facts:
        seeded base facts, nullable-diagonal facts of freshly created
        nodes and everything derived from them.

        The batch's base derivations (base facts of the new edges plus
        nullable diagonals of new nodes) seed one worklist run, whatever
        the batch size.
        """
        recorder = self._change_recorder = fact_maps(self._rows)
        before = self._fact_count
        try:
            self._add_edges(edges)
            return self._fact_count - before
        finally:
            self._change_recorder = None
            self._last_changes = _Changes(recorder)

    def _add_edges(self, edges: Iterable[Edge]) -> None:
        graph, heads_for_label = self.graph, self.grammar.heads_for_label
        nodes_before = graph.node_count
        base: list[tuple[Fact, Support]] = []
        for source, label, target in edges:
            self._edge_insertions += 1
            if graph.has_edge(source, label, target):
                continue
            graph.add_edge(source, label, target)
            i, j = graph.node_id(source), graph.node_id(target)
            support = ("edge", label)
            for head in heads_for_label(label):
                base.append(((head, i, j), support))
        base += [((head, i, i), ("empty",)) for head in self._nullable
                 for i in range(nodes_before, graph.node_count)]
        self._insert(base)

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
        worklist.  Returns the number of facts permanently removed.
        """
        self._last_changes = {}
        rows, count_before = self._rows, self._fact_count
        doomed: list[Fact] = []
        for source, label, target in edges:
            self._edge_removals += 1
            if not self.graph.remove_edge(source, label, target):
                continue
            i = self.graph.node_id(source)
            j = self.graph.node_id(target)
            doomed += [(head, i, j)
                       for head in self.grammar.heads_for_label(label)
                       if j in rows[head].get(i, ())]

        # Phase 1: over-delete the downward closure into scratch maps.
        # The live maps the joins read still reflect the pre-deletion
        # database, which is exactly the over-approximation DRed's
        # deletion phase needs.  Presence-only on both solvers.
        gone_rows, gone_cols = scratch = fact_maps(rows), fact_maps(rows)
        tracer = get_tracer()
        with tracer.span("dred.overdelete") as phase_span:
            overdeleted = self._propagate(
                ((head, i, self._add(head, i, {j}, scratch))
                 for head, i, j in doomed),
                lambda nonterminal, i, group: IncrementalCFPQ._join(
                    self, nonterminal, i, group, scratch))
            phase_span.set("overdeleted", overdeleted)

        if not overdeleted:
            return 0

        # One in-place difference per touched relation, row and column;
        # every over-deleted fact is held (the live maps are closed).
        # What the rows held (single-path: lengths) comes back, so
        # re-derived facts whose annotation moved land in last_changes.
        self._fact_count -= overdeleted
        before = self._forget(gone_rows, gone_cols)

        # Phase 2: re-derive.  Every over-deleted fact is probed against
        # the survivors before the worklist runs; what it re-enters then
        # meets everything re-derived through the joins.
        with tracer.span("dred.rederive"):
            self._insert(
                ((head, i, j), support)
                for head, row_map in gone_rows.items()
                for i, targets in row_map.items() for j in targets
                for support in self._derivations((head, i, j)))

        removed = count_before - self._fact_count
        changes = fact_maps(rows)
        for nonterminal, entries in gone_rows.items():
            index = rows[nonterminal]
            for i, targets in entries.items():
                lost = targets.difference(index.get(i, ()))
                if lost:
                    changes[nonterminal][i] = lost
        for nonterminal, i, j in self._reannotated(before):
            changes[nonterminal][i].add(j)
        self._last_changes = _Changes(changes)
        self._facts_removed += removed
        return removed

    def relations(self) -> ContextFreeRelations:
        """The relations ``R_A`` as a **view** of the row maps, read
        live on every call."""
        return ContextFreeRelations(self.graph, self._rows)

    @property
    def row_maps(self) -> FactMaps:
        """The live row maps ``A -> {i: {j}}`` (single-path: ``{j:
        length}`` rows), one per non-terminal: read, never write them."""
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
            "propagated_facts": self._propagated_facts,
            "facts_removed": self._facts_removed,
            "total_facts": self._fact_count,
        }

    def _forget(self, gone_rows: FactMaps, gone_cols: FactMaps) -> dict:
        """Drop the over-deleted facts from the live maps; returns their
        annotations: none, a re-derived boolean cell cannot change."""
        for live, gone in ((self._rows, gone_rows), (self._cols, gone_cols)):
            for nonterminal, entries in gone.items():
                index = live[nonterminal]
                for node, others in entries.items():
                    remaining = index[node]
                    remaining -= others
                    if not remaining:
                        del index[node]
        return {}

    def _reannotated(self, before: dict) -> Iterable[Fact]:
        """The facts of *before* back with a different annotation."""
        return ()

    # ------------------------------------------------------------------
    # The worklist
    # ------------------------------------------------------------------
    def _propagate(self, entries: Iterable[Entry],
                   join: Callable[..., Iterable[Entry]]) -> int:
        """The row-group worklist: each entry's facts join the pending
        set of its ``(head, i)``, queued when the set is created; a pop
        hands the whole set to *join*, whose entries go the same way.
        Returns the number of facts joined (a fact joined twice, after
        its annotation improved, counts twice)."""
        pending: dict[tuple[Nonterminal, int], set[int]] = {}
        queue: deque[tuple[Nonterminal, int]] = deque()
        joined = 0
        while True:
            for head, i, entered in entries:
                if entered:
                    key = (head, i)
                    waiting = pending.get(key)
                    if waiting is None:
                        pending[key] = entered
                        queue.append(key)
                    else:
                        waiting |= entered
            if not queue:
                return joined
            key = queue.popleft()
            group = pending.pop(key)
            joined += len(group)
            entries = join(key[0], key[1], group)

    def _add(self, head: Nonterminal, i: int, candidates: set[int],
             scratch: tuple[FactMaps, FactMaps] | None = None) -> set[int]:
        """Record the facts ``(head, i, k)``, ``k`` in *candidates*,
        that are not known yet, and return them: what is known drops out
        by one set difference against the head's row.  With *scratch*
        they are only marked in those row and column maps (DRed's
        over-delete)."""
        rows, cols = scratch or self._live
        known = rows[head][i]
        fresh = candidates - known
        if fresh:
            known |= fresh
            head_cols = cols[head]
            for k in fresh:
                head_cols[k].add(i)
            if scratch is None:
                self._fact_count += len(fresh)
                self._log_changes(head, i, fresh)
        return fresh

    def _join(self, nonterminal: Nonterminal, i: int, group: set[int],
              scratch: tuple[FactMaps, FactMaps] | None = None,
              ) -> Iterator[Entry]:
        """Join the popped row group ``(A, i, J)`` against the live fact
        maps, presence-only: as the left operand of ``H → A C`` one
        union over the rows ``j ∈ J`` of ``C``, as the right operand of
        ``H → B A`` the whole of ``J`` per source ``k`` in column ``i``
        of ``B``.  With ``B = H`` a new ``(H, k, i)`` adds ``k`` to the
        column being walked, which already holds it, so its size never
        changes."""
        for head, _right, right_rows in self._as_left[nonterminal]:
            reached = [right_rows[j] for j in group if j in right_rows]
            if reached:
                yield head, i, self._add(head, i, set().union(*reached),
                                         scratch)
        for head, _left, left_cols in self._as_right[nonterminal]:
            for k in left_cols.get(i, ()):
                yield head, k, self._add(head, k, group, scratch)

    def _seed(self, derivations: Iterable[tuple[Fact, Support]],
              ) -> Iterator[Entry]:
        """Record the derived facts, one row at a time."""
        rows: dict[tuple[Nonterminal, int], set[int]] = {}
        for (head, i, j), _support in derivations:
            rows.setdefault((head, i), set()).add(j)
        return ((head, i, self._add(head, i, targets))
                for (head, i), targets in rows.items())

    def _insert(self, derivations: Iterable[tuple[Fact, Support]]) -> None:
        """Record the derived facts and everything they entail."""
        self._propagated_facts += self._propagate(self._seed(derivations),
                                                  self._join)


class IncrementalSinglePathCFPQ(IncrementalCFPQ):
    """Incremental solver that also maintains Section-5 witness lengths,
    each in its fact's row: ``rows[A][i] = {j: l_A(i, j)}``.

    The initial solve runs the length-semiring closure
    (:func:`repro.core.semiring.solve_annotated`, as
    :func:`~repro.core.single_path.build_single_path_index` does) and
    adopts its closed matrices straight into the row dicts; a
    *warm_state* maps each non-terminal to a closed length matrix or
    its ``(i, j, length)`` cells, as :meth:`export_state` returns them.

    * :meth:`add_edges` runs the row-group worklist with a min-merge per
      element: a fact enters its pending set when new or when its
      recorded length *improves*.
    * :meth:`remove_edges` (inherited DRed) pops the over-deleted facts
      with their lengths and re-derives them from the surviving
      canonical lengths, so ``length_of`` equals a from-scratch
      :class:`~repro.core.single_path.SinglePathIndex` after every
      update (property-tested).
    """

    _ROW = dict

    def __init__(self, graph: LabeledGraph, grammar: CFG,
                 strategy: str | None = None,
                 warm_state: "dict | None" = None,
                 **strategy_options):
        super().__init__(graph, grammar, strategy=strategy,
                         warm_state=warm_state, **strategy_options)

    def _seed_from_engine(self) -> None:
        from .semiring import LENGTH_SEMIRING, solve_annotated
        result = solve_annotated(self.graph, self.grammar, LENGTH_SEMIRING,
                                 strategy=self.strategy, normalize=False,
                                 **self.strategy_options)
        self._initial_iterations = result.iterations
        self._seed_from_state({"facts": result.matrices})

    def _adopt(self, nonterminal: Nonterminal, relation) -> None:
        """Record one non-terminal's closed lengths, a length matrix's
        ``columns()`` or ``(i, j, length)`` cells, straight into the row
        dicts (:class:`~repro.errors.UnknownNodeError` off the graph)."""
        if isinstance(relation, BooleanMatrix):
            relation = zip(*relation.columns())
        row_map, col_map = self._rows[nonterminal], self._cols[nonterminal]
        for i, j, length in relation:
            row_map[i][j] = length
            col_map[j].add(i)
        ids = (*row_map, *col_map)
        if ids and not 0 <= min(ids) <= max(ids) < self.graph.node_count:
            raise UnknownNodeError(f"a {nonterminal} cell is off the graph")

    def export_state(self) -> dict:
        """The solver's closed state: ``{"facts": {A: {(i, j, l_A(i,
        j))}}}``, the inverse of the ``warm_state`` argument."""
        return {"facts": {nonterminal: set(cells) for nonterminal, cells
                          in self.length_cells().items() if cells}}

    def single_path_index(self) -> SinglePathView:
        """The live rows as a **view** for
        :func:`~repro.core.single_path.extract_path`: nothing is copied."""
        return SinglePathView(self.graph, self.grammar, self._rows,
                              self._derivations)

    def length_of(self, nonterminal: Nonterminal | str, source: Hashable,
                  target: Hashable) -> int | None:
        """The maintained witness length for ``(A, source, target)``, or
        None when the pair is not in ``R_A``."""
        i, j = self.graph.node_id(source), self.graph.node_id(target)
        return self._rows.get(as_nonterminal(nonterminal), {}).get(
            i, {}).get(j)

    def length_cells(self) -> dict[Nonterminal, list[tuple[int, int, int]]]:
        """``A -> [(i, j, l_A(i, j)), ...]`` for every non-terminal, in
        no order: a snapshot's ``length`` section before encoding."""
        return {nonterminal: [(i, j, length) for i, row in row_map.items()
                              for j, length in row.items()]
                for nonterminal, row_map in self._rows.items()}

    # ------------------------------------------------------------------
    # The worklist, with a min-refinement per element
    # ------------------------------------------------------------------
    def _forget(self, gone_rows: FactMaps, gone_cols: FactMaps) -> dict:
        """Pop the facts *gone_rows* from the rows, the columns (sets)
        as the relational solver does; returns ``{(A, i): {j: l}}``."""
        super()._forget({}, gone_cols)
        before: dict[tuple[Nonterminal, int], dict[int, int]] = {}
        for nonterminal, entries in gone_rows.items():
            index = self._rows[nonterminal]
            for i, targets in entries.items():
                row = index[i]
                before[nonterminal, i] = {j: row.pop(j) for j in targets}
                if not row:
                    del index[i]
        return before

    def _reannotated(self, before: dict) -> Iterable[Fact]:
        return [(nonterminal, i, j)
                for (nonterminal, i), lengths in before.items()
                for row in (self._rows[nonterminal].get(i, {}),)
                for j, length in lengths.items()
                if row.get(j, length) != length]

    def _record(self, head: Nonterminal, i: int, prefix: int,
                lengths: dict[int, int]) -> set[int]:
        """Lower the facts ``(head, i, k)`` to ``prefix + l`` for ``k:
        l`` in *lengths*, recording the new ones; returns the ``k`` that
        are new or whose length improved."""
        row = self._rows[head][i]
        entered: set[int] = set()
        fresh: list[int] = []
        for k, length in lengths.items():
            length += prefix
            known = row.get(k)
            if known is None:
                fresh.append(k)
            elif length >= known:
                continue
            row[k] = length
            entered.add(k)
        if fresh:
            head_cols = self._cols[head]
            for k in fresh:
                head_cols[k].add(i)
            self._fact_count += len(fresh)
        if entered:
            self._log_changes(head, i, entered)
        return entered

    def _join(self, nonterminal: Nonterminal, i: int, group: set[int],
              ) -> Iterator[Entry]:
        """The presence join's two directions, each operand's length read
        from the row the join walks and each sum applied to the head's
        row as it is formed.  A row joined with itself (``H → A H`` over
        ``(A, i, i)``) offers each of its facts at no less than the held
        length, so it is never written while it is walked."""
        own = self._rows[nonterminal][i]
        for head, _right, right_rows in self._as_left[nonterminal]:
            for j in group:
                targets = right_rows.get(j)
                if targets:
                    yield head, i, self._record(head, i, own[j], targets)
        for head, left, left_cols in self._as_right[nonterminal]:
            sources = left_cols.get(i)
            if sources:
                suffixes = {j: own[j] for j in group}
                left_rows = self._rows[left]
                for k in sources:
                    yield head, k, self._record(head, k, left_rows[k][i],
                                                suffixes)

    def _seed(self, derivations: Iterable[tuple[Fact, Support]],
              ) -> Iterator[Entry]:
        """Record the derived facts, one row at a time, each at its
        least length (a split's is the sum of its held operands')."""
        live, rows = self._rows, {}
        for (head, i, j), support in derivations:
            if support[0] == "split":
                _tag, left, right, r = support
                length = live[left][i][r] + live[right][r][j]
            else:
                length = 0 if support[0] == "empty" else 1
            row = rows.setdefault((head, i), {})
            if length < row.get(j, _UNREACHED):
                row[j] = length
        return ((head, i, self._record(head, i, 0, row))
                for (head, i), row in rows.items())
