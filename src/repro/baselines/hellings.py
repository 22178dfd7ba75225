"""Hellings-style worklist CFPQ baseline [11].

The classical cubic algorithm for context-free relations, predating the
matrix formulation: keep a worklist of derived facts ``(A, i, j)`` and
extend each one on both sides through every pair rule.  This is the
algorithm the paper's reduction re-expresses as a transitive closure,
so the two must produce identical relations — the cross-implementation
property tests rely on that.

The unit of work is a row group, not a single fact.  A derived fact is
recorded in ``rows[A][i]`` / ``cols[A][j]`` at once and enters exactly
one pending set ``pending[A][i]`` (the ``j`` recorded but not yet
joined); the queue holds ``(A, i)`` keys, enqueued only when their
pending set is created, so what a row gains before it is popped merges
into one set ``J``.  A pop joins all of ``J`` as the left operand of
``H → A C`` and as the right operand of ``H → B A``, and what the head
already holds drops out in one set difference.  Two facts that combine
always meet: when the later of the two is popped, the earlier one is
already in the maps.

Complexity is unchanged, O(|N|²·|V|³) worst case: grouping batches the
same joins, it skips none.  It stays an independent oracle for the
matrix engine — a fact-driven fixpoint on plain Python sets, sharing no
code with the matrix backends.
"""

from __future__ import annotations

from collections import defaultdict, deque
from functools import partial
from itertools import chain, repeat

from ..grammar.cfg import CFG
from ..grammar.cnf import ensure_cnf
from ..grammar.symbols import Nonterminal
from ..graph.labeled_graph import LabeledGraph
from ..core.relations import ContextFreeRelations


def solve_hellings(graph: LabeledGraph, grammar: CFG,
                   normalize: bool = True) -> ContextFreeRelations:
    """Compute every ``R_A`` with the worklist algorithm."""
    working_grammar = ensure_cnf(grammar) if normalize else grammar
    working_grammar.require_cnf("the Hellings baseline")

    # rows[A][i] = {j} and cols[A][j] = {i} for every fact (A, i, j):
    # symbols are interned, so a non-terminal addresses its two maps at
    # the price of a pointer and no (A, node) key is built per lookup.
    nonterminals = working_grammar.nonterminals
    rows: dict[Nonterminal, dict[int, set[int]]] = {
        nonterminal: defaultdict(set) for nonterminal in nonterminals}
    cols: dict[Nonterminal, dict[int, set[int]]] = {
        nonterminal: defaultdict(set) for nonterminal in nonterminals}

    # Base facts from terminal rules (Algorithm 1's initialization),
    # plus the empty-path diagonal for originally-nullable symbols.
    for nonterminal in working_grammar.nullable_diagonal:
        for i in range(graph.node_count):
            rows[nonterminal][i].add(i)
            cols[nonterminal][i].add(i)
    for i, label, j in graph.edges_by_id():
        for head in working_grammar.heads_for_label(label):
            rows[head][i].add(j)
            cols[head][j].add(i)
    # Pending sets are copies: one holds only what is still to join and
    # must not grow with the row set it was seeded from.
    pending: dict[Nonterminal, dict[int, set[int]]] = {
        nonterminal: {i: set(targets) for i, targets in row_map.items()}
        for nonterminal, row_map in rows.items()}
    queue: deque[tuple[Nonterminal, int]] = deque(
        (nonterminal, i) for nonterminal, row_pending in pending.items()
        for i in row_pending)

    # Pair rules indexed both ways, each bound once to the maps it
    # reads (the other operand's) and writes (the head's).
    as_left: dict[Nonterminal, list[tuple]] = {a: [] for a in nonterminals}
    as_right: dict[Nonterminal, list[tuple]] = {a: [] for a in nonterminals}
    for rule in working_grammar.binary_rules:
        head = rule.head
        left, right = rule.body  # type: ignore[misc]
        as_left[left].append((head, rows[head], cols[head], pending[head],
                              rows[right]))  # type: ignore[index]
        as_right[right].append((head, rows[head], cols[head], pending[head],
                                cols[left]))  # type: ignore[index]

    while queue:
        nonterminal, i = queue.popleft()
        joined = pending[nonterminal].pop(i)
        # The group as the LEFT part: H -> nonterminal C needs (C, j, k).
        for head, head_rows, head_cols, head_pending, right_rows in \
                as_left[nonterminal]:
            reached = [right_rows[j] for j in joined if j in right_rows]
            if not reached:
                continue
            fresh = set().union(*reached)
            known = head_rows[i]
            fresh -= known
            if fresh:
                known |= fresh
                for k in fresh:
                    head_cols[k].add(i)
                waiting = head_pending.get(i)
                if waiting is None:
                    head_pending[i] = fresh
                    queue.append((head, i))
                else:
                    waiting |= fresh
        # The group as the RIGHT part: H -> B nonterminal needs (B, k, i).
        # With B = H the loop writes cols[B][i] only to add the k it is
        # reading from it, so the set it walks never changes size.
        for head, head_rows, head_cols, head_pending, left_cols in \
                as_right[nonterminal]:
            sources = left_cols.get(i)
            if not sources:
                continue
            for k in sources:
                known = head_rows[k]
                fresh = joined - known
                if fresh:
                    known |= fresh
                    for j in fresh:
                        head_cols[j].add(k)
                    waiting = head_pending.get(k)
                    if waiting is None:
                        head_pending[k] = fresh
                        queue.append((head, k))
                    else:
                        waiting |= fresh

    return ContextFreeRelations(
        graph,
        {nonterminal: partial(_row_map_pairs, row_map)
         for nonterminal, row_map in rows.items()},
    )


def _row_map_pairs(row_map: dict[int, set[int]]):
    """The pairs ``(i, j)`` of one ``rows[A]`` map."""
    return chain.from_iterable(
        zip(repeat(i), targets) for i, targets in row_map.items())
