"""Hellings-style worklist CFPQ baseline [11].

The classical cubic algorithm for context-free relations, predating the
matrix formulation: keep a worklist of derived facts ``(A, i, j)`` and
extend each one on both sides through every pair rule.  This is the
algorithm the paper's reduction re-expresses as a transitive closure,
so the two must produce identical relations — the cross-implementation
property tests rely on that.

The unit of work is a row group, not a single fact.  A derived fact is
recorded in ``rows[A][i]`` at once and enters exactly one pending set
``pending[A][i]`` (the ``j`` recorded but not yet joined); the queue
holds ``(A, i)`` keys, enqueued only when their pending set is created,
so what a row gains before it is popped merges into one set ``J``.  A
pop joins all of ``J`` as the left operand of ``H → A C`` and as the
right operand of ``H → B A``, and what the head already holds drops out
in one set difference.  Two facts that combine always meet: when the
later of the two is popped, the earlier one is already in the maps.

Joins run only from an operand that can still grow.  A non-terminal
that heads no pair rule is *static*: every fact of it is a base fact,
recorded before the first pop.  For ``H → B C`` with a static ``C``,
every pop of ``B`` already meets all of ``C``, so ``C``'s rows join
nothing as a right operand and ``cols`` — which only that join reads —
is kept just for the left operands of rules whose right operand is
derived.

Complexity is unchanged, O(|N|²·|V|³) worst case: grouping batches the
same joins, and the joins skipped are exactly the ones that cannot
find a new pair.  It stays an independent oracle for the matrix engine
— a fact-driven fixpoint on plain Python sets, sharing no code with the
matrix backends.
"""

from __future__ import annotations

from collections import defaultdict, deque

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
    pair_rules = [(rule.head, *rule.body)
                  for rule in working_grammar.binary_rules]
    derived = {head for head, _left, _right in pair_rules}

    # rows[A][i] = {j} for every fact (A, i, j), and cols[A][j] = {i}
    # for the left operands of rules whose right operand is derived:
    # symbols are interned, so a non-terminal addresses its maps at the
    # price of a pointer and no (A, node) key is built per lookup.
    nonterminals = working_grammar.nonterminals
    rows: dict[Nonterminal, dict[int, set[int]]] = {
        nonterminal: defaultdict(set) for nonterminal in nonterminals}
    cols: dict[Nonterminal, dict[int, set[int]]] = {
        left: defaultdict(set) for _head, left, right in pair_rules
        if right in derived}

    # Base facts from terminal rules (Algorithm 1's initialization),
    # plus the empty-path diagonal for originally-nullable symbols.
    for nonterminal in working_grammar.nullable_diagonal:
        for i in range(graph.node_count):
            rows[nonterminal][i].add(i)
            if nonterminal in cols:
                cols[nonterminal][i].add(i)
    for label in sorted(graph.labels):
        heads = working_grammar.heads_for_label(label)
        pairs = graph.edge_pairs(label) if heads else ()
        for head in heads:
            head_rows = rows[head]
            for i, j in pairs:
                head_rows[i].add(j)
            if head in cols:
                head_cols = cols[head]
                for i, j in pairs:
                    head_cols[j].add(i)
    # Pending sets are copies: one holds only what is still to join and
    # must not grow with the row set it was seeded from.
    pending: dict[Nonterminal, dict[int, set[int]]] = {
        nonterminal: {i: set(targets) for i, targets in row_map.items()}
        for nonterminal, row_map in rows.items()}
    queue: deque[tuple[Nonterminal, int]] = deque(
        (nonterminal, i) for nonterminal, row_pending in pending.items()
        for i in row_pending)

    # Pair rules indexed both ways, each bound once to the maps it
    # reads (the other operand's) and writes (the head's; None for a
    # head whose columns no join reads).
    as_left: dict[Nonterminal, list[tuple]] = {a: [] for a in nonterminals}
    as_right: dict[Nonterminal, list[tuple]] = {a: [] for a in nonterminals}
    for head, left, right in pair_rules:
        as_left[left].append((head, rows[head], cols.get(head),
                              pending[head], rows[right]))
        if right in derived:
            as_right[right].append((head, rows[head], cols.get(head),
                                    pending[head], cols[left]))

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
                if head_cols is not None:
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
                    if head_cols is not None:
                        for j in fresh:
                            head_cols[j].add(k)
                    waiting = head_pending.get(k)
                    if waiting is None:
                        head_pending[k] = fresh
                        queue.append((head, k))
                    else:
                        waiting |= fresh

    return ContextFreeRelations(graph, rows)
