"""Hellings-style worklist CFPQ baseline [11].

The classical cubic algorithm for context-free relations, predating the
matrix formulation: maintain a worklist of derived facts ``(A, i, j)``;
for each popped fact try to extend it on both sides through every pair
rule.  This is the algorithm the paper's reduction re-expresses as a
transitive closure, so the two must produce identical relations — the
cross-implementation property tests rely on that.

Complexity: O(|N|²·|V|³) worst case, with small constants; usually the
strongest pure-Python baseline on small graphs, which matches the
paper's observation that the GLL baseline wins on the small ontologies
and loses on the large g1–g3 graphs.
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
    worklist: deque[tuple[Nonterminal, int, int]] = deque(
        (nonterminal, i, j) for nonterminal, row_map in rows.items()
        for i, targets in row_map.items() for j in targets)

    # Pair rules indexed both ways, each bound once to the maps it
    # reads (the other operand's) and writes (the head's).
    as_left: dict[Nonterminal, list[tuple]] = {a: [] for a in nonterminals}
    as_right: dict[Nonterminal, list[tuple]] = {a: [] for a in nonterminals}
    for rule in working_grammar.binary_rules:
        head = rule.head
        left, right = rule.body  # type: ignore[misc]
        as_left[left].append((head, rows[head], cols[head], rows[right]))  # type: ignore[index]
        as_right[right].append((head, rows[head], cols[head], cols[left]))  # type: ignore[index]

    while worklist:
        nonterminal, i, j = worklist.popleft()
        # Popped fact as the LEFT part: A -> nonterminal C needs (C, j, k).
        # Consequences the head already holds drop out in one set
        # difference against its row, before any per-fact work.
        for head, head_rows, head_cols, right_rows in as_left[nonterminal]:
            targets = right_rows.get(j)
            if targets:
                known = head_rows[i]
                fresh = targets - known
                if fresh:
                    known |= fresh
                    for k in fresh:
                        head_cols[k].add(i)
                    worklist.extend([(head, i, k) for k in fresh])
        # Popped fact as the RIGHT part: A -> B nonterminal needs (B, k, i).
        for head, head_rows, head_cols, left_cols in as_right[nonterminal]:
            sources = left_cols.get(i)
            if sources:
                known = head_cols[j]
                fresh = sources - known
                if fresh:
                    known |= fresh
                    for k in fresh:
                        head_rows[k].add(j)
                    worklist.extend([(head, k, j) for k in fresh])

    return ContextFreeRelations(
        graph,
        {nonterminal: partial(_row_map_pairs, row_map)
         for nonterminal, row_map in rows.items()},
    )


def _row_map_pairs(row_map: dict[int, set[int]]):
    """The pairs ``(i, j)`` of one ``rows[A]`` map."""
    return chain.from_iterable(
        zip(repeat(i), targets) for i, targets in row_map.items())
