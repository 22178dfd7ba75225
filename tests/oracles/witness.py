"""The all-path forest with its children *enumerated*, not viewed.

The library's forest (:mod:`repro.core.path_index`) reads the children
of a node off the row/column maps of the closed relations through
:func:`~repro.core.path_index.one_step_derivations`.  This reference
computes them from scratch: the relations come from ``solve_naive``
(Algorithm 1 run literally), and the children of ``(A, i, j)`` are a
plain triple loop over them — every label ``x`` with ``A → x`` and
``(i, x, j) ∈ E``, and every ``(B, C, r)`` with ``A → B C``,
``(i, r) ∈ R_B`` and ``(r, j) ∈ R_C``.  Nothing here is shared with the
code under test except what sits *above* ``_children`` (k-best,
enumeration, the count DP).
"""

from __future__ import annotations

from collections import defaultdict

from repro.core.naive_closure import solve_naive
from repro.core.path_index import AllPathIndex
from repro.grammar.cnf import ensure_cnf


class NaiveForest(AllPathIndex):
    """A forest whose nodes' children are enumerated by brute force
    over Algorithm 1's pair sets."""

    def __init__(self, graph, grammar):
        relations = solve_naive(graph, grammar, normalize=False).relations
        self._pairs = {nonterminal: relations.pairs(nonterminal)
                       for nonterminal in grammar.nonterminals}
        rows = {nonterminal: defaultdict(set) for nonterminal in self._pairs}
        cols = {nonterminal: defaultdict(set) for nonterminal in self._pairs}
        for nonterminal, pairs in self._pairs.items():
            for i, j in pairs:
                rows[nonterminal][i].add(j)
                cols[nonterminal][j].add(i)
        super().__init__(graph, grammar, rows, cols)
        self._edges = set(graph.edges_by_id())

    def _children(self, nonterminal, i, j):
        labels = sorted(
            rule.body[0].label for rule in self.grammar.terminal_rules
            if rule.head == nonterminal
            and (i, rule.body[0].label, j) in self._edges)
        splits = sorted(
            ((left, right, r)
             for rule in self.grammar.binary_rules
             if rule.head == nonterminal
             for left, right in [rule.body]
             for r in range(self.graph.node_count)
             if (i, r) in self._pairs[left]
             and (r, j) in self._pairs[right]),
            key=lambda split: (split[0].name, split[1].name, split[2]))
        return labels, splits


def naive_forest(graph, grammar) -> NaiveForest:
    """The reference forest of *grammar* (normalized to CNF) on
    *graph*."""
    return NaiveForest(graph, ensure_cnf(grammar))
