"""Derivation counting on set-valued cells: the differential reference
of :class:`repro.core.semiring.CountingSemiring`.

The library counts on plain saturating ints under a Kleene loop.  This
is the algebra it replaced, kept because it reaches the same totals by
an entirely different route: ⊕ is made *idempotent* by keying every
count on the one-step derivation it came through, so the semi-naive
worklist strategies of ``run_closure`` may re-merge a product without
double-counting, and a cell's total is only summed on the way out.
"""

from __future__ import annotations

from repro.core.semiring import (
    DEFAULT_COUNTING_CAP,
    Semiring,
    solve_annotated,
)


class CountingSetsSemiring(Semiring):
    """A cell's annotation is a frozenset of ``(entry, count)`` pairs:
    one entry per one-step derivation of the cell (the
    ``("edge", label)`` / ``("empty",)`` / ``("split", B, C, r)`` shapes
    of :mod:`repro.core.derivations`) mapped to the number of distinct
    derivation trees routed through it, saturating at ``cap``.

    ⊗ emits one ``split`` entry whose count is the saturating product of
    the operand totals; ⊕ and ``merge`` take the per-entry maximum.
    Candidates inside one product carry distinct midpoints, so the
    per-entry max is a disjoint union there; across rounds an entry's
    recomputed count only grows, so max is the monotone confluent merge.
    """

    def __init__(self, cap: int = DEFAULT_COUNTING_CAP):
        self.cap = cap
        self.name = f"counting-sets[{cap}]"

    def _saturate(self, value: int) -> int:
        return value if value < self.cap else self.cap

    def count(self, value: frozenset) -> int:
        """Total derivation count of a cell (saturating sum over its
        entries)."""
        total = 0
        for _entry, entry_count in value:
            total = self._saturate(total + entry_count)
        return total

    def identity(self, label: str | None = None) -> frozenset:
        return frozenset({(("edge", label), 1)})

    def empty_path(self) -> frozenset:
        return frozenset({(("empty",), 1)})

    def multiply(self, left, right, midpoint: int, left_symbol,
                 right_symbol) -> frozenset:
        trees = self._saturate(self.count(left) * self.count(right))
        return frozenset(
            {(("split", left_symbol, right_symbol, midpoint), trees)})

    def add(self, left: frozenset, right: frozenset) -> frozenset:
        merged = dict(left)
        for entry, entry_count in right:
            if entry_count > merged.get(entry, 0):
                merged[entry] = entry_count
        return frozenset(merged.items())

    def merge(self, existing: frozenset,
              incoming: frozenset) -> tuple[frozenset, bool]:
        merged = self.add(existing, incoming)
        return merged, merged != existing


def closed_cells(result) -> dict:
    """``(nonterminal, i, j) -> annotation`` of a closure result."""
    return {
        (nonterminal, i, j): value
        for nonterminal, matrix in result.matrices.items()
        for i, j, value in matrix.nonzero_cells()
    }


def entry_sets(graph, grammar, cap: int = DEFAULT_COUNTING_CAP) -> dict:
    """``(nonterminal, i, j) -> frozenset of (entry, count)`` at the
    fixpoint of the set-valued closure (CNF *grammar*)."""
    return closed_cells(solve_annotated(
        graph, grammar, CountingSetsSemiring(cap), normalize=False))


def derivation_counts(graph, grammar,
                      cap: int = DEFAULT_COUNTING_CAP) -> dict:
    """``(nonterminal, i, j) -> saturating derivation count``."""
    semiring = CountingSetsSemiring(cap)
    return {cell: semiring.count(value)
            for cell, value in entry_sets(graph, grammar, cap).items()}
