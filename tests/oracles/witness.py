"""The witness-semiring closure: the all-path forest, *stored*.

Until the forest became a view of the closed relations
(:mod:`repro.core.path_index`), ``AllPathIndex.build`` ran the closure
engine over this semiring and kept every cell's midpoint index.  It
survives here solely as the reference for "view == closure-built
forest": :func:`forest_from_witness_closure` closes under
:class:`WitnessSemiring` and serves the *stored* children through the
same enumeration machinery the view uses.

The semiring is registered when this module is imported — at
collection time, before any ``process`` tile-scheduler pool forks — so
workers resolve it by name.
"""

from __future__ import annotations

from repro.core.path_index import AllPathIndex
from repro.core.relations import ContextFreeRelations
from repro.core.semiring import Semiring, register_semiring, solve_annotated
from repro.grammar.cnf import ensure_cnf


class WitnessSemiring(Semiring):
    """All-path semantics: the annotation is the cell's midpoint index.

    A value is a frozenset of entries — every terminal edge
    ``("edge", label)``, the empty path ``("empty",)`` and every binary
    split ``("split", left, right, midpoint)`` that derives the cell.
    ⊕ and ``merge`` are set union (monotone and finite, so every
    strategy terminates at the complete index).  ⊗ emits the firing
    rule's provenance and never reads the operand sets.
    """

    name = "witness"

    def identity(self, label: str | None = None) -> frozenset:
        if label is None:
            return frozenset()
        return frozenset({("edge", label)})

    def empty_path(self) -> frozenset:
        return frozenset({("empty",)})

    def multiply(self, left, right, midpoint: int, left_symbol,
                 right_symbol) -> frozenset:
        return frozenset({("split", left_symbol, right_symbol, midpoint)})

    def add(self, left: frozenset, right: frozenset) -> frozenset:
        return left | right

    def merge(self, existing: frozenset,
              incoming: frozenset) -> tuple[frozenset, bool]:
        if incoming <= existing:
            return existing, False
        return existing | incoming, True


WITNESS_SEMIRING = register_semiring(WitnessSemiring())


class ClosureBuiltForest(AllPathIndex):
    """A forest whose nodes' children were *computed by the closure*
    and stored, not derived on demand; everything above ``_children``
    (k-best, enumeration, the count DP) is the code under test."""

    def __init__(self, graph, grammar, matrices: dict):
        super().__init__(graph, grammar, ContextFreeRelations(graph, {
            nonterminal: set(matrix.nonzero_pairs())
            for nonterminal, matrix in matrices.items()
        }))
        self._stored: dict = {}
        for nonterminal, matrix in matrices.items():
            for i, j, witnesses in matrix.nonzero_cells():
                labels = sorted(entry[1] for entry in witnesses
                                if entry[0] == "edge")
                splits = sorted(
                    (entry[1:] for entry in witnesses
                     if entry[0] == "split"),
                    key=lambda split: (split[0].name, split[1].name,
                                       split[2]))
                self._stored[(nonterminal, i, j)] = (labels, splits)

    def _children(self, nonterminal, i, j):
        return self._stored.get((nonterminal, i, j), ([], []))


def forest_from_witness_closure(graph, grammar, strategy=None,
                                **strategy_options) -> ClosureBuiltForest:
    """Close under the witness semiring and wrap the stored forest."""
    cnf = ensure_cnf(grammar)
    result = solve_annotated(graph, cnf, WITNESS_SEMIRING,
                             strategy=strategy, normalize=False,
                             **strategy_options)
    return ClosureBuiltForest(graph, cnf, result.matrices)
