"""The one-step derivations of a fact, read off the closed relations.

At the fixpoint of Algorithm 1 a fact ``(A, i, j)`` holds exactly when
it has a one-step derivation from the graph and the other facts:

* ``("empty",)`` — ``i == j`` and ``A`` was nullable before CNF (the
  empty path ``iπi``);
* ``("edge", x)`` — an edge ``(i, x, j)`` with a rule ``A → x``;
* ``("split", B, C, r)`` — a rule ``A → B C`` with ``(i, r) ∈ R_B`` and
  ``(r, j) ∈ R_C``, i.e. ``r ∈ rows[B][i] ∩ cols[C][j]``.

Nothing about a derivation has to be stored: the paper's §5 "simple
search" recovers a path from the closed matrices alone, and the
all-path parse forest is just as implicit — node ``(A, i, j)`` has
exactly these children.  :func:`one_step_derivations` is the single
reader of that structure; DRed re-derivation
(:mod:`repro.core.incremental`), the forest index
(:mod:`repro.core.path_index`) and single-path extraction
(:mod:`repro.core.single_path`) all go through it.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Iterable, Iterator, Mapping

from ..grammar.cfg import CFG
from ..grammar.symbols import Nonterminal
from ..graph.labeled_graph import LabeledGraph

#: A derived fact ``(A, i, j)`` by dense node ids.
Fact = tuple[Nonterminal, int, int]

#: One one-step derivation of a fact (see the module docstring).
Support = tuple

#: ``rows[A][i] = {j}`` (or ``cols[A][j] = {i}``) for facts ``(A, i, j)``:
#: the incremental solver's live ``defaultdict(set)`` maps, or
#: :func:`matrix_maps` over closed matrices.
FactMaps = dict[Nonterminal, "defaultdict[int, set[int]] | MatrixRows"]


def fact_maps(nonterminals: Iterable[Nonterminal]) -> FactMaps:
    """Empty row (or column) maps, one per non-terminal."""
    return {nonterminal: defaultdict(set) for nonterminal in nonterminals}


class MatrixRows:
    """The row map of one closed matrix, read in place: ``get(i)`` turns
    row ``i`` of *export*'s ``(indptr, indices)`` (a ``row_major()``
    export, taken on the first read) into a set of Python ints on its
    first read and keeps it."""

    __slots__ = ("_export", "_csr", "_memo")

    def __init__(self, export: Callable[[], tuple]):
        self._export, self._csr, self._memo = export, None, {}

    def get(self, i: int, default=None):
        row = self._memo.get(i)
        if row is None:
            if self._csr is None:
                indptr, indices = self._export()
                self._csr = indptr.tolist(), indices
            starts, indices = self._csr
            row = self._memo[i] = set(
                indices[starts[i]:starts[i + 1]].tolist())
        return row or default


def matrix_maps(nonterminals: Iterable[Nonterminal], matrices: Mapping,
                ) -> tuple[FactMaps, FactMaps]:
    """The ``(rows, cols)`` maps of closed ``matrices[A]`` read in place;
    a column map reads the transpose, a non-terminal without a matrix
    is empty."""
    rows: dict = {}
    cols: dict = {}
    for nonterminal in nonterminals:
        if nonterminal not in matrices:
            rows[nonterminal] = cols[nonterminal] = {}
            continue
        rows[nonterminal] = MatrixRows(
            lambda nt=nonterminal: matrices[nt].row_major())
        cols[nonterminal] = MatrixRows(
            lambda nt=nonterminal: matrices[nt].transpose().row_major())
    return rows, cols


def one_step_derivations(graph: LabeledGraph, grammar: CFG,
                         rows: FactMaps, cols: FactMaps,
                         ) -> Callable[[Fact], Iterator[Support]]:
    """Bind the derivation reader to *rows* / *cols*.

    The maps are read live on every call and never copied, so the
    returned function stays correct while their owner (the incremental
    solver) mutates them between calls.  The order is a function of the
    inputs alone: the empty path, then edges in grammar rule order,
    then splits sorted by ``(B.name, C.name, r)``.  A call iterates no
    live row, so the caller may record facts while consuming it.
    """
    nullable = grammar.nullable_diagonal
    labels_for_head: dict[Nonterminal, list[str]] = defaultdict(list)
    for rule in grammar.terminal_rules:
        labels_for_head[rule.head].append(rule.body[0].label)  # type: ignore[union-attr]
    # Each pair rule bound once to the two maps its join reads.
    bodies_for_head: dict[Nonterminal, list] = defaultdict(list)
    for rule in grammar.binary_rules:
        left, right = rule.body  # type: ignore[misc]
        bodies_for_head[rule.head].append(
            (left, right, rows[left], cols[right]))  # type: ignore[index]
    for bodies in bodies_for_head.values():
        bodies.sort(key=lambda body: (body[0].name, body[1].name))
    has_edge = graph.has_edge_id

    def derivations(fact: Fact) -> Iterator[Support]:
        nonterminal, i, j = fact
        if i == j and nonterminal in nullable:
            yield ("empty",)
        for label in labels_for_head.get(nonterminal, ()):
            if has_edge(i, label, j):
                yield ("edge", label)
        for left, right, left_rows, right_cols in \
                bodies_for_head.get(nonterminal, ()):
            midpoints = left_rows.get(i)
            if midpoints:
                for r in sorted(midpoints.intersection(right_cols.get(j, ()))):
                    yield ("split", left, right, r)

    return derivations
