"""Query results: the context-free relations ``R_A``.

The paper defines ``R_A = {(n, m) | ∃ nπm, l(π) ∈ L(G_A)}`` and the
relational query semantics returns the triples ``(A, m, n)``.
:class:`ContextFreeRelations` is the result object every solver in this
library produces, so engines and baselines are interchangeable and
directly comparable in tests.
"""

from __future__ import annotations

from itertools import chain, pairwise, repeat
from typing import Callable, Hashable, Iterable, Iterator, Mapping

from ..grammar.symbols import Nonterminal, as_nonterminal
from ..graph.labeled_graph import LabeledGraph
from ..matrices.base import BooleanMatrix

#: A node pair, by dense node id.
IdPair = tuple[int, int]


def row_map_pairs(row_map: Mapping[int, Iterable[int]]) -> Iterator[IdPair]:
    """The pairs ``(i, j)`` of one row map ``rows[A] = {i: {j}}``."""
    return chain.from_iterable(
        zip(repeat(i), targets) for i, targets in row_map.items())


def relation_rows(source) -> Iterable[tuple[int, Iterable[int]]]:
    """The rows ``(i, targets)`` of a matrix, a row map or a pair set."""
    if isinstance(source, BooleanMatrix):
        indptr, indices = (part.tolist() for part in source.row_major())
        return ((i, indices[start:stop]) for i, (start, stop)
                in enumerate(pairwise(indptr)) if start != stop)
    if isinstance(source, Mapping):
        return source.items()
    rows: dict[int, list[int]] = {}
    for i, j in source:
        rows.setdefault(i, []).append(j)
    return rows.items()


class ContextFreeRelations:
    """All relations ``R_A`` of one query evaluation over one graph.

    Node pairs are stored by dense node id; presentation methods map
    them back through the graph's node enumeration.  Each relation is
    kept as its solver closed it — a matrix, a row map ``{i: {j}}``
    (read live by every method) or an iterable of pairs — or as a
    zero-argument callable producing pairs, run on the first read of its
    symbol.  :meth:`rows` reads any of them without building a pair set.
    """

    __slots__ = ("_graph", "_relations", "_pair_sets")

    def __init__(self, graph: LabeledGraph, relations: Mapping[
            Nonterminal, "BooleanMatrix | Mapping | Iterable | Callable"]):
        self._graph = graph
        self._relations: dict = {
            nonterminal: pairs
            if callable(pairs) or isinstance(pairs, (BooleanMatrix, Mapping))
            else frozenset(pairs)
            for nonterminal, pairs in relations.items()
        }
        self._pair_sets: dict = {}

    # ------------------------------------------------------------------
    # Core accessors
    # ------------------------------------------------------------------
    @property
    def graph(self) -> LabeledGraph:
        """The queried graph."""
        return self._graph

    @property
    def nonterminals(self) -> frozenset[Nonterminal]:
        """Non-terminals with a (possibly empty) recorded relation."""
        return frozenset(self._relations)

    def _source(self, nonterminal: Nonterminal | str):
        """The matrix, row map or pair set kept for *nonterminal*."""
        nonterminal = as_nonterminal(nonterminal)
        source = self._relations.get(nonterminal, frozenset())
        if callable(source):
            source = self._relations[nonterminal] = frozenset(source())
        return source

    def rows(self, nonterminal: Nonterminal | str,
             ) -> Iterable[tuple[int, Iterable[int]]]:
        """``R_A`` as ``(i, targets of i)`` node ids, rows in no fixed
        order: what the printed answers read."""
        return relation_rows(self._source(nonterminal))

    def pairs(self, nonterminal: Nonterminal | str) -> frozenset[IdPair]:
        """``R_A`` as dense-id pairs (empty when nothing was derived).
        A row map may be a solver's live state, so its pairs are built
        on every call; a matrix's on the first call, then kept."""
        nonterminal = as_nonterminal(nonterminal)
        pairs = self._pair_sets.get(nonterminal)
        if pairs is None:
            source = self._source(nonterminal)
            if isinstance(source, Mapping):
                return frozenset(row_map_pairs(source))
            pairs = self._pair_sets[nonterminal] = frozenset(
                source.to_pair_set() if isinstance(source, BooleanMatrix)
                else source)
        return pairs

    def node_pairs(self, nonterminal: Nonterminal | str,
                   ) -> frozenset[tuple[Hashable, Hashable]]:
        """``R_A`` as original node objects."""
        node = self._graph.nodes.__getitem__
        source = self._source(nonterminal)
        if isinstance(source, frozenset):  # no rows to group pairs into
            return frozenset((node(i), node(j)) for i, j in source)
        return frozenset(chain.from_iterable(
            zip(repeat(node(i)), map(node, targets))
            for i, targets in relation_rows(source)))

    def contains(self, nonterminal: Nonterminal | str, source: Hashable,
                 target: Hashable) -> bool:
        """Membership test ``(source, target) ∈ R_A`` by node object:
        one cell of the kept matrix, one row of a row map (read live)."""
        i, j = self._graph.node_id(source), self._graph.node_id(target)
        relation = self._source(nonterminal)
        if isinstance(relation, BooleanMatrix):
            return relation[i, j]
        if isinstance(relation, Mapping):
            return j in relation.get(i, ())
        return (i, j) in relation

    def count(self, nonterminal: Nonterminal | str) -> int:
        """``|R_A|`` — the paper's ``#results`` column."""
        source = self._source(nonterminal)
        if isinstance(source, BooleanMatrix):
            return source.nnz()
        if isinstance(source, Mapping):
            return sum(map(len, source.values()))
        return len(source)

    def triples(self) -> Iterator[tuple[Nonterminal, int, int]]:
        """All result triples ``(A, m, n)`` — the relational semantics
        answer as defined in the paper's introduction."""
        for nonterminal in sorted(self._relations, key=lambda nt: nt.name):
            for i, j in sorted(self.pairs(nonterminal)):
                yield (nonterminal, i, j)

    # ------------------------------------------------------------------
    # Comparisons (used throughout the cross-implementation tests)
    # ------------------------------------------------------------------
    def same_as(self, other: "ContextFreeRelations",
                nonterminals: Iterable[Nonterminal | str] | None = None) -> bool:
        """Equality of relations, optionally restricted to a symbol set.

        When *nonterminals* is None, compares every non-terminal known to
        either side (missing means empty).
        """
        if nonterminals is None:
            names = self.nonterminals | other.nonterminals
        else:
            names = {as_nonterminal(nt) for nt in nonterminals}
        return all(self.pairs(nt) == other.pairs(nt) for nt in names)

    def diff(self, other: "ContextFreeRelations",
             nonterminal: Nonterminal | str) -> tuple[frozenset[IdPair], frozenset[IdPair]]:
        """(only-here, only-there) pair sets for one non-terminal —
        handy when a cross-implementation test fails."""
        mine = self.pairs(nonterminal)
        theirs = other.pairs(nonterminal)
        return (mine - theirs, theirs - mine)

    def __repr__(self) -> str:
        sizes = ", ".join(
            f"{nt.name}:{self.count(nt)}"
            for nt in sorted(self._relations, key=lambda nt: nt.name)
        )
        return f"ContextFreeRelations({sizes})"

