"""Query results: the context-free relations ``R_A``.

The paper defines ``R_A = {(n, m) | ∃ nπm, l(π) ∈ L(G_A)}`` and the
relational query semantics returns the triples ``(A, m, n)``.
:class:`ContextFreeRelations` is the result object every solver in this
library produces, so engines and baselines are interchangeable and
directly comparable in tests.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import Callable, Hashable, Iterable, Iterator, Mapping

from ..grammar.symbols import Nonterminal, as_nonterminal
from ..graph.labeled_graph import LabeledGraph

#: A node pair, by dense node id.
IdPair = tuple[int, int]


def row_map_pairs(row_map: Mapping[int, Iterable[int]]) -> Iterator[IdPair]:
    """The pairs ``(i, j)`` of one row map ``rows[A] = {i: {j}}``."""
    return chain.from_iterable(
        zip(repeat(i), targets) for i, targets in row_map.items())


class ContextFreeRelations:
    """All relations ``R_A`` of one query evaluation over one graph.

    Node pairs are stored by dense node id; presentation methods map
    them back through the graph's node enumeration.

    A relation is given as an iterable of pairs or as a zero-argument
    callable producing one; the callable runs on the first read of its
    symbol (``pairs`` and everything built on it), so a solver that
    closed seven matrices for a caller who reads ``R_S`` materializes
    one pair set, not seven.
    """

    __slots__ = ("_graph", "_relations")

    def __init__(self, graph: LabeledGraph,
                 relations: Mapping[
                     Nonterminal,
                     "Iterable[IdPair] | Callable[[], Iterable[IdPair]]"]):
        self._graph = graph
        self._relations: dict = {
            nonterminal: pairs if callable(pairs) else frozenset(pairs)
            for nonterminal, pairs in relations.items()
        }

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

    def pairs(self, nonterminal: Nonterminal | str) -> frozenset[IdPair]:
        """``R_A`` as dense-id pairs (empty when nothing was derived)."""
        nonterminal = as_nonterminal(nonterminal)
        pairs = self._relations.get(nonterminal, frozenset())
        if callable(pairs):
            pairs = self._relations[nonterminal] = frozenset(pairs())
        return pairs

    def node_pairs(self, nonterminal: Nonterminal | str,
                   ) -> frozenset[tuple[Hashable, Hashable]]:
        """``R_A`` as original node objects."""
        return frozenset(
            (self._graph.node_at(i), self._graph.node_at(j))
            for i, j in self.pairs(nonterminal)
        )

    def contains(self, nonterminal: Nonterminal | str, source: Hashable,
                 target: Hashable) -> bool:
        """Membership test ``(source, target) ∈ R_A`` by node object."""
        pair = (self._graph.node_id(source), self._graph.node_id(target))
        return pair in self.pairs(nonterminal)

    def count(self, nonterminal: Nonterminal | str) -> int:
        """``|R_A|`` — the paper's ``#results`` column."""
        return len(self.pairs(nonterminal))

    def triples(self) -> Iterator[tuple[Nonterminal, int, int]]:
        """All result triples ``(A, m, n)`` — the relational semantics
        answer as defined in the paper's introduction."""
        for nonterminal in sorted(self._relations, key=lambda nt: nt.name):
            for i, j in sorted(self.pairs(nonterminal)):
                yield (nonterminal, i, j)

    def restrict_to(self, nonterminals: Iterable[Nonterminal | str],
                    ) -> "ContextFreeRelations":
        """Keep only the requested relations (e.g. original grammar
        non-terminals, hiding CNF helper symbols)."""
        wanted = {as_nonterminal(nt) for nt in nonterminals}
        return ContextFreeRelations(
            self._graph,
            {nt: pairs for nt, pairs in self._relations.items() if nt in wanted},
        )

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

    def as_dict(self) -> dict[str, list[IdPair]]:
        """JSON-friendly form: name -> sorted pair list."""
        return {
            nt.name: sorted(self.pairs(nt))
            for nt in sorted(self._relations, key=lambda nt: nt.name)
        }

    def __repr__(self) -> str:
        sizes = ", ".join(
            f"{nt.name}:{len(self.pairs(nt))}"
            for nt in sorted(self._relations, key=lambda nt: nt.name)
        )
        return f"ContextFreeRelations({sizes})"

