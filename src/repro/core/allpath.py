"""All-path query semantics, bounded (paper §7 future work), on the
semiring-generalized closure engine.

The all-path semantics must present **all** paths for every triple
``(A, m, n)``.  On cyclic graphs that set is infinite (the paper cites
Hellings' annotated grammars as one fix); the tractable variant we
implement enumerates all paths **up to a length bound**:

    paths(A, i, j, ≤L) =
        { (i,x,j) | (A → x) ∈ P, (i,x,j) ∈ E }                    (L ≥ 1)
      ∪ { p1 ++ p2 | (A → B C) ∈ P, r ∈ V,
                     p1 ∈ paths(B, i, r, =l1), p2 ∈ paths(C, r, j, =l2),
                     l1 + l2 ≤ L }

The candidate rules ``(A → B C, r)`` per triple are the one-step
derivations of the fact ``(A, i, j)`` — at the fixpoint of the boolean
closure, every ``r`` with ``(i, r) ∈ R_B`` and ``(r, j) ∈ R_C`` (the
paper's "midpoint index" reading of §7, recovered from the closed
relations on demand).  :class:`AllPathEnumerator` therefore wraps
:class:`repro.core.path_index.AllPathIndex` — that view of the
relations as a parse forest — and enumerates from it by *exact* path
length, which strictly decreases at every split: termination on cyclic
graphs is structural, not guarded by a memo (the pre-semiring recursive
enumerator seeded its memo with partial results and could return
incomplete path sets when re-entered on a cycle).

The relational projection of the bounded answer converges to ``R_A`` as
L grows (test-checked), which is how the module doubles as an
independent oracle for small graphs.
"""

from __future__ import annotations

from typing import Hashable, Iterator

from ..grammar.cfg import CFG
from ..grammar.cnf import ensure_cnf
from ..grammar.symbols import Nonterminal
from ..graph.labeled_graph import LabeledGraph
from .path_index import AllPathIndex
from .single_path import Path


class AllPathEnumerator:
    """Enumerates all derivation paths up to a length bound.

    Built on the boolean closure: construction runs it once (any
    *strategy*: ``delta`` default, ``naive``, ``blocked``) unless a
    forest *index* over already-solved relations is handed in;
    enumeration walks the forest view of the relations.
    """

    def __init__(self, graph: LabeledGraph, grammar: CFG,
                 normalize: bool = True, strategy: str | None = None,
                 index: AllPathIndex | None = None,
                 **strategy_options):
        self.graph = graph
        self.grammar = ensure_cnf(grammar) if normalize else grammar
        self.grammar.require_cnf("all-path enumeration")
        self.index = index if index is not None else AllPathIndex.build(
            graph, self.grammar, strategy=strategy, **strategy_options
        )

    def paths(self, nonterminal: Nonterminal | str, source: Hashable,
              target: Hashable, max_length: int) -> frozenset[Path]:
        """All paths ``source π target`` with ``A ⇒* l(π)`` and
        ``|π| ≤ max_length``."""
        return frozenset(
            self.index.iter_paths(nonterminal, source, target, max_length)
        )

    def relation_pairs(self, nonterminal: Nonterminal | str,
                       max_length: int) -> frozenset[tuple[int, int]]:
        """Pairs (i, j) with at least one bounded path — converges to
        ``R_A`` as *max_length* grows.

        A pair qualifies iff its minimal witness length fits the bound,
        so this reads the forest's shortest-witness lengths instead of
        enumerating.
        """
        nonterminal = self.grammar.resolve_nonterminal(nonterminal)
        node_at = self.graph.node_at
        return frozenset(
            (i, j) for i, j in self.index.relations.pairs(nonterminal)
            if (shortest := self.index.shortest_path_length(
                nonterminal, node_at(i), node_at(j))) is not None
            and shortest <= max_length)

    def iter_paths(self, nonterminal: Nonterminal | str, max_length: int,
                   ) -> Iterator[tuple[int, int, Path]]:
        """Yield every (i, j, path) with ``|path| ≤ max_length``."""
        for i in range(self.graph.node_count):
            for j in range(self.graph.node_count):
                bounded = self.paths(nonterminal, self.graph.node_at(i),
                                     self.graph.node_at(j), max_length)
                for path in sorted(bounded):
                    yield (i, j, path)


def count_paths(graph: LabeledGraph, grammar: CFG,
                nonterminal: Nonterminal | str, max_length: int) -> int:
    """Total number of bounded derivation paths across all node pairs."""
    enumerator = AllPathEnumerator(graph, grammar)
    return sum(
        1 for _i, _j, _path in enumerator.iter_paths(nonterminal, max_length)
    )
