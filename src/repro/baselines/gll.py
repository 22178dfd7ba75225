"""GLL-style top-down CFPQ baseline [9].

Grigorev & Ragozina evaluate CFPQ with a generalized top-down (GLL)
parser driven by *descriptors* — (grammar slot, graph position, call
origin) triples, deduplicated so each is processed once.  This module
implements the same descriptor discipline on graphs:

* a **call** is ``(A, i)`` — "derive A along some path starting at i";
* a **descriptor** is ``(head, origin, body, dot, node)`` — progress of
  one production body through the graph;
* calls are memoized and cyclic/left-recursive grammars are handled by
  *subscription*: a descriptor paused at a non-terminal subscribes to
  the callee's result set and is resumed for every result discovered
  later (the role the GSS plays in GLL).

Unlike the matrix engine this baseline consumes the **original**
grammar: no CNF transformation, ε-rules and long bodies are processed
directly, matching how the paper's F# GLL baseline consumes queries.
"""

from __future__ import annotations

from collections import defaultdict, deque
from functools import partial
from typing import Iterable

from ..core.relations import ContextFreeRelations
from ..grammar.cfg import CFG
from ..grammar.symbols import Nonterminal, Symbol, Terminal, as_nonterminal
from ..graph.labeled_graph import LabeledGraph

#: A paused/running production traversal.
_Descriptor = tuple[Nonterminal, int, tuple[Symbol, ...], int, int]


class GLLSolver:
    """Descriptor-driven top-down CFPQ evaluation."""

    def __init__(self, graph: LabeledGraph, grammar: CFG):
        self.graph = graph
        self.grammar = grammar
        # successors by label: (node, label) -> [targets]
        self._successors: dict[tuple[int, str], list[int]] = defaultdict(list)
        for i, label, j in graph.edges_by_id():
            self._successors[(i, label)].append(j)

        self._results: dict[tuple[Nonterminal, int], set[int]] = {}
        self._subscribers: dict[tuple[Nonterminal, int], list[_Descriptor]] = \
            defaultdict(list)
        self._seen: set[_Descriptor] = set()
        self._pending: deque[_Descriptor] = deque()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def reachable_from(self, start: Nonterminal, origin: int) -> frozenset[int]:
        """All nodes j with a path ``origin π j`` and ``start ⇒* l(π)``."""
        self._demand_call(start, origin)
        self._run()
        return frozenset(self._results.get((start, origin), ()))

    def close(self, start: Nonterminal) -> None:
        """Run every descriptor ``R_start`` depends on, from all origins."""
        for origin in range(self.graph.node_count):
            self._demand_call(start, origin)
        self._run()

    def relation(self, start: Nonterminal) -> frozenset[tuple[int, int]]:
        """``R_start`` over all origins."""
        self.close(start)
        return frozenset(
            (origin, j)
            for origin in range(self.graph.node_count)
            for j in self._results.get((start, origin), ())
        )

    # ------------------------------------------------------------------
    # Engine
    # ------------------------------------------------------------------
    def _demand_call(self, nonterminal: Nonterminal, origin: int) -> None:
        key = (nonterminal, origin)
        if key in self._results:
            return
        self._results[key] = set()
        for production in self.grammar.productions_for(nonterminal):
            self._schedule((nonterminal, origin, production.body, 0, origin))

    def _schedule(self, descriptor: _Descriptor) -> None:
        if descriptor not in self._seen:
            self._seen.add(descriptor)
            self._pending.append(descriptor)

    def _record_result(self, nonterminal: Nonterminal, origin: int,
                       node: int) -> None:
        key = (nonterminal, origin)
        results = self._results.setdefault(key, set())
        if node in results:
            return
        results.add(node)
        # Resume every descriptor paused on this call.
        for head, sub_origin, body, dot, _paused_node in self._subscribers[key]:
            self._schedule((head, sub_origin, body, dot + 1, node))

    def _run(self) -> None:
        while self._pending:
            head, origin, body, dot, node = self._pending.popleft()
            if dot == len(body):
                self._record_result(head, origin, node)
                continue
            symbol = body[dot]
            if isinstance(symbol, Terminal):
                for target in self._successors.get((node, symbol.label), ()):
                    self._schedule((head, origin, body, dot + 1, target))
            else:
                key = (symbol, node)
                self._subscribers[key].append((head, origin, body, dot, node))
                self._demand_call(symbol, node)
                for result_node in list(self._results.get(key, ())):
                    self._schedule((head, origin, body, dot + 1, result_node))

    # ------------------------------------------------------------------
    # Introspection (benchmark reporting)
    # ------------------------------------------------------------------
    @property
    def descriptor_count(self) -> int:
        """Distinct descriptors processed — the GLL work measure."""
        return len(self._seen)


def solve_gll(graph: LabeledGraph, grammar: CFG,
              nonterminals: Iterable[Nonterminal | str] | None = None,
              ) -> ContextFreeRelations:
    """Evaluate ``R_A`` for the requested non-terminals (default: all).

    ε-rules make ``(i, i)`` pairs appear for nullable symbols — the
    empty-path facts the paper's relation semantics requires.  The
    matrix engine seeds the same diagonals from the nullable set
    recorded during normalization (``CFG.nullable_diagonal``), so the
    two agree exactly (locked in
    ``tests/core/test_random_grammar_agreement.py``).
    """
    solver = GLLSolver(graph, grammar)
    if nonterminals is None:
        wanted = sorted(grammar.nonterminals, key=lambda nt: nt.name)
    else:
        wanted = [as_nonterminal(nt) for nt in nonterminals]
    for nt in wanted:
        solver.close(nt)
    return ContextFreeRelations(
        graph, {nt: partial(solver.relation, nt) for nt in wanted}
    )
