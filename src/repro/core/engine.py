"""High-level query engine — the library's main entry point.

Typical use::

    from repro import CFPQEngine, parse_grammar
    from repro.graph import load_graph_file

    grammar = parse_grammar("S -> a S b | a b", terminals=["a", "b"])
    graph = load_graph_file("graph.txt")

    engine = CFPQEngine(graph, grammar)            # normalizes to CNF once
    pairs = engine.relational("S")                 # frozenset of node pairs
    path = engine.single_path("S", 0, 3)           # one witness path
    all_paths = engine.all_paths("S", 0, 3, max_length=10)

The engine normalizes the grammar a single time, closes it once under
the backend and strategy it was built with, and maps results back to
the caller's node objects.  To compare backends or strategies, build
one engine per configuration.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable

from ..errors import SemanticsError
from ..grammar.cfg import CFG
from ..grammar.cnf import ensure_cnf
from ..grammar.symbols import Nonterminal
from ..graph.labeled_graph import LabeledGraph
from .closure import closure_settings
from .matrix_cfpq import MatrixCFPQResult, solve_matrix
from .relations import ContextFreeRelations

if TYPE_CHECKING:
    from .path_index import AllPathIndex, Path
    from .single_path import SinglePathIndex

#: The query semantics understood by :meth:`CFPQEngine.evaluate`.
SEMANTICS = ("relational", "single-path", "all-path")


class CFPQEngine:
    """A prepared (graph, grammar) pair answering CFPQ queries.

    The grammar is normalized to CNF once.  *backend*, *strategy* and
    the tile options in *strategy_options* (``tile_size=128,
    memory_budget="8M"``: ``blocked`` only) configure every closure run
    of the engine; the constructor reads them through
    :func:`repro.core.closure.closure_settings`, so a bad one raises
    here.
    """

    def __init__(self, graph: LabeledGraph, grammar: CFG,
                 backend: str | None = None,
                 strategy: str | None = None,
                 **strategy_options):
        self.backend, self.strategy, self.strategy_options = \
            closure_settings(backend, strategy, **strategy_options)
        self.graph = graph
        self.original_grammar = grammar
        self.grammar = ensure_cnf(grammar)
        self._solution: MatrixCFPQResult | None = None
        self._single_path_index: SinglePathIndex | None = None
        self._all_path_index: AllPathIndex | None = None

    def _start(self, start: Nonterminal | str) -> Nonterminal:
        """The grammar's non-terminal named by *start*;
        :class:`~repro.errors.UnknownSymbolError` for one it lacks."""
        return self.grammar.resolve_nonterminal(start)

    # ------------------------------------------------------------------
    # Relational semantics
    # ------------------------------------------------------------------
    def solve(self) -> MatrixCFPQResult:
        """Run (and cache) the boolean-matrix closure."""
        if self._solution is None:
            self._solution = solve_matrix(
                self.graph, self.grammar, backend=self.backend,
                normalize=False, strategy=self.strategy,
                **self.strategy_options,
            )
        return self._solution

    def relations(self) -> ContextFreeRelations:
        """All relations ``R_A`` (including CNF helper non-terminals)."""
        return self.solve().relations

    def relational(self, start: Nonterminal | str,
                   ) -> frozenset[tuple[Hashable, Hashable]]:
        """``R_S`` for the queried start non-terminal, as node objects —
        the paper's relational query semantics."""
        start = self._start(start)
        return self.relations().node_pairs(start)

    def count(self, start: Nonterminal | str) -> int:
        """``|R_S|`` — the paper's #results."""
        start = self._start(start)
        return self.relations().count(start)

    # ------------------------------------------------------------------
    # Single-path semantics (Section 5)
    # ------------------------------------------------------------------
    def single_path_index(self) -> SinglePathIndex:
        """The length-annotated closure, built once.

        Runs on the same semiring-generalized closure engine as the
        relational answer; every strategy yields identical annotations.
        """
        from .single_path import build_single_path_index

        if self._single_path_index is None:
            self._single_path_index = build_single_path_index(
                self.graph, self.grammar, normalize=False,
                strategy=self.strategy, **self.strategy_options,
            )
        return self._single_path_index

    def single_path(self, start: Nonterminal | str, source: Hashable,
                    target: Hashable) -> Path:
        """One witness path for ``(start, source, target)``; raises
        :class:`~repro.errors.PathNotFoundError` when the pair is not in
        the relation."""
        from .single_path import extract_path

        start = self._start(start)
        return extract_path(self.single_path_index(), start, source, target)

    def path_length(self, start: Nonterminal | str, source: Hashable,
                    target: Hashable) -> int | None:
        """The recorded witness-path length ``l_A``, or None."""
        start_nt = self._start(start)
        return self.single_path_index().length_of(
            start_nt, self.graph.node_id(source), self.graph.node_id(target)
        )

    # ------------------------------------------------------------------
    # Bounded all-path semantics (§7 future work)
    # ------------------------------------------------------------------
    def all_path_index(self) -> AllPathIndex:
        """The all-path parse forest, made once: a view of the (cached)
        relational solve's matrices, so all-path queries never close a
        second time."""
        from .path_index import AllPathIndex, matrix_maps

        if self._all_path_index is None:
            self._all_path_index = AllPathIndex(
                self.graph, self.grammar, *matrix_maps(
                    self.grammar.nonterminals, self.solve().matrices))
        return self._all_path_index

    def all_paths(self, start: Nonterminal | str, source: Hashable,
                  target: Hashable, max_length: int) -> frozenset[Path]:
        """All witness paths of length ≤ *max_length*."""
        start = self._start(start)
        return frozenset(self.all_path_index().iter_paths(
            start, source, target, max_length))

    # ------------------------------------------------------------------
    # Warm-start adoption (snapshot store)
    # ------------------------------------------------------------------
    def adopt_solution(self, result: MatrixCFPQResult) -> None:
        """Install a pre-computed relational solution, so
        :meth:`solve`/:meth:`relational` answer without running any
        closure.  Used by the snapshot loader
        (:mod:`repro.service.snapshot`); the result must be the closure
        of this engine's graph and grammar."""
        self._solution = result

    def adopt_single_path_index(self, index: SinglePathIndex) -> None:
        """Install a pre-computed length-annotated index (see
        :meth:`adopt_solution`)."""
        self._single_path_index = index

    def save_snapshot(self, path: str,
                      semantics: tuple[str, ...] = SEMANTICS) -> int:
        """Persist the solved index to *path* (solving any missing
        *semantics* first); returns the snapshot size in bytes.  See
        :mod:`repro.service.snapshot` for the format."""
        from ..service.snapshot import save_engine_snapshot

        return save_engine_snapshot(path, self, semantics=semantics)

    @classmethod
    def from_snapshot(cls, path: str, backend: str | None = None,
                      strategy: str | None = None) -> "CFPQEngine":
        """Load a warm engine from a snapshot file: every semantics the
        snapshot carries answers in O(load), with zero closure rounds
        (see :func:`repro.service.snapshot.load_engine_snapshot`)."""
        from ..service.snapshot import load_engine_snapshot

        return load_engine_snapshot(path, backend=backend, strategy=strategy)

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def incremental(self, single_path: bool = False):
        """An incremental solver over this engine's graph, grammar and
        closure configuration (backend / strategy / strategy options).

        The returned :class:`~repro.core.incremental.IncrementalCFPQ`
        (or, with *single_path*, the length-maintaining
        :class:`~repro.core.incremental.IncrementalSinglePathCFPQ`)
        supports batch ``add_edges`` and DRed ``remove_edges`` and keeps
        the relations at the fixpoint after every update.  Note it
        mutates ``self.graph`` — cached engine results are built for the
        graph at call time and are not refreshed by the solver.
        """
        from .incremental import IncrementalCFPQ, IncrementalSinglePathCFPQ

        if single_path:
            return IncrementalSinglePathCFPQ(
                self.graph, self.grammar, strategy=self.strategy,
                **self.strategy_options,
            )
        return IncrementalCFPQ(
            self.graph, self.grammar, backend=self.backend,
            strategy=self.strategy, **self.strategy_options,
        )

    # ------------------------------------------------------------------
    # Uniform entry point
    # ------------------------------------------------------------------
    def evaluate(self, start: Nonterminal | str, semantics: str = "relational",
                 max_length: int | None = None):
        """Dispatch on *semantics* (``relational`` | ``single-path`` |
        ``all-path``, which needs *max_length*); see the specific methods
        for the result types."""
        if semantics == "relational":
            return self.relational(start)
        node_at = self.graph.node_at
        if semantics == "single-path":
            from .single_path import iter_single_paths

            start = self._start(start)
            return {(node_at(i), node_at(j)): path
                    for i, j, path in iter_single_paths(
                        self.single_path_index(), start)}
        if semantics == "all-path":
            from ..graph.request import non_negative_int

            if max_length is None:
                raise SemanticsError("all-path semantics requires max_length=")
            non_negative_int(max_length, "max_length")
            # A pair outside R_S has no path, so only R_S is enumerated.
            start_nt = self._start(start)
            index = self.all_path_index()
            return {
                (node_at(i), node_at(j)): paths
                for i, j in sorted(self.relations().pairs(start_nt))
                if (paths := frozenset(index.iter_paths(
                    start_nt, node_at(i), node_at(j), max_length)))
            }
        raise SemanticsError(
            f"unknown semantics {semantics!r}; expected one of {SEMANTICS}"
        )


def cfpq(graph: LabeledGraph, grammar: CFG, start: Nonterminal | str,
         backend: str | None = None, strategy: str | None = None,
         ) -> frozenset[tuple[Hashable, Hashable]]:
    """One-shot relational CFPQ: ``R_start`` as node-object pairs."""
    return CFPQEngine(graph, grammar, backend=backend,
                      strategy=strategy).relational(start)

