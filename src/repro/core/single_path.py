"""Single-path query semantics (Section 5 of the paper), on the
semiring-generalized closure engine.

The relational answer says *that* a path exists; the single-path
semantics must also *present one path* per triple ``(A, m, n)``.  The
paper's Section 5 modifies the closure to store, with each non-terminal
in a cell, a **path length**: cells hold pairs ``(A, l_A)``;
initialization uses length 1; when ``A`` enters cell ``(i, j)`` through
``A → B C`` with ``(B, l_B) ∈ a[i,r]`` and ``(C, l_C) ∈ a[r,j]`` its
length is ``l_A = l_B + l_C``, and a recorded length is never replaced
by a *different* derivation's length (the paper: "the non-terminal A is
not added ... with an associated path length l2 for all l2 ≠ l1").

In semiring terms (this module's formulation) that is exactly the
closure ``M_A ← M_A ⊕ (M_B ⊗ M_C)`` over the **length semiring**
(:class:`repro.core.semiring.LengthSemiring`): ⊗ adds sub-path lengths
across the midpoint, ⊕ keeps the minimum — the canonical,
iteration-order-free form of the paper's no-update rule (see the
semiring module docstring).  The index is therefore built by the same
closure engine (:func:`repro.core.closure.run_closure`) as
the relational answer: ``naive``, semi-naive ``delta`` and tiled
``blocked`` all yield byte-identical annotations.

A concrete path of exactly the recorded length is recovered by the
simple recursive search the paper sketches after Theorem 5: split on
the midpoint ``r`` and rule ``A → B C`` whose recorded lengths add up.
The search stores nothing of its own: it reads the recorded lengths
and the one-step derivations of each fact
(:func:`repro.core.path_index.one_step_derivations`).

:class:`SinglePathIndex` holds the annotated closure (the closed
length matrices, array-native where NumPy is present);
:class:`SinglePathView` is the same pair of reads over the length-carrying
rows of :class:`repro.core.incremental.IncrementalSinglePathCFPQ`;
:func:`extract_path` performs the search on either, and
:func:`repro.core.engine.CFPQEngine.single_path` wires it up.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, Callable, Hashable, Iterator, Mapping

from ..errors import PathNotFoundError
from ..grammar.cfg import CFG
from ..grammar.cnf import ensure_cnf
from ..grammar.symbols import Nonterminal, as_nonterminal
from ..graph.labeled_graph import LabeledGraph
from .relations import ContextFreeRelations
from .semiring import (
    LENGTH_SEMIRING,
    AnnotatedBackend,
    merged_cells,
    solve_annotated,
)

if TYPE_CHECKING:  # the path search loads only where it runs
    from .path_index import Fact, Path, Support

#: The Section-5 cell view: (i, j) -> {A: recorded length}.
_Cells = dict[tuple[int, int], dict[Nonterminal, int]]


class SinglePathView:
    """What :func:`extract_path` reads — the recorded length of a fact
    and its one-step derivations — over row maps ``rows[A][i] = {j:
    l_A(i, j)}`` owned by someone else (the incremental solver's one
    fact store).  Nothing is copied, so the view is current whenever
    its owner is at the fixpoint."""

    def __init__(self, graph: LabeledGraph, grammar: CFG,
                 rows: Mapping[Nonterminal, Mapping[int, dict[int, int]]],
                 derivations: Callable[[Fact], Iterator[Support]]):
        self.graph = graph
        self.grammar = grammar
        self._rows = rows
        self.derivations = derivations

    def length_of(self, nonterminal: Nonterminal, source_id: int,
                  target_id: int) -> int | None:
        """The recorded length ``l_A`` for ``(A, i, j)``, or None when
        ``(i, j) ∉ R_A``."""
        return self._rows.get(nonterminal, {}).get(source_id, {}).get(
            target_id)


class SinglePathIndex:
    """The length-annotated closure ``a_cf`` of Section 5.

    Holds the closed length matrices per non-terminal as the closure
    engine left them (``matrices``); ``cells`` is the paper's merged
    cell view ``(i, j) -> {A: l_A}``, built on first use for callers
    that iterate it.  Constructing from *cells* instead builds the
    matrices from that view.  ``iterations`` and ``multiplications``
    are the closure's rounds and products (0 for a loaded index).
    """

    def __init__(self, graph: LabeledGraph, grammar: CFG,
                 cells: "_Cells | None" = None, iterations: int = 0,
                 matrices: "Mapping | None" = None,
                 multiplications: int = 0):
        self.graph = graph
        self.grammar = grammar
        self.iterations = iterations
        self.multiplications = multiplications
        self._cells = cells
        if matrices is None:
            n = graph.node_count
            per_nonterminal: dict[Nonterminal, dict] = {}
            for pair, entries in (cells or {}).items():
                for nonterminal, length in entries.items():
                    per_nonterminal.setdefault(nonterminal, {})[pair] = length
            backend = AnnotatedBackend(LENGTH_SEMIRING)
            matrices = {
                nonterminal: backend.from_cells((n, n), lengths)
                for nonterminal, lengths in per_nonterminal.items()
            }
        self.matrices = matrices

    @property
    def cells(self) -> _Cells:
        if self._cells is None:
            self._cells = merged_cells(self.matrices)
        return self._cells

    def pairs(self, nonterminal: Nonterminal) -> list[tuple[int, int]]:
        """``R_A`` as sorted dense-id pairs."""
        matrix = self.matrices.get(nonterminal)
        return [] if matrix is None else sorted(matrix.nonzero_pairs())

    def length_of(self, nonterminal: Nonterminal, source_id: int,
                  target_id: int) -> int | None:
        """The recorded length ``l_A`` for ``(A, i, j)``, or None when
        ``(i, j) ∉ R_A``."""
        matrix = self.matrices.get(nonterminal)
        return None if matrix is None else matrix.value_at(source_id,
                                                           target_id)

    @cached_property
    def derivations(self) -> Callable[[Fact], Iterator[Support]]:
        """The one-step derivations of a fact, reading the closed
        matrices in place."""
        from .path_index import matrix_maps, one_step_derivations

        return one_step_derivations(self.graph, self.grammar, *matrix_maps(
            self.grammar.nonterminals, self.matrices))

    def relations(self) -> ContextFreeRelations:
        """Project the annotation away — by Theorem 2 this is the
        relational-semantics answer."""
        return ContextFreeRelations(self.graph, {
            nonterminal: self.matrices.get(nonterminal, ())
            for nonterminal in self.grammar.nonterminals})

    def entry_count(self) -> int:
        """Total (cell, non-terminal) entries."""
        return sum(matrix.nnz() for matrix in self.matrices.values())


def build_single_path_index(graph: LabeledGraph, grammar: CFG,
                            normalize: bool = True,
                            strategy: str | None = None,
                            **tile_options) -> SinglePathIndex:
    """Compute the length-annotated transitive closure of Section 5.

    The fixpoint runs on :func:`repro.core.closure.run_closure` over the
    length semiring, so every closure *strategy* (``delta`` by
    default, ``naive``, ``blocked``) applies, with the *tile_options*
    only ``blocked`` reads (``tile_size``, ``memory_budget``,
    ``spill_dir``); all strategies produce identical annotations.
    """
    working_grammar = ensure_cnf(grammar) if normalize else grammar
    working_grammar.require_cnf("single-path CFPQ")
    result = solve_annotated(graph, working_grammar, LENGTH_SEMIRING,
                             strategy=strategy, normalize=False,
                             **tile_options)
    return SinglePathIndex(graph=graph, grammar=working_grammar,
                           matrices=result.matrices,
                           iterations=result.iterations,
                           multiplications=result.multiplications)


def extract_path(index: "SinglePathIndex | SinglePathView",
                 nonterminal: Nonterminal | str,
                 source: Hashable, target: Hashable) -> Path:
    """Find one path ``source π target`` with ``A ⇒* l(π)`` whose length
    equals the recorded ``l_A`` — the paper's "simple search".

    Each step reads the one-step derivations of a fact and keeps the
    first split whose recorded lengths add up, rules in grammar order
    and midpoints ascending, so the path is a function of the index
    alone.

    Raises :class:`PathNotFoundError` when ``(source, target) ∉ R_A``.
    """
    nonterminal = as_nonterminal(nonterminal)
    graph = index.graph
    source_id = graph.node_id(source)
    target_id = graph.node_id(target)
    length = index.length_of(nonterminal, source_id, target_id)
    if length is None:
        raise PathNotFoundError(
            f"({source!r}, {target!r}) is not in R_{nonterminal}"
        )
    if length == 0:
        # Nullable non-terminal: the witness is the empty path i π i.
        return ()

    grammar = index.grammar
    derivations = index.derivations
    length_of = index.length_of

    def search(head: Nonterminal, i: int, j: int, needed: int) -> Path:
        supports = derivations((head, i, j))
        if needed == 1:
            for support in supports:
                if support[0] == "edge":
                    return ((i, support[1], j),)
            raise PathNotFoundError(
                f"inconsistent index: no terminal edge for {head} at ({i}, {j})"
            )
        rule_order = {rule.body: position for position, rule
                      in enumerate(grammar.productions_for(head))}
        # Zero-length (nullable-diagonal) operands are skipped:
        # ε-elimination guarantees an equivalent strict split, and
        # restricting to l_B >= 1 keeps the recursion well-founded on
        # cyclic closures.
        fitting = []
        for support in supports:
            if support[0] != "split":
                continue
            _tag, left, right, r = support
            left_length = length_of(left, i, r)
            if (1 <= left_length < needed
                    and left_length + length_of(right, r, j) == needed):
                fitting.append((rule_order[(left, right)], r, left, right,
                                left_length))
        if not fitting:
            raise PathNotFoundError(
                f"inconsistent index: cannot split ({i}, {j}) for {head} at length {needed}"
            )
        # Grammar order, then midpoint: (rule, midpoint) is unique, so
        # the comparison never reaches the symbols.
        _order, r, left, right, left_length = min(fitting)
        return (search(left, i, r, left_length)
                + search(right, r, j, needed - left_length))

    return search(nonterminal, source_id, target_id, length)


def path_word(path: Path) -> tuple[str, ...]:
    """The label word ``l(π)`` of a path."""
    return tuple(label for _source, label, _target in path)


def path_is_valid(index: SinglePathIndex, path: Path) -> bool:
    """Check that every edge of *path* exists in the graph and the edges
    are contiguous."""
    has_edge = index.graph.has_edge_id
    return (all(left[2] == right[0] for left, right in zip(path, path[1:]))
            and all(has_edge(*edge) for edge in path))


def iter_single_paths(index: SinglePathIndex, nonterminal: Nonterminal | str,
                      ) -> Iterator[tuple[int, int, Path]]:
    """Yield ``(i, j, path)`` for every pair of ``R_A`` — the full
    single-path semantics answer for one non-terminal."""
    nonterminal = as_nonterminal(nonterminal)
    for i, j in index.pairs(nonterminal):
        yield (i, j, extract_path(index, nonterminal,
                                  index.graph.node_at(i),
                                  index.graph.node_at(j)))
