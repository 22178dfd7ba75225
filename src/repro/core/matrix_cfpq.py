"""Boolean-decomposed Algorithm 1 — the production CFPQ engine.

Valiant's observation (quoted in the paper's Related Works) is that one
set-matrix multiplication equals ``|N|²`` *Boolean* matrix
multiplications: represent ``T`` as one boolean matrix ``M_A`` per
non-terminal (``M_A[i,j] = 1 ⟺ A ∈ T[i,j]``); then

    T × T  contributes, for every pair rule ``A → B C``,
    the boolean product ``M_B × M_C`` into ``M_A``.

The closure loop becomes::

    while any M_A changes:
        for (A → B C) in P:  M_A ← M_A ∪ (M_B × M_C)

which is exactly what the paper's dGPU/sCPU/sGPU implementations run on
CUBLAS/Math.NET/CUSPARSE.  Here both halves are pluggable: the boolean
kernel comes from a matrix backend (:mod:`repro.matrices`) and the
iteration order from a closure *strategy*
(:mod:`repro.core.closure`) — ``delta`` (semi-naive frontier
propagation, the default), ``naive`` (the literal loop above, kept as
the differential oracle) or ``blocked`` (tiled products with a bounded
working set).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..grammar.cfg import CFG
from ..grammar.cnf import ensure_cnf
from ..grammar.symbols import Nonterminal
from ..graph.labeled_graph import LabeledGraph
from ..matrices.base import BooleanMatrix, MatrixBackend, get_backend
from .closure import closure_settings, run_closure
from .relations import ContextFreeRelations


@dataclass(frozen=True)
class MatrixCFPQStats:
    """Instrumentation of one solver run, for benchmark reports."""

    iterations: int
    multiplications: int
    node_count: int
    nonterminal_count: int
    backend: str
    nnz_per_nonterminal: dict[str, int] = field(default_factory=dict)
    strategy: str = "naive"
    #: New entries merged per closure round (the semi-naive frontier
    #: sizes when ``strategy == "delta"``).
    delta_nnz_per_round: tuple[int, ...] = ()
    #: Strategy-specific instrumentation forwarded from the closure run
    #: (``blocked``: per-tile stats incl. tiles skipped by the frontier
    #: and tile-product wall time).
    details: dict = field(default_factory=dict)

    @property
    def total_entries(self) -> int:
        """Total stored True entries across all non-terminal matrices —
        bounded by |V|²·|N| (the paper's Theorem 3 bound)."""
        return sum(self.nnz_per_nonterminal.values())


@dataclass(frozen=True)
class MatrixCFPQResult:
    """Final per-non-terminal boolean matrices plus derived relations."""

    matrices: dict[Nonterminal, BooleanMatrix]
    relations: ContextFreeRelations
    stats: MatrixCFPQStats


def initial_pair_sets(graph: LabeledGraph, grammar: CFG,
                      ) -> dict[Nonterminal, set[tuple[int, int]]]:
    """The base facts of Algorithm 1 lines 6-7 as coordinate sets:
    ``(i, j) ∈ S_A`` iff some edge ``(i, x, j)`` has a rule ``A → x``,
    plus the identity diagonal for every non-terminal that could derive
    ε before CNF normalization (``ε ∈ L(G_A)`` makes the empty path
    ``iπi`` a witness for every node — see
    :attr:`repro.grammar.cfg.CFG.nullable_diagonal`)."""
    n = graph.node_count
    pair_sets: dict[Nonterminal, set[tuple[int, int]]] = {
        nt: set() for nt in grammar.nonterminals
    }
    diagonal = {(i, i) for i in range(n)}
    for nt in grammar.nullable_diagonal:
        if nt in pair_sets:
            pair_sets[nt] |= diagonal
    for label in graph.labels:
        heads = grammar.heads_for_label(label)
        if not heads:
            continue
        pairs = graph.edge_pairs(label)
        for head in heads:
            pair_sets[head] |= pairs
    return pair_sets


def initial_boolean_matrices(graph: LabeledGraph, grammar: CFG,
                             backend: MatrixBackend,
                             ) -> dict[Nonterminal, BooleanMatrix]:
    """Matrix initialization (Algorithm 1 lines 6-7), decomposed: the
    :func:`initial_pair_sets` base facts materialized on *backend*."""
    n = graph.node_count
    return {
        nt: backend.from_pairs(n, pairs)
        for nt, pairs in initial_pair_sets(graph, grammar).items()
    }


def solve_matrix(graph: LabeledGraph, grammar: CFG,
                 backend: "str | MatrixBackend | None" = None,
                 normalize: bool = True,
                 strategy: str | None = None,
                 **tile_options) -> MatrixCFPQResult:
    """Run the boolean-decomposed Algorithm 1 on *graph* under
    *grammar* (normalized to CNF when *normalize*): the per-non-terminal
    matrices, the relations ``R_A`` and run stats.  *backend*
    (``dense`` / ``sparse`` / ``bitset`` / ``setmatrix`` or an
    instance), *strategy* (``delta`` / ``naive`` / ``blocked``) and the
    *tile_options* only ``blocked`` reads go through
    :func:`repro.core.closure.closure_settings`.
    """
    working_grammar = ensure_cnf(grammar) if normalize else grammar
    working_grammar.require_cnf("the matrix CFPQ engine")
    backend, strategy, tile_options = closure_settings(backend, strategy,
                                                       **tile_options)
    backend_obj = get_backend(backend)

    matrices = initial_boolean_matrices(graph, working_grammar, backend_obj)
    pair_rules = [
        (rule.head, rule.body[0], rule.body[1])
        for rule in working_grammar.binary_rules
    ]

    closure = run_closure(matrices, pair_rules, backend_obj,
                          strategy=strategy, **tile_options)
    matrices = closure.matrices

    relations = ContextFreeRelations(graph, matrices)
    stats = MatrixCFPQStats(
        iterations=closure.iterations,
        multiplications=closure.multiplications,
        node_count=graph.node_count,
        nonterminal_count=len(working_grammar.nonterminals),
        backend=backend_obj.name,
        nnz_per_nonterminal={
            nt.name: matrix.nnz() for nt, matrix in matrices.items()
        },
        strategy=strategy,
        delta_nnz_per_round=closure.delta_nnz_per_round,
        details=closure.details,
    )
    return MatrixCFPQResult(matrices=matrices, relations=relations, stats=stats)


def solve_matrix_relations(graph: LabeledGraph, grammar: CFG,
                           backend: "str | MatrixBackend | None" = None,
                           normalize: bool = True,
                           strategy: str | None = None,
                           ) -> ContextFreeRelations:
    """Convenience wrapper returning only the relations."""
    return solve_matrix(graph, grammar, backend=backend,
                        normalize=normalize, strategy=strategy).relations
