"""Batched multi-query CFPQ: many source-restricted queries, one closure.

A serving workload is a burst of queries over the same graph, most of
them restricted to a handful of source nodes.  Answering each one from
its own closure repeats almost all of the work; answering each one by
post-filtering the all-pairs relation materializes far more than the
query asked for.  The matrix formulation offers a third way: *stack the
source masks*.

For a batch contributing ``k`` stacked rows over an ``n``-node graph,
every matrix — the per-nonterminal fact matrices ``M_A`` and one mask
matrix ``mask(A)`` per nonterminal — is laid out ``(n+k) × (n+k)``:
rows/columns ``0..n-1`` are graph nodes, rows ``n..n+k-1`` are query
rows.  Row ``n+r`` of ``mask(A)`` is seeded with the union of the base
rows of ``M_A`` over query ``r``'s source set, and every pair rule
``A → B C`` is mirrored as a *mask rule*::

    mask(A) ← mask(A) ∪ (mask(B) × M_C)

Mask rules mirror the real derivation row-wise, so at the fixpoint row
``n+r`` of ``mask(A)`` equals the union over sources ``s`` of row ``s``
of the *closed* ``M_A`` — one :func:`repro.core.closure.run_closure`
call answers the whole batch, on any strategy (the matrices stay square
and uniformly sized, which is what ``blocked`` assumes).
Mask symbols only ever appear as rule heads and left operands, so the
real matrices are never written by a mask rule.

The real matrices start empty and the base facts ride in through
``initial_frontier`` alongside the mask seeds; real rules and mask rules
run in the same closure.  One closure per *batch* instead of one per
*query* — the batched-speedup case ``benchmarks/bench_batch.py`` gates.
A server that already holds the closure answers its batches by lookup
instead (:meth:`repro.service.query_service.QueryService.query_batch`).

Demultiplexing reads the stacked rows back with ``gather_rows``:
membership queries get one union row (nonempty intersection with the
target set ⇒ True), source-restricted relational queries one row per
source (preserving ``(source, target)`` resolution).  Neither ever
touches the all-pairs relation; only an *unrestricted* relational query
reads the real block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Optional

from ..errors import SemanticsError
from ..grammar.cfg import CFG
from ..grammar.cnf import ensure_cnf
from ..grammar.symbols import Nonterminal
from ..graph.labeled_graph import LabeledGraph
from ..matrices.base import MatrixBackend, default_backend, get_backend
from .closure import run_closure
from .matrix_cfpq import DEFAULT_STRATEGY, initial_pair_sets

__all__ = ["BatchQuery", "as_batch_query", "mask_symbol", "solve_batch"]

#: Tag for the stacked-mask companion symbol of a nonterminal.  Pair
#: rules accept arbitrary hashable symbols, so ``("mask", A)`` lives in
#: the same matrix dict as ``A`` itself.
MASK = "mask"

#: Batch semantics: ``membership`` answers "is some (source, target)
#: pair in the relation" as a bool; ``relational`` returns the pairs.
BATCH_SEMANTICS = ("relational", "membership")


def mask_symbol(nonterminal: Nonterminal) -> tuple:
    """The closure symbol of *nonterminal*'s stacked mask matrix."""
    return (MASK, nonterminal)


@dataclass(frozen=True)
class BatchQuery:
    """One query of a batch: ``start`` nonterminal, optional source and
    target restrictions (node objects), and the answer semantics.

    * ``relational`` — the pairs of the relation restricted to
      ``sources × targets`` (either side ``None`` = unrestricted).
    * ``membership`` — ``True`` iff the restricted relation is
      nonempty; requires both ``sources`` and ``targets``.
    """

    start: Hashable
    sources: Optional[frozenset] = None
    targets: Optional[frozenset] = None
    semantics: str = "relational"


def as_batch_query(spec) -> BatchQuery:
    """Coerce a :class:`BatchQuery`, mapping, or tuple into the
    canonical spec (single nodes are promoted to singleton sets)."""
    if isinstance(spec, BatchQuery):
        return spec
    if isinstance(spec, dict):
        start = spec.get("start")
        if start is None:
            raise SemanticsError("batch query needs a 'start' nonterminal")
        sources = spec.get("sources", spec.get("source"))
        targets = spec.get("targets", spec.get("target"))
        semantics = spec.get("semantics", "relational")
    else:
        parts = tuple(spec)
        if not 1 <= len(parts) <= 4:
            raise SemanticsError(
                "batch query tuples are (start, sources, targets[, "
                f"semantics]); got {len(parts)} elements"
            )
        start = parts[0]
        sources = parts[1] if len(parts) > 1 else None
        targets = parts[2] if len(parts) > 2 else None
        semantics = parts[3] if len(parts) > 3 else "relational"
    return BatchQuery(start=start, sources=_node_set(sources),
                      targets=_node_set(targets), semantics=semantics)


def _node_set(value) -> Optional[frozenset]:
    if value is None:
        return None
    if isinstance(value, (frozenset, set, list, tuple)):
        return frozenset(value)
    return frozenset((value,))


class _Plan:
    """Row layout of one validated query inside the stacked block."""

    __slots__ = ("query", "start", "rows", "source_ids", "target_ids")

    def __init__(self, query: BatchQuery, start: Nonterminal,
                 rows: "list[int]", source_ids: "list[int]",
                 target_ids: "Optional[set[int]]"):
        self.query = query
        self.start = start
        self.rows = rows              # stacked row indexes (batch-local)
        self.source_ids = source_ids  # one per row (relational) / all (union)
        self.target_ids = target_ids  # None = unrestricted


def _validate(query: BatchQuery, grammar: CFG) -> Nonterminal:
    start = grammar.resolve_nonterminal(query.start)
    if query.semantics not in BATCH_SEMANTICS:
        raise SemanticsError(
            f"unknown batch semantics {query.semantics!r}; expected one "
            f"of {BATCH_SEMANTICS}"
        )
    if query.semantics == "membership" and (query.sources is None
                                            or query.targets is None):
        raise SemanticsError(
            "membership batch queries require both sources and targets"
        )
    return start


def _present_ids(graph: LabeledGraph, nodes: Iterable) -> "list[int]":
    """Sorted dense ids of the nodes present in *graph* (absent nodes
    restrict to nothing, they are not an error — matching the service's
    membership contract)."""
    return sorted(graph.node_id(node) for node in nodes
                  if graph.has_node(node))


def solve_batch(graph: LabeledGraph, grammar: CFG, queries,
                backend: "str | MatrixBackend | None" = None,
                strategy: str = DEFAULT_STRATEGY,
                normalize: bool = True,
                **strategy_options) -> list:
    """Answer a batch of queries with **one** masked closure.

    *queries* is a sequence of :class:`BatchQuery` / dict / tuple specs
    (see :func:`as_batch_query`).  Returns one answer per query, in
    order: a ``frozenset`` of ``(source_node, target_node)`` pairs for
    ``relational`` semantics, a ``bool`` for ``membership``.
    """
    specs = [as_batch_query(query) for query in queries]
    working = ensure_cnf(grammar) if normalize else grammar
    working.require_cnf("the batched CFPQ engine")
    backend_obj = get_backend(backend if backend is not None
                              else default_backend())

    n = graph.node_count
    plans: list[_Plan] = []
    next_row = 0
    for spec in specs:
        start = _validate(spec, working)
        target_ids = None if spec.targets is None \
            else set(_present_ids(graph, spec.targets))
        if spec.semantics == "membership":
            source_ids = _present_ids(graph, spec.sources)
            rows = [next_row]          # one union row per membership query
            next_row += 1
        elif spec.sources is not None:
            source_ids = _present_ids(graph, spec.sources)
            rows = list(range(next_row, next_row + len(source_ids)))
            next_row += len(source_ids)
        else:
            source_ids = []
            rows = []                  # answered from the real block
        plans.append(_Plan(spec, start, rows, source_ids, target_ids))

    k = next_row
    pair_rules = [
        (rule.head, rule.body[0], rule.body[1])
        for rule in working.binary_rules
    ]
    mask_rules = [
        (mask_symbol(head), mask_symbol(left), right)
        for head, left, right in pair_rules
    ]

    matrices = _solve(graph, working, plans, n, k, pair_rules, mask_rules,
                      backend_obj, strategy, strategy_options)
    return [_demux(plan, graph, n, matrices, backend_obj)
            for plan in plans]


def _mask_seed_pairs(plans: "list[_Plan]", n: int,
                     by_source: "dict[int, Iterable[int]]",
                     ) -> "set[tuple[int, int]]":
    """Stacked-row seeds for one nonterminal: row ``n + r`` gets the
    union of *by_source* rows over the plan's sources for row ``r``."""
    seeds: set[tuple[int, int]] = set()
    for plan in plans:
        if not plan.rows:
            continue
        if plan.query.semantics == "membership":
            row = n + plan.rows[0]
            for source in plan.source_ids:
                seeds.update((row, j) for j in by_source.get(source, ()))
        else:
            for row, source in zip(plan.rows, plan.source_ids):
                seeds.update((n + row, j)
                             for j in by_source.get(source, ()))
    return seeds


def _solve(graph, grammar, plans, n, k, pair_rules, mask_rules,
                backend, strategy, strategy_options) -> dict:
    """Real rules and mask rules in one closure, everything seeded
    through ``initial_frontier`` (base facts + gathered mask rows)."""
    size = n + k
    base = initial_pair_sets(graph, grammar)
    by_source_of: dict[Nonterminal, dict[int, list[int]]] = {}
    for nt, pairs in base.items():
        rows: dict[int, list[int]] = {}
        for i, j in pairs:
            rows.setdefault(i, []).append(j)
        by_source_of[nt] = rows

    matrices: dict = {}
    frontier: dict = {}
    for nt in grammar.nonterminals:
        matrices[nt] = backend.zeros(size)
        matrices[mask_symbol(nt)] = backend.zeros(size)
        frontier[nt] = backend.from_pairs(size, base[nt])
        frontier[mask_symbol(nt)] = backend.from_pairs(
            size, _mask_seed_pairs(plans, n, by_source_of[nt])
        )
    closure = run_closure(matrices, pair_rules + mask_rules, backend,
                          strategy=strategy, initial_frontier=frontier,
                          **strategy_options)
    return closure.matrices


def _demux(plan: _Plan, graph, n: int, matrices: dict,
           backend) -> object:
    """Read one query's answer back out of the stacked result."""
    query = plan.query
    if query.semantics == "membership":
        mask = matrices[mask_symbol(plan.start)]
        row = backend.gather_rows(mask, [n + plan.rows[0]])
        targets = plan.target_ids or set()
        return any(j in targets for _i, j in row.nonzero_pairs())
    if query.sources is not None:
        mask = matrices[mask_symbol(plan.start)]
        gathered = backend.gather_rows(
            mask, [n + row for row in plan.rows]
        )
        pairs = set()
        for position, j in gathered.nonzero_pairs():
            if plan.target_ids is not None and j not in plan.target_ids:
                continue
            pairs.add((graph.node_at(plan.source_ids[position]),
                       graph.node_at(j)))
        return frozenset(pairs)
    # Unrestricted sources: the only case read from the real block.
    pairs = set()
    for i, j in matrices[plan.start].nonzero_pairs():
        if i >= n or j >= n:
            continue
        if plan.target_ids is not None and j not in plan.target_ids:
            continue
        pairs.add((graph.node_at(i), graph.node_at(j)))
    return frozenset(pairs)
