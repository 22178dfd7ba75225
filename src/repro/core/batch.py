"""Batched multi-query CFPQ: many restricted queries, one closure.

A serving workload is a burst of queries over the same graph, most of
them restricted to a handful of source nodes.  Answering each one from
its own closure repeats the whole closure per query.  The paper needs
only one: after ``M_A ← M_A ∪ (M_B × M_C)`` reaches its fixpoint, every
query of the batch is a read of the closed start matrix ``M_S``:

* **source-restricted** (membership or relational) — the present
  source rows of ``M_S``, filtered by the targets.  One ``mask_rows``
  per start symbol reads the union of the batch's source rows, so a
  membership miss costs its rows' entries, not ``|S| × |T|`` probes;
* **unrestricted relational** — every pair of ``M_S``, filtered by the
  targets.

The closure runs through :func:`repro.core.matrix_cfpq.solve_matrix` on
the caller's backend and strategy, with the caller's options, so a
spilling ``blocked`` run answers a batch too.  A server that already
holds the closure answers its batches by lookup instead
(:meth:`repro.service.query_service.QueryService.query_batch`).
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..grammar.cfg import CFG
from ..grammar.cnf import ensure_cnf
from ..grammar.symbols import Nonterminal
from ..graph.labeled_graph import LabeledGraph
from ..graph.request import Query, read_query
from ..matrices.base import BooleanMatrix, MatrixBackend, get_backend
from .matrix_cfpq import solve_matrix

__all__ = ["BatchQuery", "as_batch_query", "solve_batch"]

#: One query of a batch: ``relational`` reads the relation restricted to
#: ``sources × targets`` (``None`` = unrestricted), ``membership`` whether
#: that restriction is nonempty (both sides needed).
BatchQuery = Query


def as_batch_query(spec) -> BatchQuery:
    """A :class:`BatchQuery`, mapping or ``[start, source(s),
    target(s)[, semantics]]`` list, read and checked as a ``query
    --batch`` line (:func:`repro.graph.request.read_query`)."""
    return read_query(spec, surface="batch")


def _present_ids(graph: LabeledGraph, nodes: Iterable) -> "set[int]":
    """Dense ids of the nodes present in *graph* (absent nodes restrict
    to nothing, they are not an error — matching the service's
    membership contract)."""
    return {graph.node_id(node) for node in nodes if graph.has_node(node)}


def solve_batch(graph: LabeledGraph, grammar: CFG, queries,
                backend: "str | MatrixBackend | None" = None,
                strategy: str | None = None,
                normalize: bool = True,
                **tile_options) -> list:
    """Answer a batch of queries with **one** closure plus reads.

    *queries* is a sequence of :class:`BatchQuery` / dict / tuple specs
    (see :func:`as_batch_query`).  Returns one answer per query, in
    order: a ``frozenset`` of ``(source_node, target_node)`` pairs for
    ``relational`` semantics, a ``bool`` for ``membership``.  *backend*,
    *strategy* and *tile_options* configure the closure as on
    :func:`~repro.core.matrix_cfpq.solve_matrix`.
    """
    specs = [as_batch_query(query) for query in queries]
    working = ensure_cnf(grammar) if normalize else grammar
    working.require_cnf("the batched CFPQ engine")
    starts = [working.resolve_nonterminal(spec.start) for spec in specs]
    backend_obj = get_backend(backend)
    matrices = solve_matrix(graph, working, backend=backend_obj,
                            normalize=False, strategy=strategy,
                            **tile_options).matrices
    source_ids = [None if spec.sources is None
                  else _present_ids(graph, spec.sources) for spec in specs]
    wanted: "dict[Nonterminal, set[int]]" = {}
    for start, ids in zip(starts, source_ids):
        if ids:
            wanted.setdefault(start, set()).update(ids)
    rows: "dict[tuple[Nonterminal, int], set[int]]" = {}
    for start, keep in wanted.items():
        for i, j in backend_obj.mask_rows(matrices[start],
                                          keep).nonzero_pairs():
            rows.setdefault((start, i), set()).add(j)
    return [_answer(spec, start, ids, matrices[start], rows, graph)
            for spec, start, ids in zip(specs, starts, source_ids)]


def _answer(query: BatchQuery, start: Nonterminal,
            source_ids: "Optional[set[int]]", closed: BooleanMatrix,
            rows: dict, graph: LabeledGraph) -> object:
    """Read one query's answer: from its source *rows* of the *start*
    matrix when it is source-restricted, else from every pair of the
    *closed* start matrix."""
    targets = None if query.targets is None \
        else _present_ids(graph, query.targets)
    if query.semantics == "membership":
        return any(not targets.isdisjoint(rows.get((start, i), ()))
                   for i in source_ids)
    if source_ids is None:
        pairs = closed.nonzero_pairs()
    else:
        pairs = ((i, j) for i in source_ids for j in rows.get((start, i), ()))
    return frozenset(
        (graph.node_at(i), graph.node_at(j))
        for i, j in pairs
        if targets is None or j in targets
    )
