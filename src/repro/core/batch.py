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

from dataclasses import dataclass
from typing import Hashable, Iterable, Optional

from ..errors import SemanticsError
from ..grammar.cfg import CFG
from ..grammar.cnf import ensure_cnf
from ..grammar.symbols import Nonterminal
from ..graph.labeled_graph import LabeledGraph
from ..matrices.base import (
    BooleanMatrix,
    MatrixBackend,
    default_backend,
    get_backend,
)
from .matrix_cfpq import DEFAULT_STRATEGY, solve_matrix

__all__ = ["BatchQuery", "as_batch_query", "solve_batch"]

#: Batch semantics: ``membership`` answers "is some (source, target)
#: pair in the relation" as a bool; ``relational`` returns the pairs.
BATCH_SEMANTICS = ("relational", "membership")


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


def _present_ids(graph: LabeledGraph, nodes: Iterable) -> "set[int]":
    """Dense ids of the nodes present in *graph* (absent nodes restrict
    to nothing, they are not an error — matching the service's
    membership contract)."""
    return {graph.node_id(node) for node in nodes if graph.has_node(node)}


def solve_batch(graph: LabeledGraph, grammar: CFG, queries,
                backend: "str | MatrixBackend | None" = None,
                strategy: str = DEFAULT_STRATEGY,
                normalize: bool = True,
                **strategy_options) -> list:
    """Answer a batch of queries with **one** closure plus reads.

    *queries* is a sequence of :class:`BatchQuery` / dict / tuple specs
    (see :func:`as_batch_query`).  Returns one answer per query, in
    order: a ``frozenset`` of ``(source_node, target_node)`` pairs for
    ``relational`` semantics, a ``bool`` for ``membership``.
    """
    specs = [as_batch_query(query) for query in queries]
    working = ensure_cnf(grammar) if normalize else grammar
    working.require_cnf("the batched CFPQ engine")
    starts = [_validate(spec, working) for spec in specs]
    backend_obj = get_backend(backend if backend is not None
                              else default_backend())
    matrices = solve_matrix(graph, working, backend=backend_obj,
                            normalize=False, strategy=strategy,
                            **strategy_options).matrices
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
