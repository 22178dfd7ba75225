"""Extraction of per-label boolean adjacency structure from a graph.

The boolean-decomposed form of the paper's algorithm needs, for every
terminal ``x``, the boolean adjacency matrix ``M_x`` with
``M_x[i, j] = 1`` iff ``(i, x, j) ∈ E``.  This module produces those
matrices in any registered backend, plus plain COO pair sets for the
pure-python code paths.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..matrices.base import BooleanMatrix, get_backend
from .labeled_graph import LabeledGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..matrices.base import MatrixBackend


def label_pair_sets(graph: LabeledGraph) -> dict[str, frozenset[tuple[int, int]]]:
    """label -> frozenset of (source_id, target_id) pairs."""
    return {label: graph.edge_pairs(label) for label in graph.labels}


def adjacency_matrices(graph: LabeledGraph,
                       backend: "str | MatrixBackend | None" = None,
                       ) -> dict[str, BooleanMatrix]:
    """Build one boolean adjacency matrix per label in *backend*.

    The matrices are ``|V| × |V|``; labels with no edges are omitted.
    """
    backend_obj = get_backend(backend)
    n = graph.node_count
    result: dict[str, BooleanMatrix] = {}
    for label in graph.labels:
        pairs = graph.edge_pairs(label)
        if pairs:
            result[label] = backend_obj.from_pairs(n, pairs)
    return result


def boolean_adjacency(graph: LabeledGraph,
                      backend: "str | MatrixBackend | None" = None) -> BooleanMatrix:
    """The label-agnostic adjacency matrix (any-edge reachability)."""
    backend_obj = get_backend(backend)
    pairs = {
        (source_id, target_id)
        for source_id, _label, target_id in graph.edges_by_id()
    }
    return backend_obj.from_pairs(graph.node_count, pairs)
