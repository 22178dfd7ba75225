"""Edge-labeled directed graph ``D = (V, E)`` with ``E ⊆ V × Σ × V``.

This is the paper's input data model (Section 2).  Nodes may be any
hashable objects externally; internally they are densely enumerated
``0 .. |V|-1`` (the paper enumerates nodes the same way before building
the matrix), and the mapping is kept for presenting results.

The graph is a *multigraph* in the sense that parallel edges with
distinct labels are allowed; parallel edges with identical labels
collapse (they are indistinguishable to any query).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Hashable, Iterable, Iterator

from ..errors import UnknownNodeError
from ..grammar.symbols import inverse_label

#: A labeled edge as exposed to callers: (source, label, target).
Edge = tuple[Hashable, str, Hashable]


class LabeledGraph:
    """A directed graph with string-labeled edges.

    >>> g = LabeledGraph.from_edges([("u", "knows", "v"), ("v", "knows", "w")])
    >>> g.node_count, g.edge_count
    (3, 2)
    """

    def __init__(self) -> None:
        self._node_ids: dict[Hashable, int] = {}
        self._nodes: list[Hashable] = []
        # label -> set of (source_id, target_id)
        self._edges_by_label: dict[str, set[tuple[int, int]]] = defaultdict(set)
        self._edge_count = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(cls, edges: Iterable[Edge],
                   nodes: Iterable[Hashable] = ()) -> "LabeledGraph":
        """Build a graph from (source, label, target) triples.

        Extra isolated *nodes* may be declared; node enumeration follows
        first-seen order, matching the paper's "enumerate nodes from 0".
        """
        graph = cls()
        for node in nodes:
            graph.add_node(node)
        for source, label, target in edges:
            graph.add_edge(source, label, target)
        return graph

    def add_node(self, node: Hashable) -> int:
        """Add *node* (idempotent); return its dense id."""
        node_id = self._node_ids.get(node)
        if node_id is None:
            node_id = len(self._nodes)
            self._node_ids[node] = node_id
            self._nodes.append(node)
        return node_id

    def add_edge(self, source: Hashable, label: str, target: Hashable) -> None:
        """Add a labeled edge, creating endpoints as needed."""
        if not label:
            raise ValueError("edge label must be a non-empty string")
        source_id = self.add_node(source)
        target_id = self.add_node(target)
        label_edges = self._edges_by_label[label]
        pair = (source_id, target_id)
        if pair not in label_edges:
            label_edges.add(pair)
            self._edge_count += 1

    def add_edges(self, edges: Iterable[Edge]) -> None:
        """Bulk :meth:`add_edge`."""
        for source, label, target in edges:
            self.add_edge(source, label, target)

    def remove_edge(self, source: Hashable, label: str,
                    target: Hashable) -> bool:
        """Remove a labeled edge; returns True when it existed.

        Endpoints stay in the graph (node enumeration is append-only —
        dense ids held by matrices and incremental solvers must remain
        stable), so a removed edge may leave isolated nodes behind.
        """
        pairs = self._edges_by_label.get(label)
        if not pairs:
            return False
        source_id = self._node_ids.get(source)
        target_id = self._node_ids.get(target)
        if source_id is None or target_id is None:
            return False
        pair = (source_id, target_id)
        if pair not in pairs:
            return False
        pairs.discard(pair)
        self._edge_count -= 1
        return True

    def remove_edges(self, edges: Iterable[Edge]) -> int:
        """Bulk :meth:`remove_edge`; returns how many actually existed."""
        return sum(
            1 for source, label, target in edges
            if self.remove_edge(source, label, target)
        )

    def with_inverse_edges(self) -> "LabeledGraph":
        """Return a new graph with, for every edge ``(u, x, v)``, the
        extra edge ``(v, x_r, u)`` — the paper's RDF conversion rule
        (Section 6: for each triple both the edge and its inverse are
        added).  Node enumeration is preserved."""
        graph = LabeledGraph()
        for node in self._nodes:
            graph.add_node(node)
        for label, pairs in self._edges_by_label.items():
            reverse = inverse_label(label)
            for source_id, target_id in pairs:
                graph.add_edge(self._nodes[source_id], label, self._nodes[target_id])
                graph.add_edge(self._nodes[target_id], reverse, self._nodes[source_id])
        return graph

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def node_count(self) -> int:
        """``|V|``."""
        return len(self._nodes)

    @property
    def edge_count(self) -> int:
        """``|E|`` (distinct (source, label, target) triples)."""
        return self._edge_count

    @property
    def labels(self) -> frozenset[str]:
        """All edge labels present in the graph."""
        return frozenset(
            label for label, pairs in self._edges_by_label.items() if pairs
        )

    @property
    def nodes(self) -> tuple[Hashable, ...]:
        """Nodes in enumeration order (index == dense id)."""
        return tuple(self._nodes)

    def node_id(self, node: Hashable) -> int:
        """The dense id of *node*; raises :class:`UnknownNodeError`."""
        try:
            return self._node_ids[node]
        except KeyError:
            raise UnknownNodeError(f"node {node!r} is not in the graph") from None

    def node_at(self, node_id: int) -> Hashable:
        """The node object with dense id *node_id*."""
        try:
            return self._nodes[node_id]
        except IndexError:
            raise UnknownNodeError(
                f"node id {node_id} out of range 0..{len(self._nodes) - 1}"
            ) from None

    def has_node(self, node: Hashable) -> bool:
        """Membership test by node object."""
        return node in self._node_ids

    def has_edge(self, source: Hashable, label: str, target: Hashable) -> bool:
        """Membership test for a labeled edge."""
        pairs = self._edges_by_label.get(label)
        if not pairs:
            return False
        source_id = self._node_ids.get(source)
        target_id = self._node_ids.get(target)
        if source_id is None or target_id is None:
            return False
        return (source_id, target_id) in pairs

    def has_edge_id(self, source_id: int, label: str, target_id: int) -> bool:
        """Membership test for a labeled edge by dense node ids."""
        pairs = self._edges_by_label.get(label)
        return bool(pairs) and (source_id, target_id) in pairs

    def edges(self) -> Iterator[Edge]:
        """Iterate all edges as (source, label, target) node objects."""
        for label in sorted(self._edges_by_label):
            for source_id, target_id in sorted(self._edges_by_label[label]):
                yield (self._nodes[source_id], label, self._nodes[target_id])

    def edges_by_id(self) -> Iterator[tuple[int, str, int]]:
        """Iterate all edges as (source_id, label, target_id)."""
        for label in sorted(self._edges_by_label):
            for source_id, target_id in sorted(self._edges_by_label[label]):
                yield (source_id, label, target_id)

    def edge_pairs(self, label: str) -> frozenset[tuple[int, int]]:
        """All (source_id, target_id) pairs carrying *label*."""
        return frozenset(self._edges_by_label.get(label, ()))

    def successors(self, node_id: int) -> Iterator[tuple[str, int]]:
        """Outgoing (label, target_id) pairs of *node_id*."""
        for label, pairs in self._edges_by_label.items():
            for source_id, target_id in pairs:
                if source_id == node_id:
                    yield (label, target_id)

    def out_edges_index(self) -> dict[int, list[tuple[str, int]]]:
        """Adjacency index node_id -> [(label, target_id)], built once for
        path searches."""
        index: dict[int, list[tuple[str, int]]] = defaultdict(list)
        for label, pairs in self._edges_by_label.items():
            for source_id, target_id in pairs:
                index[source_id].append((label, target_id))
        return dict(index)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabeledGraph):
            return NotImplemented
        return (self._nodes == other._nodes
                and {k: v for k, v in self._edges_by_label.items() if v}
                == {k: v for k, v in other._edges_by_label.items() if v})

    def __repr__(self) -> str:
        return f"LabeledGraph(|V|={self.node_count}, |E|={self.edge_count}, labels={sorted(self.labels)})"
