"""One order and one encoding for every relation a surface prints.

``query``, ``update``, ``rpq``, ``query --batch``, ``query --semiring``
and the server's whole-relation reply list pairs by
``(str(source), str(target))``, ties broken by node id.  A
:class:`PairWriter` ranks its graph's nodes once by that key; a pair of
node ids ``(i, j)`` then sorts as the integer ``rank[i]·n + rank[j]``
and stays an integer until it is written from per-node tokens (as
snippet 2's chart items do until ``itemstr``).  Pure Python, so every
host runs the same path.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import Hashable, Iterable

from ..graph.labeled_graph import LabeledGraph


def json_node(node: Hashable):
    """A node as a wire JSON scalar: an int, str, float or bool as
    itself, anything else as its ``str``."""
    return node if isinstance(node, (int, str, float, bool)) else str(node)


class RawJSON(str):
    """Encoded JSON text, inserted as is by :func:`json_document`."""


def json_document(fields: dict) -> str:
    """``json.dumps(fields)`` byte for byte, :class:`RawJSON` values
    inserted as they are."""
    return "{" + ", ".join(
        encode_basestring_ascii(key) + ": "
        + (value if isinstance(value, RawJSON) else json.dumps(value))
        for key, value in fields.items()) + "}"


class PairWriter:
    """Sorts and writes relations of one graph, ranking the nodes it has
    when the writer is made (make one per call)."""

    __slots__ = ("_n", "_rank", "_nodes", "_names", "_node_id")

    def __init__(self, graph: LabeledGraph):
        nodes = graph.nodes
        names = list(map(str, nodes))
        # A stable sort by name keeps equal names in id order.
        by_rank = sorted(range(len(nodes)), key=names.__getitem__)
        self._n = len(nodes)
        self._rank = sorted(range(len(nodes)), key=by_rank.__getitem__)
        self._nodes = [nodes[i] for i in by_rank]
        self._names = [names[i] for i in by_rank]
        self._node_id = graph.node_id

    def keys(self, rows: Iterable[tuple[int, Iterable[int]]]) -> list[int]:
        """The sorted keys of *rows* ``(i, targets)`` of node ids."""
        rank, n = self._rank, self._n
        keys: list[int] = []
        for i, targets in rows:
            base = rank[i] * n
            keys.extend([base + rank[j] for j in targets])
        keys.sort()
        return keys

    def node_keys(self, pairs: Iterable[tuple[Hashable, Hashable]],
                  ) -> list[int]:
        """The sorted keys of node-object pairs."""
        rank, n, node_id = self._rank, self._n, self._node_id
        return sorted([rank[node_id(a)] * n + rank[node_id(b)]
                       for a, b in pairs])

    def _joined(self, keys: list[int], heads: list, tails: list,
                separator: str) -> str:
        """``heads[source] + tails[target]`` per key, by node rank."""
        n = self._n
        return separator.join([heads[key // n] + tails[key % n]
                               for key in keys])

    def json(self, keys: list[int]) -> RawJSON:
        """A JSON array of ``[source, target]`` node strings."""
        tokens = list(map(encode_basestring_ascii, self._names))
        return RawJSON("[" + self._joined(
            keys, ["[" + token + ", " for token in tokens],
            [token + "]" for token in tokens], ", ") + "]")

    def text(self, keys: list[int]) -> str:
        """``  source -> target`` lines."""
        return self._joined(keys, [f"  {name} -> " for name in self._names],
                            self._names, "\n")

    def wire(self, keys: list[int]) -> list:
        """``[source, target]`` lists of wire scalars (:func:`json_node`)."""
        tokens = list(map(json_node, self._nodes))
        n = self._n
        return [[tokens[key // n], tokens[key % n]] for key in keys]

    def cells(self, sources: list[int], targets: list[int],
              values: list) -> list:
        """Annotated cells, as parallel lists of node ids and values, as
        ``[source, target, value]`` rows of node strings, in pair order."""
        rank, n, names = self._rank, self._n, self._names
        keys = [rank[i] * n + rank[j] for i, j in zip(sources, targets)]
        return [[names[keys[p] // n], names[keys[p] % n], values[p]]
                for p in sorted(range(len(keys)), key=keys.__getitem__)]
