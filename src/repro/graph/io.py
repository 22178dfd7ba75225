"""Graph serialization: a simple edge-list text format and CSV.

Edge-list format (one edge per line)::

    # comment
    0 subClassOf 1
    1 type 2

Labels are opaque strings.  A canonical decimal node name (``7``,
``-3``) loads as that ``int`` unless ``integer_nodes=False``; ``07``,
``+3`` and ``1_0`` stay strings, distinct from node ``7``.  The CLI and
the JSONL server resolve node tokens by the same :func:`node_from_token`.
"""

from __future__ import annotations

import csv
import io as _io
from typing import Hashable, TextIO

from ..errors import GraphParseError
from .labeled_graph import LabeledGraph


def node_from_token(token: str) -> Hashable:
    """*token* as an ``int`` when it is a canonical decimal integer
    (``str(int(token)) == token``), else *token* unchanged."""
    try:
        number = int(token)
    except ValueError:
        return token
    return number if str(number) == token else token


def coerce_json_node(graph: LabeledGraph, token):
    """Interpret a JSON node token against the graph's node objects:
    JSON cannot distinguish the node ``"0"`` from the node ``0``, so try
    the literal value first and the int/str twin second (a string's
    twin is its canonical integer only: ``"07"`` has none)."""
    if token is None or graph.has_node(token):
        return token
    if isinstance(token, str):
        twin: object = node_from_token(token)
    elif isinstance(token, int):
        twin = str(token)
    else:
        return token
    return twin if graph.has_node(twin) else token


def dump_graph(graph: LabeledGraph, stream: TextIO) -> None:
    """Write *graph* in edge-list format."""
    for source, label, target in graph.edges():
        stream.write(f"{source} {label} {target}\n")


def dumps_graph(graph: LabeledGraph) -> str:
    """Edge-list text for *graph*."""
    buffer = _io.StringIO()
    dump_graph(graph, buffer)
    return buffer.getvalue()


def load_graph(stream: TextIO, integer_nodes: bool = True) -> LabeledGraph:
    """Read an edge-list graph from *stream*."""
    graph = LabeledGraph()
    node = node_from_token if integer_nodes else (lambda token: token)
    for line_number, raw_line in enumerate(stream, start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise GraphParseError(
                "expected 'source label target'", line_number, raw_line
            )
        source, label, target = parts
        graph.add_edge(node(source), label, node(target))
    return graph


def loads_graph(text: str, integer_nodes: bool = True) -> LabeledGraph:
    """Parse an edge-list graph from a string."""
    return load_graph(_io.StringIO(text), integer_nodes=integer_nodes)


def load_graph_file(path: str, integer_nodes: bool = True) -> LabeledGraph:
    """Read an edge-list graph from *path*."""
    with open(path, "r", encoding="utf-8") as stream:
        return load_graph(stream, integer_nodes=integer_nodes)


def save_graph_file(graph: LabeledGraph, path: str) -> None:
    """Write *graph* to *path* in edge-list format."""
    with open(path, "w", encoding="utf-8") as stream:
        dump_graph(graph, stream)


def load_csv_graph(stream: TextIO, source_column: str = "source",
                   label_column: str = "label",
                   target_column: str = "target",
                   integer_nodes: bool = True) -> LabeledGraph:
    """Read a graph from CSV with a header row."""
    reader = csv.DictReader(stream)
    graph = LabeledGraph()
    node = node_from_token if integer_nodes else (lambda token: token)
    for row_number, row in enumerate(reader, start=2):
        try:
            source = row[source_column]
            label = row[label_column]
            target = row[target_column]
        except KeyError as missing:
            raise GraphParseError(
                f"CSV row missing column {missing}", row_number
            ) from None
        graph.add_edge(node(source), label, node(target))
    return graph
