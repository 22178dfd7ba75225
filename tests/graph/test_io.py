"""Tests for graph serialization."""

import io

import pytest

from repro.errors import GraphParseError
from repro.graph.generators import two_cycles
from repro.graph.io import (
    dump_graph,
    dumps_graph,
    load_csv_graph,
    load_graph,
    load_graph_file,
    loads_graph,
    save_graph_file,
)
from repro.graph.labeled_graph import LabeledGraph


def test_round_trip_text():
    graph = two_cycles(2, 3)
    text = dumps_graph(graph)
    assert loads_graph(text) == graph


def test_round_trip_file(tmp_path):
    graph = two_cycles(3, 4)
    path = tmp_path / "graph.txt"
    save_graph_file(graph, str(path))
    assert load_graph_file(str(path)) == graph


def test_comments_and_blanks():
    graph = loads_graph("# header\n\n0 a 1\n1 a 0   # loop back\n")
    assert graph.edge_count == 2


def test_integer_node_coercion():
    graph = loads_graph("0 a 1")
    assert graph.has_edge(0, "a", 1)
    graph_str = loads_graph("0 a 1", integer_nodes=False)
    assert graph_str.has_edge("0", "a", "1")


def test_only_canonical_integers_become_int_nodes():
    """``int()`` also accepts ``07``, ``1_0`` and ``+3``; read that way
    each line would be a self-loop on one node."""
    graph = loads_graph("07 a 7\n1_0 b 10\n+3 c 3\n-4 d 0\n")
    assert graph.node_count == 8
    assert graph.has_edge("07", "a", 7)
    assert graph.has_edge("1_0", "b", 10)
    assert graph.has_edge("+3", "c", 3)
    assert graph.has_edge(-4, "d", 0)


def test_round_trip_keeps_leading_zero_names_apart():
    graph = LabeledGraph.from_edges([("07", "a", 7), (7, "b", "x")])
    loaded = loads_graph(dumps_graph(graph))
    assert loaded == graph
    assert loaded.has_node("07") and loaded.node_count == 3


def test_mixed_node_names():
    graph = loads_graph("alice knows 0\n")
    assert graph.has_edge("alice", "knows", 0)


def test_malformed_line_raises():
    with pytest.raises(GraphParseError) as excinfo:
        loads_graph("0 a\n")
    assert excinfo.value.line_number == 1


def test_dump_writes_sorted_edges():
    graph = two_cycles(2, 2)
    stream = io.StringIO()
    dump_graph(graph, stream)
    lines = stream.getvalue().strip().splitlines()
    assert len(lines) == graph.edge_count


def test_load_csv_graph():
    csv_text = "source,label,target\n0,a,1\n1,b,2\n"
    graph = load_csv_graph(io.StringIO(csv_text))
    assert graph.has_edge(0, "a", 1)
    assert graph.has_edge(1, "b", 2)


def test_load_csv_custom_columns():
    csv_text = "from,pred,to\nx,knows,y\n"
    graph = load_csv_graph(io.StringIO(csv_text), source_column="from",
                           label_column="pred", target_column="to")
    assert graph.has_edge("x", "knows", "y")


def test_load_csv_missing_column():
    with pytest.raises(GraphParseError):
        load_csv_graph(io.StringIO("a,b\n1,2\n"))
