"""Tests for the LabeledGraph data model."""

import pytest

from repro.errors import UnknownNodeError
from repro.graph.labeled_graph import LabeledGraph


@pytest.fixture
def small_graph() -> LabeledGraph:
    return LabeledGraph.from_edges([
        ("u", "knows", "v"),
        ("v", "knows", "w"),
        ("u", "likes", "w"),
    ])


def test_node_enumeration_first_seen_order(small_graph):
    assert small_graph.nodes == ("u", "v", "w")
    assert small_graph.node_id("u") == 0
    assert small_graph.node_at(2) == "w"


def test_counts(small_graph):
    assert small_graph.node_count == 3
    assert small_graph.edge_count == 3


def test_labels(small_graph):
    assert small_graph.labels == {"knows", "likes"}


def test_duplicate_edges_collapse():
    graph = LabeledGraph.from_edges([(0, "a", 1), (0, "a", 1)])
    assert graph.edge_count == 1


def test_parallel_edges_different_labels_kept():
    graph = LabeledGraph.from_edges([(0, "a", 1), (0, "b", 1)])
    assert graph.edge_count == 2


def test_empty_label_rejected():
    graph = LabeledGraph()
    with pytest.raises(ValueError):
        graph.add_edge(0, "", 1)


def test_isolated_nodes_via_from_edges():
    graph = LabeledGraph.from_edges([], nodes=["x", "y"])
    assert graph.node_count == 2
    assert graph.edge_count == 0


def test_add_node_idempotent():
    graph = LabeledGraph()
    assert graph.add_node("n") == graph.add_node("n") == 0


def test_has_edge(small_graph):
    assert small_graph.has_edge("u", "knows", "v")
    assert not small_graph.has_edge("v", "knows", "u")
    assert not small_graph.has_edge("u", "hates", "v")
    assert not small_graph.has_edge("zz", "knows", "v")


def test_unknown_node_errors(small_graph):
    with pytest.raises(UnknownNodeError):
        small_graph.node_id("missing")
    with pytest.raises(UnknownNodeError):
        small_graph.node_at(99)


def test_edges_iteration_deterministic(small_graph):
    assert list(small_graph.edges()) == list(small_graph.edges())
    assert len(list(small_graph.edges_by_id())) == 3


def test_edge_pairs(small_graph):
    pairs = small_graph.edge_pairs("knows")
    assert pairs == {(0, 1), (1, 2)}
    assert small_graph.edge_pairs("nothing") == frozenset()


def test_successors(small_graph):
    outgoing = set(small_graph.successors(0))
    assert outgoing == {("knows", 1), ("likes", 2)}


def test_out_edges_index(small_graph):
    index = small_graph.out_edges_index()
    assert set(index[0]) == {("knows", 1), ("likes", 2)}
    assert 2 not in index  # w has no outgoing edges


def test_with_inverse_edges_adds_reversed(small_graph):
    doubled = small_graph.with_inverse_edges()
    assert doubled.edge_count == 6
    assert doubled.has_edge("v", "knows_r", "u")
    # node enumeration preserved
    assert doubled.nodes == small_graph.nodes


def test_with_inverse_edges_involution_on_labels():
    graph = LabeledGraph.from_edges([(0, "x_r", 1)])
    doubled = graph.with_inverse_edges()
    assert doubled.has_edge(1, "x", 0)


def test_equality():
    g1 = LabeledGraph.from_edges([(0, "a", 1)])
    g2 = LabeledGraph.from_edges([(0, "a", 1)])
    g3 = LabeledGraph.from_edges([(0, "b", 1)])
    assert g1 == g2
    assert g1 != g3


def test_repr_mentions_sizes(small_graph):
    assert "|V|=3" in repr(small_graph)
