"""One pair order on every surface that prints a relation.

``query``, ``update``, ``rpq``, ``query --batch``, ``query --semiring``
and the server's whole relation all list pairs by
``(str(source), str(target))``.  The graph has nodes ``a`` and ``a!``,
whose pairs sort one way by that key and the other way by
``str((source, target))``, and int nodes ``9`` and ``10``, whose
string order is not their numeric order.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core.relations import ContextFreeRelations
from repro.grammar.builders import dyck1
from repro.graph.io import load_graph_file
from repro.matrices.base import BACKEND_NAMES, backend_installed

EDGES = "a a m\na! a m\n9 a m\n10 a m\nm b z\nz b 10\n"

BACKENDS = [pytest.param(name, marks=pytest.mark.skipif(
    not backend_installed(name), reason=f"{name} needs NumPy/SciPy"))
    for name in BACKEND_NAMES]


@pytest.fixture
def graph_file(tmp_path) -> str:
    path = tmp_path / "graph.txt"
    path.write_text(EDGES, encoding="utf-8")
    return str(path)


def _run(capsys, *argv: str) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def _assert_pair_order(pairs) -> None:
    """*pairs* lists both ``a`` and ``a!`` sources, by (str, str)."""
    keys = [(str(pair[0]), str(pair[1])) for pair in pairs]
    assert {"a", "a!"} <= {source for source, _target in keys}
    assert keys == sorted(keys)
    assert keys != sorted(keys, key=str)


@pytest.mark.parametrize("backend", BACKENDS)
class TestCommands:
    def test_query(self, graph_file, capsys, backend):
        document = json.loads(_run(
            capsys, "query", "--graph", graph_file, "--grammar-name",
            "dyck1", "--backend", backend, "--json"))
        _assert_pair_order(document["pairs"])

    def test_update(self, graph_file, tmp_path, capsys, backend):
        insert = tmp_path / "insert.txt"
        insert.write_text("a! a a\n", encoding="utf-8")
        document = json.loads(_run(
            capsys, "update", "--graph", graph_file, "--grammar-name",
            "dyck1", "--backend", backend, "--insert", str(insert),
            "--json"))
        _assert_pair_order(document["pairs"])
        assert ["a!", "10"] in document["pairs"]

    def test_rpq(self, graph_file, capsys, backend):
        document = json.loads(_run(
            capsys, "rpq", "--graph", graph_file, "--regex", "a b",
            "--backend", backend, "--json"))
        _assert_pair_order(document["pairs"])

    def test_batch(self, graph_file, tmp_path, capsys, backend):
        batch = tmp_path / "batch.jsonl"
        batch.write_text('{"start": "S"}\n{"sources": ["a!", "a"]}\n',
                         encoding="utf-8")
        document = json.loads(_run(
            capsys, "query", "--graph", graph_file, "--grammar-name",
            "dyck1", "--backend", backend, "--batch", str(batch),
            "--json"))
        for answer in document["answers"]:
            _assert_pair_order(answer)


def test_semiring(graph_file, capsys):
    document = json.loads(_run(
        capsys, "query", "--graph", graph_file, "--grammar-name", "dyck1",
        "--semiring", "length", "--json"))
    _assert_pair_order(document["pairs"])


@pytest.mark.parametrize("backend", BACKENDS)
def test_wire_whole_relation(graph_file, backend):
    from repro.service.query_service import QueryService
    from repro.service.server import handle_request

    service = QueryService(load_graph_file(graph_file), dyck1(),
                           backend=backend)
    response = handle_request(service, {"op": "query", "start": "S"})
    assert response["ok"], response
    _assert_pair_order(response["result"])
    # Node JSON types stay native: int nodes go out as numbers.
    assert response["result"] == [[10, "z"], [9, "z"], ["a", "z"],
                                  ["a!", "z"]]
    batch = handle_request(service, {"op": "batch",
                                     "queries": [{"start": "S"}]})
    assert batch["result"] == [{"ok": True, "result": response["result"]}]


class TestPrintedFromRows:
    """``query`` and ``update`` print from the relation's integer rows,
    never from a set of node tuples."""

    @pytest.fixture(autouse=True)
    def _no_node_pairs(self, monkeypatch):
        def refuse(*_args):
            raise AssertionError("node_pairs built for printing")

        monkeypatch.setattr(ContextFreeRelations, "node_pairs", refuse)

    def test_query(self, graph_file, capsys):
        document = json.loads(_run(
            capsys, "query", "--graph", graph_file, "--grammar-name",
            "dyck1", "--json"))
        assert document["count"] == len(document["pairs"]) == 4

    def test_update(self, graph_file, tmp_path, capsys):
        delete = tmp_path / "delete.txt"
        delete.write_text("a! a m\n", encoding="utf-8")
        document = json.loads(_run(
            capsys, "update", "--graph", graph_file, "--grammar-name",
            "dyck1", "--delete", str(delete), "--json"))
        assert document["count"] == len(document["pairs"]) == 3
        assert document["facts_removed"] > 0


@pytest.mark.parametrize("command", [
    ["query", "--semiring", "length"],
    ["paths", "--source", "a", "--target", "z", "--top-k", "1"],
    ["update", "--insert", "{graph}"],
], ids=["semiring", "top_k", "update"])
def test_unknown_start_is_refused_before_any_closure(graph_file, capsys,
                                                     monkeypatch, command):
    """These commands resolve the start symbol before they close
    anything, and refuse it with the message ``query`` prints."""
    from repro.core import engine, matrix_cfpq, semiring

    query = ["--graph", graph_file, "--grammar-name", "dyck1", "--start",
             "Nope"]
    assert main(["query", *query]) == 1
    expected = capsys.readouterr().err
    assert "non-terminal Nope is not part of the grammar" in expected

    def refuse(*_args, **_kwargs):
        raise AssertionError("a closure ran for an unknown start")

    monkeypatch.setattr(engine, "solve_matrix", refuse)
    monkeypatch.setattr(semiring, "solve_annotated", refuse)
    monkeypatch.setattr(matrix_cfpq, "solve_matrix", refuse)
    command = [part.format(graph=graph_file) for part in command]
    assert main([*command, *query]) == 1
    assert capsys.readouterr().err == expected
