"""One item language: the CLI and the wire read a query through one
reader (:mod:`repro.graph.request`).

Every bad input is refused with the same text on both surfaces, a good
input gets the same answer from both, and a key no reader reads is
refused in-band instead of widening the answer to the whole relation.
"""

from __future__ import annotations

import json

import pytest

from repro import QueryService
from repro.cli import main
from repro.grammar import get_grammar
from repro.graph.generators import repeat_graph, word_chain
from repro.graph.io import load_graph_file
from repro.obs.trace import MemorySink, configure_tracing, reset_tracing
from repro.service.server import ServerThread, handle_request

#: A two-edge Dyck graph: ``S`` holds (0, 2) alone.
EDGES = "0 a 1\n1 b 2\n"
POINT = {"start": "S", "source": 0, "target": 2}


@pytest.fixture
def graph_file(tmp_path) -> str:
    path = tmp_path / "dyck.txt"
    path.write_text(EDGES, encoding="utf-8")
    return str(path)


@pytest.fixture
def service(graph_file) -> QueryService:
    return _service(graph_file)


def _service(graph_file, semiring: str = "length") -> QueryService:
    return QueryService(load_graph_file(graph_file), get_grammar("dyck1"),
                        single_path=True, semiring=semiring)


def _cli(capsys, graph_file, *argv):
    """Run the CLI; returns ``(exit code, stdout, stderr lines)``."""
    code = main([*argv, "--graph", graph_file, "--grammar-name", "dyck1"])
    captured = capsys.readouterr()
    return code, captured.out, captured.err.splitlines()


def _batch(capsys, graph_file, tmp_path, *items):
    """``query --batch --json`` over *items*, one JSON line each."""
    path = tmp_path / "batch.jsonl"
    path.write_text("".join(json.dumps(item) + "\n" for item in items),
                    encoding="utf-8")
    return _cli(capsys, graph_file, "query", "--batch", str(path), "--json")


def _wire(service, op: str, spec) -> dict:
    return handle_request(service, {"op": op, **spec})


def _strs(value):
    """*value* with every node as the CLI prints it: ints as strings."""
    if isinstance(value, list):
        return [_strs(each) for each in value]
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    return value


BAD_NUMBERS = [(key, value) for key in ("k", "cursor", "max_length")
               for value in (-1, True, 2.5)]


class TestOneRefusalText:
    @pytest.mark.parametrize(("op", "spec"), [
        *(("top_k", {**POINT, key: value}) for key, value in BAD_NUMBERS),
        ("query", {**POINT, "start": None}),
        ("query", {**POINT, "start": "Zzz"}),
        ("query", {"start": "S", "source": 0}),
        ("query", {"start": "S", "target": 2}),
        ("query", {"start": "S", "semantics": "bogus"}),
    ], ids=[*(f"{key}={value}" for key, value in BAD_NUMBERS),
            "missing-start", "unknown-start", "source-only", "target-only",
            "unknown-semantics"])
    def test_batch_line_and_wire_refuse_alike(
            self, capsys, graph_file, tmp_path, service, op, spec):
        code, out, err = _batch(capsys, graph_file, tmp_path, spec)
        response = _wire(service, op, spec)
        assert code == 1 and out == ""
        assert response["ok"] is False
        assert err == [f"error: {response['error']}"]

    @pytest.mark.parametrize(("flags", "spec"), [
        (("--top-k", "-1"), {"k": -1}),
        (("--top-k", "2", "--max-length", "-1"), {"k": 2, "max_length": -1}),
        (("--max-length", "-1"), {"max_length": -1}),
    ], ids=["k", "top-k-max-length", "max-length"])
    def test_paths_argv_and_wire_refuse_alike(
            self, capsys, graph_file, service, flags, spec):
        code, out, err = _cli(capsys, graph_file, "paths", "--source", "0",
                              "--target", "2", *flags)
        response = _wire(service, "top_k", {**POINT, **spec})
        assert code == 1 and out == ""
        assert err == [f"error: {response['error']}"]


    @pytest.mark.parametrize("spec", [
        {"start": "S", "sources": {"a": 1}},
        {"start": "S", "source": {"a": 1}, "target": 2},
    ], ids=["sources", "source"])
    def test_object_node_is_refused_on_both_surfaces(
            self, capsys, graph_file, tmp_path, service, spec):
        """A JSON object is no node: refused in-band, not a TypeError
        from hashing it."""
        text = "a node is a JSON string or number, not an object or a list"
        code, out, err = _batch(capsys, graph_file, tmp_path, spec)
        assert code == 1 and out == ""
        assert err == [f"error: {text}"]
        if "source" in spec:
            response = _wire(service, "batch", {"queries": [spec]})
            assert response["result"] == [{
                "ok": False, "error": text, "error_type": "SemanticsError"}]

    def test_batch_line_that_is_not_json_names_its_line(
            self, capsys, graph_file, tmp_path):
        path = tmp_path / "batch.jsonl"
        path.write_text('{"start": "S"}\n\n{"start": "S",\n',
                        encoding="utf-8")
        code, out, err = _cli(capsys, graph_file, "query", "--batch",
                              str(path), "--json")
        assert code == 1 and out == ""
        [line] = err
        assert line.startswith(f"error: {path} line 3: bad JSON: ")


class TestOneAnswer:
    @pytest.mark.parametrize("spec", [
        {"start": "S"}, POINT, {"start": "S", "source": 2, "target": 0},
        {"start": "S", "source": "0", "target": "2"}, ["S", 0, 2],
    ], ids=["whole", "member", "not-member", "string-tokens", "list"])
    def test_batch_line_answers_as_the_wire(
            self, capsys, graph_file, tmp_path, service, spec):
        code, out, _err = _batch(capsys, graph_file, tmp_path, spec)
        request = spec if isinstance(spec, dict) else dict(
            zip(("start", "source", "target"), spec))
        response = _wire(service, "query", request)
        assert code == 0 and response["ok"] is True
        assert json.loads(out)["answers"] == [_strs(response["result"])]

    def test_path_argv_answers_as_the_wire(self, capsys, graph_file,
                                           service):
        code, out, _err = _cli(capsys, graph_file, "path", "--source", "0",
                               "--target", "2", "--json")
        response = _wire(service, "query",
                         {**POINT, "semantics": "single-path"})
        assert code == 0 and response["ok"] is True
        assert json.loads(out) == _strs(response["result"])

    def test_paths_argv_answers_as_the_wire(self, capsys, graph_file,
                                            ranking):
        code, out, _err = _cli(capsys, graph_file, "paths", "--source", "0",
                               "--target", "2", "--top-k", "3",
                               "--semiring", ranking, "--json")
        response = _wire(_service(graph_file, ranking), "top_k",
                         {**POINT, "k": 3})
        assert code == 0 and response["ok"] is True
        assert json.loads(out) == _strs(response["result"]["paths"])


def test_tuple_nodes_are_nodes():
    """A tuple is a node, not a node list: ``repeat_graph`` names its
    nodes ``(copy, node)``, and the Python API takes them as endpoints."""
    graph = repeat_graph(word_chain(["a", "b"]), 2)
    service = QueryService(graph, get_grammar("dyck1"))
    assert service.query("S", (1, 0), (1, 2)) is True
    assert service.query_batch([("S", (1, 0), (1, 2)),
                                ("S", (0, 0), (1, 2))]) == [True, False]


class TestUnknownKeys:
    """Each of these answered the whole relation before: the reader
    dropped the key it did not read."""

    def test_wire_query_refuses_sources(self, service):
        response = _wire(service, "query", {"start": "S", "sources": [0]})
        assert response["ok"] is False
        assert response["error"] == ("the server's query requests and "
                                     "batch items do not read 'sources'")

    def test_wire_batch_item_refuses_sources_and_targets(self, service):
        response = _wire(service, "batch", {"queries": [
            {"start": "S", "sources": [0], "targets": [2]}, POINT]})
        assert response["ok"] is True
        refused, answered = response["result"]
        assert refused["ok"] is False
        assert refused["error"].endswith("do not read 'sources'")
        assert answered == {"ok": True, "result": True}

    def test_misspelled_top_k_key(self, service):
        response = _wire(service, "top_k", {**POINT, "kk": 2})
        assert response["ok"] is False
        assert response["error"].startswith("unknown key 'kk'")

    def test_update_refuses_delet_before_it_ticks(self, service):
        edges = service.graph.edge_count
        response = _wire(service, "update", {"insert": [[2, "a", 3]],
                                             "delet": [[0, "a", 1]]})
        assert response["ok"] is False
        assert response["error"] == ("unknown key 'delet'; update reads "
                                     "ops, insert, delete")
        assert service.graph.edge_count == edges
        assert service.stats["ticks"] == 0

    def test_key_free_ops_refuse_any_key(self, service):
        response = _wire(service, "stats", {"verbose": True})
        assert response["ok"] is False
        assert response["error"] == \
            "unknown key 'verbose'; stats reads no other key"

    def test_batch_line_refuses_soruce(self, capsys, graph_file, tmp_path):
        code, out, err = _batch(capsys, graph_file, tmp_path,
                                {"start": "S", "soruce": 0})
        assert code == 1 and out == ""
        assert err[0].startswith("error: unknown key 'soruce'")

    @pytest.mark.parametrize("semantics", ["membership", "all-path"])
    def test_a_form_of_another_surface_is_refused(self, service,
                                                  semantics):
        response = _wire(service, "query", {**POINT, "semantics": semantics})
        assert response["error"] == ("the server's query requests and batch "
                                     f"items do not answer {semantics!r} "
                                     "queries")

    def test_batch_line_refuses_wire_semantics(self, capsys, graph_file,
                                               tmp_path):
        code, _out, err = _batch(capsys, graph_file, tmp_path,
                                 {**POINT, "semantics": "length"})
        assert code == 1
        assert err == ["error: query --batch lines do not answer 'length' "
                       "queries"]


class TestEnvelope:
    @pytest.fixture(autouse=True)
    def _traced(self):
        sink = MemorySink()
        configure_tracing(sink=sink)
        yield sink
        reset_tracing()

    def test_forwarded_lines_carry_rid_and_are_answered(
            self, _traced, ranking, graph_file, jsonl_connect):
        """A traced leader stamps ``_rid`` into every read it forwards;
        the follower reads it as the envelope, not as a query key."""
        leader = _service(graph_file, ranking)
        with ServerThread(_service(graph_file, ranking)) as follower, \
                ServerThread(leader, replicas=[follower.address]) as front:
            call = jsonl_connect(front.address)
            assert call({"op": "query", **POINT})["result"] is True
            assert call({"op": "batch", "queries": [POINT]})["result"] == \
                [{"ok": True, "result": True}]
            assert call({"op": "top_k", **POINT})["ok"] is True
        records = _traced.drain()
        forwarded = {record["attrs"]["rid"] for record in records
                     if record["name"] == "server.forward"}
        answered = {record["attrs"]["rid"] for record in records
                    if record["name"] == "server.request"}
        assert len(forwarded) == 3 and forwarded <= answered
