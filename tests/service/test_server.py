"""JSONL server: request handling, stdio loop, TCP transport, CLI."""

from __future__ import annotations

import io
import json
import os
import select
import socket
import struct
import subprocess
import sys
import threading
import time

import pytest

from repro import QueryService, parse_grammar
from repro.graph.generators import two_cycles, word_chain
from repro.graph.io import save_graph_file
from repro.graph.labeled_graph import LabeledGraph
from repro.service.server import (
    DEFAULT_MAX_LINE_BYTES,
    ServerThread,
    handle_request,
    serve_stream,
)

ANBN = parse_grammar("S -> a S b | a b", terminals=["a", "b"])


@pytest.fixture
def service():
    return QueryService(two_cycles(2, 3), ANBN, single_path=True)


class TestHandleRequest:
    def test_relational_query(self, service):
        response = handle_request(service, {"op": "query", "start": "S"})
        assert response["ok"] is True
        assert [0, 0] in response["result"]

    def test_membership_and_path(self, service):
        member = handle_request(service, {
            "op": "query", "start": "S", "source": 0, "target": 0,
        })
        assert member["result"] is True
        path = handle_request(service, {
            "op": "query", "start": "S", "source": 0, "target": 0,
            "semantics": "single-path",
        })
        assert path["ok"] and len(path["result"]) >= 2
        assert all(len(edge) == 3 for edge in path["result"])

    def test_node_coercion_for_string_tokens(self, service):
        # Graph nodes are ints; JSON clients may send "0".
        response = handle_request(service, {
            "op": "query", "start": "S", "source": "0", "target": "0",
        })
        assert response["result"] is True

    def test_non_canonical_string_tokens_have_no_int_twin(self, service):
        """``"00"`` is a name of its own, as in a graph file: it does not
        fall back to the int node 0."""
        query = {"op": "query", "start": "S", "source": "00", "target": "0"}
        assert handle_request(service, query)["result"] is False
        response = handle_request(service, {**query,
                                            "semantics": "single-path"})
        assert response["ok"] is False
        assert "'00'" in response["error"]

    def test_update_coerces_node_tokens_like_queries(self, service):
        """String tokens in updates must attach to the existing integer
        nodes, not silently create twin nodes."""
        nodes_before = service.graph.node_count
        response = handle_request(service, {
            "op": "update",
            "insert": [["0", "a", "1"]],        # both nodes exist as ints
            "delete": [["0", "a", "1"]],
        })
        assert response["ok"], response
        assert service.graph.node_count == nodes_before
        assert not service.graph.has_node("0")
        assert service.query("S", 0, 0) is False  # real edge 0-a->1 deleted

    def test_update_and_stats(self, service):
        handle_request(service, {"op": "query", "start": "S"})
        update = handle_request(service, {
            "op": "update",
            "ops": [["insert", "u", "a", "v"], ["delete", "u", "a", "v"],
                    ["insert", "u", "a", "v"]],
            "insert": [["v", "b", "u"]],
        })
        assert update["ok"] is True
        assert update["result"]["coalesced_away"] == 2
        assert update["result"]["frontier_runs"] == 1
        stats = handle_request(service, {"op": "stats"})["result"]
        assert stats["ticks"] == 1
        assert stats["cache_invalidations"] == update["result"][
            "invalidated_entries"]

    def test_save_and_reload(self, service, tmp_path):
        path = str(tmp_path / "via-server.snapshot")
        response = handle_request(service, {"op": "save", "path": path})
        assert response["ok"] and response["result"]["bytes"] > 0
        warm = QueryService.from_snapshot(path)
        assert warm.stats["startup"]["closure_iterations"] == 0

    def test_errors_are_responses_not_exceptions(self, service):
        for request in (
            "not an object",
            {"op": "no-such-op"},
            {"op": "query"},                              # missing start
            {"op": "query", "start": "Missing"},          # unknown symbol
            {"op": "query", "start": "S", "source": 0},   # half endpoints
            {"op": "query", "start": "S", "source": 9, "target": 9,
             "semantics": "single-path"},                 # no such path
            {"op": "update"},
            {"op": "save"},
        ):
            response = handle_request(service, request)
            assert response["ok"] is False
            assert response["error"]

    def test_stats_attachment(self, service):
        response = handle_request(service, {"op": "ping"},
                                  include_stats=True)
        assert response["result"] == "pong"
        assert "cache_hit_rate" in response["stats"]
        assert "startup" in response["stats"]

    def test_stats_captured_in_operation_critical_section(
            self, service, jsonl_connect):
        """Regression: attached stats used to be read *after* the
        response was built, outside any lock — a concurrent tick could
        make them disagree with the response they ride on.  The event
        loop owns the service now and reads them right after the op, so
        an update's stats always reflect exactly that tick."""
        with ServerThread(service, include_stats=True) as server:
            call = jsonl_connect(server.address)
            response = call({"op": "update", "insert": [["p", "a", "q"]]})
            assert response["ok"]
            assert response["stats"]["ticks"] == 1

            # A later tick from another connection cannot skew it.
            captured = response["stats"]
            other = jsonl_connect(server.address)
            assert other({"op": "update", "delete": [["p", "a", "q"]]})[
                "stats"]["ticks"] == 2
            assert captured["ticks"] == 1
            assert call({"op": "stats"})["result"]["ticks"] == 2


class TestTopKOp:
    @pytest.fixture
    def topk_service(self, ranking):
        # Three a-paths 1 -> 5, of lengths 1, 2 and 3.
        graph = LabeledGraph.from_edges([
            (1, "a", 5),
            (1, "a", 2), (2, "a", 5),
            (1, "a", 3), (3, "a", 4), (4, "a", 5),
        ])
        grammar = parse_grammar("S -> a | a S", terminals=["a"])
        return QueryService(graph, grammar, semiring=ranking)

    def test_best_first_page(self, topk_service):
        response = handle_request(topk_service, {
            "op": "top_k", "start": "S", "source": 1, "target": 5, "k": 2,
        })
        assert response["ok"], response
        result = response["result"]
        assert [len(path) for path in result["paths"]] == [1, 2]
        assert result["paths"][0] == [[1, "a", 5]]
        assert result["next_cursor"] == 2
        assert result["exhausted"] is False

    def test_cursor_pagination_protocol(self, topk_service):
        collected = []
        cursor, exhausted = 0, False
        while not exhausted:
            response = handle_request(topk_service, {
                "op": "top_k", "start": "S", "source": 1, "target": 5,
                "k": 2, "cursor": cursor,
            })
            assert response["ok"], response
            result = response["result"]
            collected.extend(result["paths"])
            cursor, exhausted = result["next_cursor"], result["exhausted"]
        assert [len(path) for path in collected] == [1, 2, 3]
        assert cursor == 3

    def test_string_tokens_coerce_and_bound_applies(self, topk_service):
        response = handle_request(topk_service, {
            "op": "top_k", "start": "S", "source": "1", "target": "5",
            "k": 5, "max_length": 2,
        })
        assert response["ok"], response
        result = response["result"]
        assert [len(path) for path in result["paths"]] == [1, 2]

    def test_missing_node_is_empty_and_exhausted(self, topk_service):
        response = handle_request(topk_service, {
            "op": "top_k", "start": "S", "source": 99, "target": 5, "k": 3,
        })
        assert response["ok"], response
        assert response["result"] == {
            "paths": [], "next_cursor": 0, "exhausted": True,
        }

    def test_malformed_top_k_requests_are_error_responses(self, topk_service):
        for request in (
            {"op": "top_k"},                                   # no start
            {"op": "top_k", "start": "S"},                     # no endpoints
            {"op": "top_k", "start": "S", "source": 1},        # half
            {"op": "top_k", "start": "Missing",
             "source": 1, "target": 5},                        # unknown NT
            {"op": "top_k", "start": "S", "source": 1,
             "target": 5, "k": -2},                            # bad k
            {"op": "top_k", "start": "S", "source": 1,
             "target": 5, "k": 2.5},                           # not 2
            {"op": "top_k", "start": "S", "source": 1,
             "target": 5, "k": "3"},                           # not 3
            {"op": "top_k", "start": "S", "source": 1,
             "target": 5, "k": True},                          # not 1
        ):
            response = handle_request(topk_service, request)
            assert response["ok"] is False, request
            assert response["error"]

    def test_non_integer_numbers_are_refused_not_coerced(self, topk_service):
        for field, value in (("k", 2.5), ("k", "3"), ("k", True),
                             ("cursor", 1.0), ("max_length", "2"),
                             ("k", 1000.5)):              # before the rank
            response = handle_request(topk_service, {
                "op": "top_k", "start": "S", "source": 1, "target": 5,
                field: value,
            })
            assert response["ok"] is False, (field, value)
            assert response["error_type"] == "SemanticsError"
            assert response["error"] == \
                f"{field} must be a non-negative int, not {value!r}"

    def test_pages_past_the_rank_limit_are_refused(self, topk_service):
        from repro.service.server import MAX_TOP_K_RANK

        def page(cursor, k):
            return handle_request(topk_service, {
                "op": "top_k", "start": "S", "source": 1, "target": 5,
                "k": k, "cursor": cursor,
            })

        for cursor, k in ((0, MAX_TOP_K_RANK + 1), (MAX_TOP_K_RANK, 1)):
            response = page(cursor, k)
            assert response["ok"] is False, (cursor, k)
            assert response["error_type"] == "ValueError"
        assert page(MAX_TOP_K_RANK - 1, 1)["ok"] is True

    def test_top_k_over_tcp_sees_ticks(self, topk_service):
        with ServerThread(topk_service) as server:
            [before] = _session(server.address, [
                {"op": "top_k", "start": "S",
                 "source": 2, "target": 5, "k": 2},
            ])
            assert [len(p) for p in before["result"]["paths"]] == [1]
            responses = _session(server.address, [
                {"op": "update", "insert": [[2, "a", 4]]},
                {"op": "top_k", "start": "S",
                 "source": 2, "target": 5, "k": 3},
            ])
            assert all(r["ok"] for r in responses)
            assert [len(p) for p in responses[1]["result"]["paths"]] \
                == [1, 2]


class TestStdioLoop:
    def test_scripted_session(self, service):
        lines = [
            {"op": "query", "start": "S"},
            {"op": "query", "start": "S"},
            "this is not json",
            {"op": "stats"},
        ]
        stdin = io.StringIO("\n".join(
            line if isinstance(line, str) else json.dumps(line)
            for line in lines
        ) + "\n")
        stdout = io.StringIO()
        served = serve_stream(service, stdin, stdout)
        responses = [json.loads(line)
                     for line in stdout.getvalue().splitlines()]
        assert served == 4
        assert [r["ok"] for r in responses] == [True, True, False, True]
        assert responses[3]["result"]["cache_hits"] == 1

    def test_unknown_start_names_are_rejected_without_interning(
            self, service):
        """Symbols are interned for the life of the process, so a name
        the grammar rejects must never become one: 1 000 requests with
        distinct bogus ``start`` names — every op that takes one — get
        in-band errors and leave the intern table as it was."""
        from repro.grammar.symbols import _INTERNED

        shapes = (
            {"op": "query"},
            {"op": "query", "source": 0, "target": 1},
            {"op": "query", "source": 0, "target": 1,
             "semantics": "single-path"},
            {"op": "top_k", "source": 0, "target": 1, "k": 2},
        )
        requests = [dict(shapes[n % len(shapes)], start=f"Bogus{n}")
                    for n in range(1000)]
        batch = {"op": "batch", "queries": [
            {"start": f"BatchBogus{n}", "source": 0, "target": 1}
            for n in range(8)]}
        stdin = io.StringIO("".join(
            json.dumps(request) + "\n" for request in requests + [batch]))
        stdout = io.StringIO()
        interned = len(_INTERNED)
        assert serve_stream(service, stdin, stdout) == 1001
        responses = [json.loads(line)
                     for line in stdout.getvalue().splitlines()]
        assert len(_INTERNED) == interned
        for response in responses[:1000]:
            assert response["ok"] is False
            assert "not part of the grammar" in response["error"]
        assert responses[1000]["ok"] is True
        for item in responses[1000]["result"]:
            assert item["ok"] is False
            assert "not part of the grammar" in item["error"]

    def test_shutdown_op_ends_loop(self, service):
        stdin = io.StringIO(
            json.dumps({"op": "shutdown"}) + "\n"
            + json.dumps({"op": "ping"}) + "\n"
        )
        stdout = io.StringIO()
        assert serve_stream(service, stdin, stdout) == 1


def _session(address, requests):
    """Open one connection, run *requests*, return the responses."""
    with socket.create_connection(address, timeout=10) as sock:
        stream = sock.makefile("rw", encoding="utf-8")
        out = []
        for request in requests:
            stream.write(json.dumps(request) + "\n")
            stream.flush()
            out.append(json.loads(stream.readline()))
        return out


class TestTCP:
    def test_concurrent_clients_share_state(self, service):
        with ServerThread(service) as server:
            results: list = [None, None]

            def client(index):
                results[index] = _session(server.address,
                                          [{"op": "query", "start": "S"}])

            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert results[0][0]["result"] == results[1][0]["result"]

            # An update through one connection is visible to the next.
            _session(server.address,
                     [{"op": "update", "insert": [["p", "a", "q"],
                                                  ["q", "b", "p"]]}])
            check = _session(server.address,
                             [{"op": "query", "start": "S",
                               "source": "p", "target": "p"}])
            assert check[0]["result"] is True
            stats = _session(server.address,
                             [{"op": "stats"}])[0]["result"]
            assert stats["ticks"] == 1 and stats["queries"] >= 3

    def test_concurrent_mixed_query_update_sessions(self, service):
        """Many connections interleaving queries and ticks: every
        response is well-formed, and queries always observe a completed
        fixpoint (True/False, never an exception response)."""
        with ServerThread(service) as server:
            errors: list = []

            def reader():
                for _ in range(10):
                    [response] = _session(server.address, [
                        {"op": "query", "start": "S",
                         "source": 0, "target": 0},
                    ])
                    if not response["ok"]:
                        errors.append(response)

            def writer(name):
                for i in range(5):
                    edge = [f"{name}-{i}", "a", f"{name}-{i + 1}"]
                    for op in ("insert", "delete"):
                        [response] = _session(server.address,
                                              [{"op": "update",
                                                op: [edge]}])
                        if not response["ok"]:
                            errors.append(response)

            threads = [threading.Thread(target=reader) for _ in range(4)]
            threads += [threading.Thread(target=writer, args=(f"w{i}",))
                        for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert errors == []
            stats = _session(server.address, [{"op": "stats"}])[0]["result"]
            assert stats["ticks"] == 20
            # All the writers' scratch edges were deleted again.
            assert _session(server.address, [
                {"op": "query", "start": "S", "source": 0, "target": 0},
            ])[0]["result"] is True

    def test_shutdown_stops_whole_server(self, service):
        """Regression: a ``shutdown`` op must stop the *server*, not
        just the issuing connection — another open connection observes
        the close, and new connections are refused."""
        with ServerThread(service) as server:
            bystander = socket.create_connection(server.address, timeout=10)
            bystander_stream = bystander.makefile("rw", encoding="utf-8")
            # Prove the bystander connection is live first.
            bystander_stream.write(json.dumps({"op": "ping"}) + "\n")
            bystander_stream.flush()
            assert json.loads(bystander_stream.readline())["ok"]

            [response] = _session(server.address, [{"op": "shutdown"}])
            assert response["ok"] and response["result"] == "bye"

            # The second connection reads EOF: the whole server stopped.
            bystander.settimeout(10)
            assert bystander_stream.readline() == ""
            bystander.close()

            server._thread.join(timeout=10)
            assert not server._thread.is_alive()
            with pytest.raises(OSError):
                socket.create_connection(server.address, timeout=2)

    def test_client_disconnect_mid_line_is_absorbed(self, service):
        """Regression: a client vanishing mid-request (or before reading
        its response) must not take the server down or leak into other
        connections."""
        with ServerThread(service) as server:
            # Half a request, then a hard close (RST via SO_LINGER).
            rude = socket.create_connection(server.address, timeout=10)
            rude.sendall(b'{"op": "query", "start"')
            rude.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                            struct.pack("ii", 1, 0))
            rude.close()

            # A full request whose response is never read, then RST.
            rude2 = socket.create_connection(server.address, timeout=10)
            rude2.sendall(json.dumps({"op": "query", "start": "S"})
                          .encode() + b"\n")
            rude2.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                             struct.pack("ii", 1, 0))
            rude2.close()

            # The server still serves politely-behaved clients.
            deadline = time.monotonic() + 10
            while True:
                try:
                    [response] = _session(server.address,
                                          [{"op": "ping"}])
                    break
                except (OSError, json.JSONDecodeError):
                    assert time.monotonic() < deadline
                    time.sleep(0.05)
            assert response["result"] == "pong"

    def test_oversized_frame_is_refused(self, service):
        with ServerThread(service, max_line_bytes=4096) as server:
            with socket.create_connection(server.address,
                                          timeout=10) as sock:
                stream = sock.makefile("rw", encoding="utf-8")
                stream.write('{"op": "query", "start": "'
                             + "S" * 8192 + '"}\n')
                stream.flush()
                response = json.loads(stream.readline())
                assert response["ok"] is False
                assert response["error_type"] == "FrameTooLongError"
                # The connection is closed: the stream cannot be
                # re-framed after an overlong line.
                assert stream.readline() == ""
            assert DEFAULT_MAX_LINE_BYTES > 4096
            # The server survives and accepts fresh connections.
            assert _session(server.address,
                            [{"op": "ping"}])[0]["result"] == "pong"

    def test_malformed_frames_get_error_responses(self, service):
        with ServerThread(service) as server:
            with socket.create_connection(server.address,
                                          timeout=10) as sock:
                stream = sock.makefile("rw", encoding="utf-8")
                for frame, expected in [
                    ("this is not json", "JSONDecodeError"),
                    ('["not", "an", "object"]', "ValueError"),
                    ('{"op": "no-such-op"}', "ValueError"),
                ]:
                    stream.write(frame + "\n")
                    stream.flush()
                    response = json.loads(stream.readline())
                    assert response["ok"] is False
                    assert response["error_type"] == expected
                # Blank lines are skipped, the connection stays usable.
                stream.write("\n" + json.dumps({"op": "ping"}) + "\n")
                stream.flush()
                assert json.loads(stream.readline())["result"] == "pong"

    def test_stats_ride_on_tcp_responses(self, service):
        with ServerThread(service, include_stats=True) as server:
            responses = _session(server.address, [
                {"op": "query", "start": "S"},
                {"op": "query", "start": "S"},
            ])
            assert responses[1]["stats"]["cache_hit_rate"] == 0.5


class TestOneOwner:
    """The event loop is the one caller of the service: ticks and point
    reads run on it; the worker thread only builds whole relations and
    writes snapshots, and never while a tick runs."""

    EDGES = [["p", "a", "q"], ["q", "b", "p"]]   # derive S(p, p)

    def test_the_event_loop_owns_the_service(self, ranking, monkeypatch,
                                             tmp_path, jsonl_connect):
        from repro.core.relations import ContextFreeRelations

        service = QueryService(two_cycles(2, 3), ANBN, single_path=True,
                               semiring=ranking)

        calls: list = []

        def record(cls, name):
            original = getattr(cls, name)

            def wrapper(*args, **kwargs):
                calls.append((name, threading.current_thread()))
                return original(*args, **kwargs)

            monkeypatch.setattr(cls, name, wrapper)

        for name in ("tick", "query_steps", "top_k_page", "_write_snapshot"):
            record(QueryService, name)
        record(ContextFreeRelations, "node_pairs")

        def threads_of(*names):
            return {thread for name, thread in calls if name in names}

        with ServerThread(service) as server:
            start = threading.Barrier(3)
            errors: list = []

            def client(requests):
                try:
                    call = jsonl_connect(server.address)
                    start.wait(timeout=10)
                    for request in requests:
                        response = call(request)
                        assert response["ok"], (request, response)
                except Exception as error:  # pragma: no cover
                    errors.append(error)

            points = [{"op": "query", "start": "S", "source": 0,
                       "target": 0},
                      {"op": "query", "start": "S", "source": 0,
                       "target": 0, "semantics": "single-path"},
                      {"op": "top_k", "start": "S", "source": 0,
                       "target": 0, "k": 2}] * 30
            wholes = [{"op": "query", "start": "S"},
                      {"op": "batch", "queries": [{"start": "S"},
                                                  ["S", 0, 0]]},
                      {"op": "save",
                       "path": str(tmp_path / "owner.snapshot")}] * 10
            ticks = [{"op": "update", op: self.EDGES}
                     for _ in range(10) for op in ("insert", "delete")]
            threads = [threading.Thread(target=client, args=(requests,))
                       for requests in (points, wholes, ticks)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert not errors

            loop = server._thread
            assert threads_of("tick", "query_steps", "top_k_page") == {loop}
            [worker] = threads_of("node_pairs", "_write_snapshot")
            assert worker is not loop
            assert worker.name.startswith("jsonl-worker")
            # 90 point reads + 10 whole relations + 10 batches of two:
            # no counter lost an update.
            call = jsonl_connect(server.address)
            assert call({"op": "stats"})["result"]["queries"] == 120

    def test_tick_waits_for_the_whole_relation_in_flight(
            self, service, monkeypatch, jsonl_connect):
        from repro.core.relations import ContextFreeRelations

        entered, release = threading.Event(), threading.Event()
        node_pairs = ContextFreeRelations.node_pairs

        def held_node_pairs(self, nonterminal):
            entered.set()
            release.wait(timeout=30)
            return node_pairs(self, nonterminal)

        with ServerThread(service) as server:
            # S(p, p) holds, and the tick drops S's cached relation.
            ticks = jsonl_connect(server.address)
            assert ticks({"op": "update", "insert": self.EDGES})["ok"]
            monkeypatch.setattr(ContextFreeRelations, "node_pairs",
                                held_node_pairs)
            reader = socket.create_connection(server.address, timeout=30)
            reader.sendall(b'{"op": "query", "start": "S"}\n')
            assert entered.wait(timeout=10)

            acked: list = []

            def tick():
                response = ticks({"op": "update", "delete": self.EDGES})
                # Its reply was written before the tick ran.
                ready, _, _ = select.select([reader], [], [], 0)
                acked.append((response["ok"], bool(ready)))

            ticker = threading.Thread(target=tick)
            ticker.start()
            ticker.join(timeout=0.3)
            assert ticker.is_alive()  # held behind the worker job
            release.set()
            ticker.join(timeout=10)
            assert acked == [(True, True)]
            reply = json.loads(reader.makefile(encoding="utf-8").readline())
            reader.close()
            monkeypatch.setattr(ContextFreeRelations, "node_pairs",
                                node_pairs)
            assert ["p", "p"] in reply["result"]  # the pre-tick relation
            after = ticks({"op": "query", "start": "S"})["result"]
            assert ["p", "p"] not in after


class TestServeCLI:
    def test_snapshot_then_serve_session(self, tmp_path):
        """The CI service-smoke recipe: snapshot, then a scripted
        query/update/query stdio session asserting invalidation stats."""
        graph_file = str(tmp_path / "chain.txt")
        save_graph_file(word_chain(["a", "a", "b", "b"]), graph_file)
        snapshot = str(tmp_path / "chain.snapshot")
        env = {**os.environ,
               "PYTHONPATH": "src" + os.pathsep
               + os.environ.get("PYTHONPATH", "")}
        cwd = os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))))

        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", "snapshot",
             "--graph", graph_file, "--grammar-name", "dyck1",
             "--output", snapshot,
             "--semantics", "relational", "single-path"],
            capture_output=True, text=True, env=env, cwd=cwd, timeout=120,
        )
        assert result.returncode == 0, result.stderr

        session = "\n".join(json.dumps(line) for line in [
            {"op": "query", "start": "S"},
            {"op": "query", "start": "S"},
            {"op": "update", "insert": [[4, "a", 5], [5, "b", 6]]},
            {"op": "query", "start": "S"},
            {"op": "stats"},
        ]) + "\n"
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", "serve",
             "--snapshot", snapshot, "--stats"],
            input=session, capture_output=True, text=True, env=env,
            cwd=cwd, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        responses = [json.loads(line)
                     for line in result.stdout.splitlines()]
        assert all(r["ok"] for r in responses)
        # Warm start: zero closure rounds before the first answer.
        assert responses[0]["stats"]["startup"]["closure_iterations"] == 0
        # Second identical query was a cache hit...
        assert responses[1]["stats"]["cache_hit_rate"] == 0.5
        # ...the tick invalidated it...
        assert responses[2]["stats"]["cache_invalidations"] == 1
        # ...and the re-query sees the new fixpoint.
        assert responses[3]["result"] != responses[1]["result"]
        final = responses[4]["result"]
        assert final["ticks"] == 1 and final["frontier_runs"] == 1
