"""The ``batch`` wire op: a list of query specs in, an ordered list of
per-item envelopes out, each item answered as the ``query`` op would
answer it — locally or by a follower replica — and single ``query``
requests over TCP, concurrent or in order behind an ``update``."""

from __future__ import annotations

import json
import socket
import threading

import pytest

from repro import QueryService, parse_grammar
from repro.graph.generators import two_cycles
from repro.service.server import ServerThread, handle_request

ANBN = parse_grammar("S -> a S b | a b", terminals=["a", "b"])


@pytest.fixture
def service():
    return QueryService(two_cycles(2, 3), ANBN, single_path=True)


def _session(address, requests):
    with socket.create_connection(address, timeout=10) as sock:
        stream = sock.makefile("rw", encoding="utf-8")
        out = []
        for request in requests:
            stream.write(json.dumps(request) + "\n")
            stream.flush()
            out.append(json.loads(stream.readline()))
        return out


class TestBatchOp:
    def test_ordered_answers(self, service):
        response = handle_request(service, {"op": "batch", "queries": [
            {"start": "S", "source": 0, "target": 0},
            {"start": "S"},
            {"start": "S", "source": "0", "target": "1"},  # coerced tokens
            ["S", "0", "0"],                                # list form too
        ]})
        assert response["ok"] is True
        items = response["result"]
        assert len(items) == 4
        assert items[0] == {"ok": True, "result": True}
        assert items[1]["ok"] and [0, 0] in items[1]["result"]
        assert items[2]["ok"] and isinstance(items[2]["result"], bool)
        assert items[3] == items[0]
        # The batch matches the single-query op item by item.
        single = handle_request(service, {
            "op": "query", "start": "S", "source": 0, "target": 0,
        })
        assert items[0]["result"] == single["result"]

    def test_per_item_errors_do_not_fail_the_batch(self, service):
        response = handle_request(service, {"op": "batch", "queries": [
            {"start": "S", "source": 0, "target": 0},
            {"start": "NoSuchNT", "source": 0, "target": 0},
            {"source": 0},
            {"start": "S", "source": 0, "target": 0,
             "semantics": "nope"},
        ]})
        assert response["ok"] is True
        items = response["result"]
        assert items[0]["ok"] is True
        assert items[1]["ok"] is False
        assert items[1]["error_type"] == "UnknownSymbolError"
        assert items[2]["ok"] is False
        assert items[2]["error_type"] == "SemanticsError"
        assert items[3]["ok"] is False and "nope" in items[3]["error"]

    def test_queries_must_be_a_list(self, service):
        for bad in ({"op": "batch"},
                    {"op": "batch", "queries": "not-a-list"}):
            response = handle_request(service, bad)
            assert response["ok"] is False
            assert "queries" in response["error"]

    def test_over_tcp(self, service):
        with ServerThread(service) as server:
            [response] = _session(server.address, [
                {"op": "batch", "queries": [
                    {"start": "S", "source": 0, "target": 0},
                    {"start": "S", "source": 0, "target": 1},
                ]},
            ])
        assert response["ok"] is True
        assert [item["ok"] for item in response["result"]] == [True, True]


class TestSingleQueries:
    """Single ``query`` requests over TCP, each answered on its own."""

    def test_concurrent_queries(self, service):
        """Concurrent clients each get the single-query envelope with
        the answer a direct query gives."""
        expected = {i: service.query("S", i, i) for i in range(4)}
        with ServerThread(service, include_stats=True) as server:
            responses: list = [None] * 8

            def client(index):
                source = index % 4
                responses[index] = _session(server.address, [
                    {"op": "query", "start": "S",
                     "source": source, "target": source},
                ])[0]

            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        for index, response in enumerate(responses):
            assert response["ok"] is True, response
            assert response["op"] == "query"
            assert response["result"] == expected[index % 4], index
            assert "stats" in response

    def test_sequential_queries(self, service):
        with ServerThread(service) as server:
            responses = _session(server.address, [
                {"op": "query", "start": "S", "source": 0, "target": 0},
                {"op": "query", "start": "S"},
                {"op": "query", "start": "Nope"},
                {"op": "ping"},
            ])
        assert responses[0] == {"ok": True, "op": "query", "result": True}
        assert responses[1]["ok"] and [0, 0] in responses[1]["result"]
        assert responses[2]["ok"] is False
        assert responses[2]["error_type"] == "UnknownSymbolError"
        assert responses[3]["ok"] is True

    def test_missing_start_error_envelope(self, service):
        with ServerThread(service) as server:
            [response] = _session(server.address, [
                {"op": "query", "source": 0, "target": 0},
            ])
        assert response["ok"] is False
        assert "start" in response["error"]

    def test_query_sees_the_update_before_it(self, service):
        """Requests on one connection run in order: a query observes
        the tick sent ahead of it."""
        with ServerThread(service) as server:
            responses = _session(server.address, [
                {"op": "query", "start": "S",
                 "source": "p", "target": "p"},
                {"op": "update", "insert": [["p", "a", "q"],
                                            ["q", "b", "p"]]},
                {"op": "query", "start": "S",
                 "source": "p", "target": "p"},
            ])
        assert responses[0] == {"ok": True, "op": "query", "result": False}
        assert responses[1]["ok"] is True
        assert responses[2]["result"] is True

    def test_batch_and_query_share_cache_entries(self, service):
        with ServerThread(service) as server:
            _session(server.address, [
                {"op": "batch", "queries": [{"start": "S"}]},
                {"op": "query", "start": "S"},
            ])
        stats = service.stats
        assert (stats["cache_hits"], stats["cache_misses"]) == (1, 1)
        assert stats["batch"]["queries"] == 1


class TestBatchFanOut:
    def test_leader_forwards_batches_to_replicas(self, service, tmp_path):
        """A ``batch`` request hits the read fan-out like a single
        query: the whole list is answered by a follower replica."""
        from repro.service.replica import FollowerService, ReplicatedService
        from repro.service.wal import TickLog

        leader = ReplicatedService(service, TickLog(str(tmp_path / "wal")))
        snapshot = str(tmp_path / "index.snapshot")
        leader.save_snapshot(snapshot)
        follower = FollowerService.from_snapshot(snapshot, leader.log.path)
        with ServerThread(follower) as f0:
            with ServerThread(leader, replicas=[f0.address]) as front:
                [response] = _session(front.address, [
                    {"op": "batch", "queries": [
                        {"start": "S", "source": 0, "target": 0},
                        {"start": "S", "source": 0, "target": 1},
                    ]},
                ])
                assert response["ok"] is True
                assert [item["ok"] for item in response["result"]] \
                    == [True, True]
                assert response["result"][0]["result"] is True
        # The leader itself never answered: the follower served it.
        assert follower.stats["queries"] >= 2
        assert leader.stats["queries"] == 0
