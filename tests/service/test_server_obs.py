"""Server-side observability: the ``metrics`` wire op, request
metrics, the slow-query log, and the HTTP scrape endpoint."""

from __future__ import annotations

import io
import json
import socket
import urllib.error
import urllib.request

import pytest

from repro import QueryService, parse_grammar
from repro.graph.generators import two_cycles
from repro.obs.export import start_metrics_server
from repro.obs.metrics import get_registry, reset_metrics
from repro.obs.trace import MemorySink, configure_tracing, reset_tracing
from repro.service.server import (
    ServerThread,
    handle_request,
    serve_stream,
    set_slow_query_log,
)

ANBN = parse_grammar("S -> a S b | a b", terminals=["a", "b"])


@pytest.fixture(autouse=True)
def _fresh_observability():
    reset_metrics()
    reset_tracing()
    set_slow_query_log(None)
    yield
    reset_metrics()
    reset_tracing()
    set_slow_query_log(None)


@pytest.fixture
def service():
    return QueryService(two_cycles(2, 3), ANBN)


class TestMetricsOp:
    def test_metrics_op_returns_prometheus_text(self, service):
        handle_request(service, {"op": "ping"})
        response = handle_request(service, {"op": "metrics"})
        assert response["ok"] is True
        assert response["result"]["format"] == "prometheus"
        text = response["result"]["text"]
        assert 'repro_requests_total{op="ping"} 1' in text
        assert "# TYPE repro_requests_total counter" in text
        assert "# TYPE repro_request_seconds histogram" in text

    def test_request_metrics_count_every_op(self, service):
        handle_request(service, {"op": "query", "start": "S"})
        handle_request(service, {"op": "query", "start": "S"})
        handle_request(service, {"op": "nonsense"})
        registry = get_registry()
        requests = registry.get("repro_requests_total")
        assert requests.value(op="query") == 2
        # Errors still count under the op they claimed.
        assert requests.value(op="nonsense") == 1
        latency = registry.get("repro_request_seconds")
        assert latency.count(op="query") == 2

    def test_metrics_op_over_stdio_session(self, service):
        session = "\n".join([
            json.dumps({"op": "query", "start": "S"}),
            json.dumps({"op": "metrics"}),
        ]) + "\n"
        out = io.StringIO()
        serve_stream(service, io.StringIO(session), out)
        responses = [json.loads(line)
                     for line in out.getvalue().splitlines()]
        assert all(response["ok"] for response in responses)
        text = responses[1]["result"]["text"]
        assert 'repro_requests_total{op="query"} 1' in text
        # The query also published cache-outcome metrics.
        assert "repro_cache_requests_total" in text

    def test_unknown_op_error_advertises_metrics(self, service):
        response = handle_request(service, {"op": "bogus"})
        assert response["ok"] is False
        assert "metrics" in response["error"]


class TestSlowQueryLog:
    def test_slow_request_recorded_with_span_tree(self, service,
                                                  tmp_path):
        log_path = tmp_path / "slow.jsonl"
        configure_tracing(enabled=True)
        set_slow_query_log(0.0, str(log_path))  # everything is "slow"
        handle_request(service, {"op": "query", "start": "S"})
        entries = [json.loads(line)
                   for line in log_path.read_text().splitlines()]
        assert len(entries) == 1
        entry = entries[0]
        assert entry["op"] == "query"
        assert entry["seconds"] >= 0
        names = {span["name"] for span in entry["spans"]}
        assert "server.request" in names
        request_span = next(span for span in entry["spans"]
                            if span["name"] == "server.request")
        assert request_span["attrs"]["op"] == "query"
        assert request_span["attrs"]["rid"] == entry["rid"]
        # Every recorded span belongs to this request's trace.
        assert {span["trace_id"] for span in entry["spans"]} \
            == {request_span["trace_id"]}

    def test_fast_request_not_recorded(self, service, tmp_path):
        log_path = tmp_path / "slow.jsonl"
        configure_tracing(enabled=True)
        set_slow_query_log(60_000.0, str(log_path))  # a minute
        handle_request(service, {"op": "query", "start": "S"})
        assert not log_path.exists()

    def test_environment_config_resolved_lazily(self, service, tmp_path):
        log_path = tmp_path / "slow.jsonl"
        configure_tracing(enabled=True)
        set_slow_query_log(0, str(log_path))
        handle_request(service, {"op": "ping"})
        entries = log_path.read_text().splitlines()
        assert len(entries) == 1
        assert json.loads(entries[0])["op"] == "ping"
        set_slow_query_log(None)  # turns the log off
        handle_request(service, {"op": "ping"})
        assert log_path.read_text().splitlines() == entries

    def test_disabled_without_tracer(self, service, tmp_path):
        # Slow-query needs live spans; with the NULL tracer it is inert.
        log_path = tmp_path / "slow.jsonl"
        set_slow_query_log(0.0, str(log_path))
        handle_request(service, {"op": "query", "start": "S"})
        assert not log_path.exists()


class TestServedRequestSpans:
    def test_whole_relation_shows_its_worker_phases(self, service,
                                                    jsonl_connect):
        """A traced TCP session: the request span opens when the line
        arrives and closes after the reply is encoded, so the worker
        queue (``server.worker_wait``), the build and sort
        (``server.compute``) and the encoding (``server.encode``) of a
        whole relation all sit inside it; a point read stays inline."""
        sink = MemorySink()
        configure_tracing(sink=sink)
        with ServerThread(service) as server:
            call = jsonl_connect(server.address)
            assert call({"op": "query", "start": "S"})["ok"]
            assert call({"op": "query", "start": "S", "source": 0,
                         "target": 0})["ok"]
        records = sink.drain()
        requests = [record for record in records
                    if record["name"] == "server.request"]
        assert len(requests) == 2
        whole, point = requests
        by_id = {record["span_id"]: record for record in records}

        def phases(request):
            found = {}
            for record in records:
                parent = by_id.get(record["parent_id"])
                while parent is not None and parent is not request:
                    parent = by_id.get(parent["parent_id"])
                if parent is request:
                    found.setdefault(record["name"], []).append(record)
            return found

        inside = phases(whole)
        assert {"server.worker_wait", "server.compute",
                "server.encode"} <= set(inside)
        assert {record["trace_id"] for spans in inside.values()
                for record in spans} == {whole["trace_id"]}
        waits = inside["server.worker_wait"]
        assert sum(record["dur_s"] for record in waits) <= whole["dur_s"]
        # A cache miss computes twice (build, then sort); one encode.
        assert len(inside["server.compute"]) == 2
        assert len(inside["server.encode"]) == 1
        for record in inside["server.compute"] + inside["server.encode"]:
            assert by_id[record["parent_id"]]["name"] == "server.worker_wait"
            assert record["ts"] >= whole["ts"]
        assert "server.worker_wait" not in phases(point)

    def test_request_latency_counts_from_arrival(self, service):
        """``repro_request_seconds`` covers a TCP request from its line
        to its encoded reply, one observation per request."""
        with ServerThread(service) as server:
            session = socket.create_connection(server.address, timeout=30)
            stream = session.makefile("rw", encoding="utf-8")
            for request in ({"op": "query", "start": "S"}, {"op": "ping"}):
                stream.write(json.dumps(request) + "\n")
                stream.flush()
                assert json.loads(stream.readline())["ok"]
            session.close()
        latency = get_registry().get("repro_request_seconds")
        assert latency.count(op="query") == 1
        assert latency.count(op="ping") == 1


class TestMetricsHTTPEndpoint:
    def test_scrape_and_404(self, service):
        handle_request(service, {"op": "ping"})
        server = start_metrics_server("127.0.0.1:0")
        try:
            host, port = server.address
            with urllib.request.urlopen(
                    f"http://{host}:{port}/metrics", timeout=5) as reply:
                body = reply.read().decode("utf-8")
                content_type = reply.headers["Content-Type"]
            assert 'repro_requests_total{op="ping"} 1' in body
            assert content_type.startswith("text/plain")
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(
                    f"http://{host}:{port}/other", timeout=5)
        finally:
            server.close()

    def test_port_only_address(self):
        server = start_metrics_server("0")
        try:
            assert server.address[1] > 0
        finally:
            server.close()
