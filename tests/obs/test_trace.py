"""Tracing: span nesting (including the blocked closure's tile groups),
sinks, the decorator, and the summarizer."""

from __future__ import annotations

import json

import pytest

from repro.graph.generators import random_graph
from repro.obs.summarize import render_summary, summarize_trace
from repro.obs.trace import (
    NULL_TRACER,
    MemorySink,
    TraceFileSink,
    Tracer,
    configure_tracing,
    get_tracer,
    reset_tracing,
    stopwatch,
    traced,
)


def _by_name(records):
    return {record["name"]: record for record in records}


class TestStopwatch:
    def test_freezes_on_exit(self):
        with stopwatch() as timer:
            pass
        frozen = timer.elapsed
        assert frozen == timer.elapsed >= 0

    def test_live_reading_grows(self):
        timer = stopwatch()
        first = timer.elapsed
        assert timer.elapsed >= first


class TestSpanNesting:
    def test_parent_child_ids(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        with tracer.span("outer", kind="test") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
                assert inner.trace_id == outer.trace_id
        records = _by_name(sink.drain())
        assert records["inner"]["parent_id"] == records["outer"]["span_id"]
        assert records["outer"]["parent_id"] is None
        assert records["outer"]["attrs"] == {"kind": "test"}
        assert records["inner"]["dur_s"] <= records["outer"]["dur_s"]

    def test_siblings_share_parent(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        with tracer.span("parent") as parent:
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        records = _by_name(sink.drain())
        assert records["a"]["parent_id"] == parent.span_id
        assert records["b"]["parent_id"] == parent.span_id

    def test_collect_sees_concurrent_records(self):
        tracer = Tracer(None)
        with tracer.collect() as records:
            with tracer.span("watched"):
                pass
        assert [record["name"] for record in records] == ["watched"]
        with tracer.span("after"):
            pass
        assert len(records) == 1  # collector detached


class TestNullTracer:
    def test_null_is_free_and_inert(self):
        assert NULL_TRACER.enabled is False
        with NULL_TRACER.span("anything", attr=1) as span:
            span.set("ignored", True)
        assert span.attrs == {}

    def test_environment_defaults_to_null(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE_FILE", raising=False)
        reset_tracing()
        assert get_tracer() is NULL_TRACER

    def test_environment_file_enables(self, monkeypatch, tmp_path):
        path = tmp_path / "trace.jsonl"
        monkeypatch.setenv("REPRO_TRACE_FILE", str(path))
        reset_tracing()
        tracer = get_tracer()
        assert tracer.enabled
        with tracer.span("envroot"):
            pass
        reset_tracing()
        assert "envroot" in path.read_text()


class TestTraceFileSink:
    def test_writes_jsonl(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = configure_tracing(trace_file=str(path))
        with tracer.span("a"):
            pass
        reset_tracing()
        lines = [json.loads(line)
                 for line in path.read_text().splitlines() if line]
        assert lines[0]["name"] == "a"

    def test_rotation_keeps_two_generations(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = TraceFileSink(str(path), max_bytes=400)
        tracer = Tracer(sink)
        for index in range(40):
            with tracer.span(f"span{index}"):
                pass
        sink.close()
        assert path.exists()
        assert (tmp_path / "trace.jsonl.1").exists()


class TestDecorator:
    def test_traced_uses_global_tracer(self):
        sink = MemorySink()
        configure_tracing(sink=sink)

        @traced(stage="t")
        def work(x):
            return x * 2

        assert work(21) == 42
        records = sink.drain()
        assert records[0]["name"].endswith("work")
        assert records[0]["attrs"] == {"stage": "t"}
        reset_tracing()


class TestBlockedSpanNesting:
    """Tile-group spans parent onto the round's compute span."""

    def test_tile_groups_parent_on_compute_span(self):
        from repro.core.matrix_cfpq import solve_matrix
        from repro.grammar.parser import parse_grammar

        sink = MemorySink()
        configure_tracing(sink=sink)
        graph = random_graph(48, 160, ["e"], seed=7)
        grammar = parse_grammar("S -> e | S S", terminals=["e"])
        solve_matrix(graph, grammar, backend="setmatrix", strategy="blocked",
                     tile_size=16)
        records = sink.drain()
        reset_tracing()
        groups = [r for r in records if r["name"] == "tile.group"]
        compute_ids = {r["span_id"] for r in records
                       if r["name"] == "closure.compute"}
        assert groups, "blocked closure produced no tile.group spans"
        assert all(g["parent_id"] in compute_ids for g in groups)
        assert all(g["attrs"]["tasks"] >= 1 for g in groups)


class TestSummarize:
    def _records(self):
        return [
            json.dumps({"name": "closure", "trace_id": "t", "span_id": "1",
                        "parent_id": None, "ts": 0.0, "dur_s": 1.0,
                        "attrs": {}}),
            json.dumps({"name": "closure.round", "trace_id": "t",
                        "span_id": "2", "parent_id": "1", "ts": 0.0,
                        "dur_s": 0.6, "attrs": {}}),
            json.dumps({"name": "closure.round", "trace_id": "t",
                        "span_id": "3", "parent_id": "1", "ts": 0.0,
                        "dur_s": 0.3, "attrs": {}}),
        ]

    def test_self_time_subtracts_direct_children(self):
        summary = summarize_trace(self._records())
        closure = summary["spans"]["closure"]
        rounds = summary["spans"]["closure.round"]
        assert closure["total_s"] == pytest.approx(1.0)
        assert closure["self_s"] == pytest.approx(0.1)
        assert rounds["count"] == 2
        assert rounds["self_s"] == pytest.approx(0.9)
        assert summary["total_self_s"] == pytest.approx(1.0)
        assert summary["traces"] == 1

    def test_render_contains_table(self):
        text = render_summary(summarize_trace(self._records()))
        assert "phase" in text and "self_s" in text
        assert "closure.round" in text

    def test_summarize_reads_files(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text("\n".join(self._records()) + "\n")
        summary = summarize_trace(str(path))
        assert summary["records"] == 3
