"""Differential guarantee: tracing observes, it never steers.

The same solve with tracing off and tracing on (every span recorded)
must produce **byte-identical** results — relation pair
sets, iteration counts, multiplication counts — across every closure
strategy × backend combination.  Metrics share the guarantee: nothing
on a query path reads the registry.
"""

from __future__ import annotations

import json

import pytest

from repro.core.closure import available_strategies
from repro.core.matrix_cfpq import solve_matrix
from repro.graph.generators import random_graph
from repro.grammar.parser import parse_grammar
from repro.matrices.base import available_backends
from repro.obs.trace import MemorySink, configure_tracing, reset_tracing

GRAMMAR = parse_grammar("S -> a S b | a b | S S", terminals=["a", "b"])


def _canonical(result) -> bytes:
    """A byte-level fingerprint of everything a solve reports."""
    payload = {
        "pairs": sorted(map(list, result.relations.pairs("S"))),
        "iterations": result.stats.iterations,
        "multiplications": result.stats.multiplications,
        "delta_nnz": list(result.stats.delta_nnz_per_round),
        "total_entries": result.stats.total_entries,
    }
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def _solve(backend: str, strategy: str, **options):
    graph = random_graph(40, 140, ["a", "b"], seed=11)
    if strategy == "blocked":
        options.setdefault("tile_size", 16)
    return solve_matrix(graph, GRAMMAR, backend=backend,
                        strategy=strategy, **options)


@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize("strategy", available_strategies())
def test_trace_on_off_byte_identity(backend, strategy):
    configure_tracing(enabled=False)
    untraced = _canonical(_solve(backend, strategy))

    sink = MemorySink()
    configure_tracing(sink=sink)
    traced = _canonical(_solve(backend, strategy))
    records = sink.drain()
    reset_tracing()

    assert traced == untraced
    # And tracing actually happened — a vacuous pass would prove nothing.
    assert any(record["name"] == "closure" for record in records)


@pytest.mark.parametrize("backend", available_backends())
def test_trace_on_off_byte_identity_when_spilling(backend, tmp_path):
    """The spill counters feed the closure span; with every tile over a
    one-byte budget, tracing still leaves the results untouched."""
    options = {"tile_size": 16, "memory_budget": 1}
    configure_tracing(enabled=False)
    untraced = _solve(backend, "blocked", spill_dir=str(tmp_path / "off"),
                      **options)

    sink = MemorySink()
    configure_tracing(sink=sink)
    traced = _solve(backend, "blocked", spill_dir=str(tmp_path / "on"),
                    **options)
    records = sink.drain()
    reset_tracing()

    assert _canonical(traced) == _canonical(untraced)
    assert traced.stats.details["blocked"].tiles_spilled > 0
    assert any(record["name"] == "closure" for record in records)


def test_undrained_tracing_is_also_non_semantic():
    configure_tracing(enabled=False)
    untraced = _canonical(_solve("setmatrix", "delta"))
    configure_tracing(sink=MemorySink())
    traced = _canonical(_solve("setmatrix", "delta"))
    reset_tracing()
    assert traced == untraced
