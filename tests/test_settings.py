"""The environment defaults of :mod:`repro.settings`: each is read when
its default is needed and parsed by its flag's code, a malformed value
is one :class:`~repro.errors.SettingsError` naming the variable, and the
CI cell that sets one gets what its comment promises."""

from __future__ import annotations

import pytest

from repro import settings
from repro.core.matrix_cfpq import solve_matrix
from repro.errors import SettingsError
from repro.grammar.parser import parse_grammar
from repro.graph.labeled_graph import LabeledGraph

NAMES = ("REPRO_MEMORY_BUDGET", "REPRO_TRACE_FILE")


@pytest.mark.parametrize("value", (None, "", "  "))
def test_unset_or_blank_is_the_built_in_default(value, monkeypatch):
    for name in NAMES:
        if value is None:
            monkeypatch.delenv(name, raising=False)
        else:
            monkeypatch.setenv(name, value)
    assert settings.memory_budget() is None
    assert settings.trace_file() is None


def test_values_parse_as_their_flags_do(monkeypatch):
    monkeypatch.setenv("REPRO_MEMORY_BUDGET", " 4M ")
    monkeypatch.setenv("REPRO_TRACE_FILE", "spans.jsonl")
    assert settings.memory_budget() == 4 * 1024 ** 2
    assert settings.trace_file() == "spans.jsonl"


def test_a_malformed_value_names_its_variable(monkeypatch):
    monkeypatch.setenv("REPRO_MEMORY_BUDGET", "bogus")
    with pytest.raises(SettingsError,
                       match="^REPRO_MEMORY_BUDGET: .*'bogus'"):
        settings.memory_budget()


def test_the_budget_cell_makes_a_blocked_closure_spill(monkeypatch):
    """CI's budget cell sets ``REPRO_MEMORY_BUDGET=4194304`` and nothing
    else: a blocked closure whose tiles outgrow it spills them."""
    monkeypatch.setenv("REPRO_MEMORY_BUDGET", "4194304")
    side = 320  # 102 400 setmatrix cells of ~48 accounted bytes each
    edges = [(x, "a", side + y) for x in range(side) for y in range(side)]
    edges.append((side, "b", 2 * side))
    graph = LabeledGraph.from_edges(edges)
    grammar = parse_grammar("S -> a b", terminals=["a", "b"])
    result = solve_matrix(graph, grammar, backend="setmatrix",
                          strategy="blocked")
    blocked = result.stats.details["blocked"]
    assert blocked.budget_bytes == 4194304
    assert blocked.tiles_spilled > 0
    assert result.relations.same_as(
        solve_matrix(graph, grammar, backend="setmatrix").relations)


def test_a_given_budget_wins_over_the_environment(monkeypatch):
    monkeypatch.setenv("REPRO_MEMORY_BUDGET", "4M")
    graph = LabeledGraph.from_edges([(0, "a", 1), (1, "b", 2)])
    grammar = parse_grammar("S -> a b", terminals=["a", "b"])
    result = solve_matrix(graph, grammar, strategy="blocked",
                          memory_budget="64K")
    assert result.stats.details["blocked"].budget_bytes == 64 * 1024

