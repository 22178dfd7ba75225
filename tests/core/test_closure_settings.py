"""One closure contract for every entry point.

Each public way to run or hold a closure reads its configuration through
:func:`repro.core.closure.closure_settings`: an unknown keyword is a
``TypeError``, a tile option given to a strategy that does not read it is
an :class:`~repro.errors.EngineError` with the CLI's text, the same
options under ``blocked`` answer as the defaults do, and the environment
budget is a default of ``blocked``, never a given option.
"""

from __future__ import annotations

import pytest

from repro.core.batch import solve_batch
from repro.core.closure import closure_settings, run_closure
from repro.core.engine import CFPQEngine
from repro.core.incremental import IncrementalCFPQ
from repro.core.matrix_cfpq import initial_boolean_matrices, solve_matrix
from repro.core.semiring import LENGTH_SEMIRING, merged_cells, solve_annotated
from repro.core.single_path import build_single_path_index
from repro.core.tilestore import MEMORY_BUDGET_ENV
from repro.errors import EngineError
from repro.grammar.builders import get_grammar
from repro.grammar.cnf import ensure_cnf
from repro.graph.generators import word_chain
from repro.matrices.base import default_backend, get_backend
from repro.service.query_service import QueryService

GRAPH = word_chain(list("aabb"))
GRAMMAR = ensure_cnf(get_grammar("dyck1"))
START = GRAMMAR.resolve_nonterminal("S")


def _run_closure(**settings):
    backend = get_backend(settings.pop("backend", None))
    matrices = initial_boolean_matrices(GRAPH, GRAMMAR, backend)
    rules = [(rule.head, *rule.body) for rule in GRAMMAR.binary_rules]
    closed = run_closure(matrices, rules, backend, **settings).matrices
    return sorted(closed[START].nonzero_pairs())


def _from_snapshot(tmp_path, **settings):
    path = str(tmp_path / "index.snapshot")
    CFPQEngine(GRAPH, GRAMMAR).save_snapshot(path, semantics=("relational",))
    return QueryService.from_snapshot(path, **settings).query("S")


#: Every entry point, called with closure settings; each returns its
#: answer for ``S`` on the chain.
ENTRY_POINTS = {
    "run_closure": lambda tmp_path, **settings: _run_closure(**settings),
    "solve_matrix": lambda tmp_path, **settings: solve_matrix(
        GRAPH, GRAMMAR, **settings).relations.node_pairs(START),
    "solve_annotated": lambda tmp_path, **settings: solve_annotated(
        GRAPH, GRAMMAR, LENGTH_SEMIRING, **settings).cells(),
    "build_single_path_index": lambda tmp_path, **settings: merged_cells(
        build_single_path_index(GRAPH, GRAMMAR, **settings).matrices),
    "solve_batch": lambda tmp_path, **settings: solve_batch(
        GRAPH, GRAMMAR, [{"start": "S"}], **settings),
    "CFPQEngine": lambda tmp_path, **settings: CFPQEngine(
        GRAPH, GRAMMAR, **settings).relational("S"),
    "IncrementalCFPQ": lambda tmp_path, **settings: IncrementalCFPQ(
        GRAPH, GRAMMAR, **settings).relations().node_pairs(START),
    "QueryService": lambda tmp_path, **settings: QueryService(
        GRAPH, GRAMMAR, **settings).query("S"),
    "QueryService.from_snapshot": _from_snapshot,
}

entry_points = pytest.mark.parametrize("entry", ENTRY_POINTS)


@entry_points
@pytest.mark.parametrize("keyword, value", [
    ("bogus", 1), ("initial_frontier", {}), ("frontier", False),
    ("tile_store", None),
], ids=lambda item: item if isinstance(item, str) else "")
def test_an_unknown_keyword_is_a_type_error(entry, keyword, value, tmp_path):
    with pytest.raises(TypeError, match=keyword):
        ENTRY_POINTS[entry](tmp_path, strategy="blocked", **{keyword: value})


@entry_points
@pytest.mark.parametrize("strategy", ("naive", "delta"))
@pytest.mark.parametrize("option, value", [
    ("tile_size", 2), ("memory_budget", "1K"), ("spill_dir", "spill"),
], ids=lambda item: item if isinstance(item, str) else "")
def test_a_tile_option_of_another_strategy_is_refused(entry, strategy, option,
                                                      value, tmp_path):
    flag = "--" + option.replace("_", "-")
    with pytest.raises(EngineError) as excinfo:
        ENTRY_POINTS[entry](tmp_path, strategy=strategy, **{option: value})
    assert str(excinfo.value) == (
        f"{flag} applies only to --strategy blocked, not {strategy!r}")


@entry_points
def test_blocked_reads_the_tile_options(entry, tmp_path):
    call = ENTRY_POINTS[entry]
    assert call(tmp_path, strategy="blocked", tile_size=1,
                memory_budget="1K", spill_dir=str(tmp_path / "spill")) \
        == call(tmp_path)


@entry_points
@pytest.mark.parametrize("strategy", ("naive", "delta", None))
def test_the_environment_budget_is_no_given_option(entry, strategy, tmp_path,
                                                   monkeypatch):
    expected = ENTRY_POINTS[entry](tmp_path)
    monkeypatch.setenv(MEMORY_BUDGET_ENV, "1K")
    assert ENTRY_POINTS[entry](tmp_path, strategy=strategy) == expected


class TestClosureSettings:
    def test_none_reads_the_defaults(self):
        assert closure_settings() == (default_backend(), "delta", {})

    def test_only_given_options_are_kept(self):
        assert closure_settings("setmatrix", "blocked", tile_size=4,
                                memory_budget=None) \
            == ("setmatrix", "blocked", {"tile_size": 4})


def test_a_refused_closure_leaves_the_layout_rule(monkeypatch):
    """``annotated_layout`` counts a closure already run; a refused one
    never ran."""
    from repro.core import semiring

    monkeypatch.setattr(semiring, "_closed_before", False)
    with pytest.raises(EngineError):
        solve_annotated(GRAPH, GRAMMAR, LENGTH_SEMIRING, strategy="delta",
                        tile_size=2)
    assert semiring._closed_before is False
