"""Tests for the high-level CFPQEngine facade."""

import pytest

from repro.core.engine import CFPQEngine, cfpq
from repro.core.single_path import path_word
from repro.errors import PathNotFoundError, SemanticsError, UnknownSymbolError
from repro.grammar.symbols import Nonterminal
from repro.graph.generators import two_cycles, word_chain
from repro.graph.labeled_graph import LabeledGraph


class TestRelational:
    def test_returns_node_objects(self, anbn_grammar):
        graph = LabeledGraph.from_edges([
            ("x", "a", "y"), ("y", "b", "z"),
        ])
        engine = CFPQEngine(graph, anbn_grammar)
        assert engine.relational("S") == {("x", "z")}

    def test_count(self, anbn_grammar, aabb_chain):
        engine = CFPQEngine(aabb_chain, anbn_grammar)
        assert engine.count("S") == 2

    def test_unknown_start_symbol(self, anbn_grammar, aabb_chain):
        engine = CFPQEngine(aabb_chain, anbn_grammar)
        with pytest.raises(UnknownSymbolError):
            engine.relational("Nope")

    def test_one_engine_per_backend(self, anbn_grammar, aabb_chain):
        pytest.importorskip("scipy")
        sparse = CFPQEngine(aabb_chain, anbn_grammar, backend="sparse")
        dense = CFPQEngine(aabb_chain, anbn_grammar, backend="dense")
        assert sparse.relational("S") == dense.relational("S")
        assert sparse.solve().stats.backend == "sparse"
        assert dense.solve().stats.backend == "dense"

    def test_one_engine_per_strategy(self, anbn_grammar, aabb_chain):
        delta = CFPQEngine(aabb_chain, anbn_grammar, strategy="delta")
        naive = CFPQEngine(aabb_chain, anbn_grammar, strategy="naive")
        assert delta.relational("S") == naive.relational("S")
        assert delta.solve().stats.strategy == "delta"
        assert naive.solve().stats.strategy == "naive"

    @pytest.mark.parametrize("method", [
        "solve", "relations", "relational", "count", "single_path_index",
        "single_path", "path_length", "all_path_index", "all_paths",
        "adopt_solution", "adopt_single_path_index", "evaluate"])
    def test_no_per_call_backend_or_strategy(self, method):
        """An engine closes under the configuration it was built with;
        no call overrides it."""
        import inspect

        parameters = inspect.signature(getattr(CFPQEngine, method)).parameters
        assert not {"backend", "strategy"} & set(parameters)

    def test_solve_result_cached(self, anbn_grammar, aabb_chain):
        engine = CFPQEngine(aabb_chain, anbn_grammar)
        assert engine.solve() is engine.solve()

    def test_cfpq_one_shot(self, anbn_grammar, aabb_chain):
        assert cfpq(aabb_chain, anbn_grammar, "S") == {(0, 4), (1, 3)}


class TestSinglePath:
    def test_witness_path(self, anbn_grammar, aabb_chain):
        engine = CFPQEngine(aabb_chain, anbn_grammar)
        path = engine.single_path("S", 0, 4)
        assert path_word(path) == ("a", "a", "b", "b")

    def test_path_length(self, anbn_grammar, aabb_chain):
        engine = CFPQEngine(aabb_chain, anbn_grammar)
        assert engine.path_length("S", 0, 4) == 4
        assert engine.path_length("S", 4, 0) is None

    def test_missing_pair_raises(self, anbn_grammar, aabb_chain):
        engine = CFPQEngine(aabb_chain, anbn_grammar)
        with pytest.raises(PathNotFoundError):
            engine.single_path("S", 4, 0)

    def test_index_cached(self, anbn_grammar, aabb_chain):
        engine = CFPQEngine(aabb_chain, anbn_grammar)
        engine.single_path("S", 0, 4)
        assert engine.single_path_index() is engine.single_path_index()


class TestAllPaths:
    def test_bounded_enumeration(self, dyck_grammar):
        engine = CFPQEngine(two_cycles(1, 1), dyck_grammar)
        paths = engine.all_paths("S", 0, 0, max_length=4)
        words = {path_word(p) for p in paths}
        assert ("a", "b") in words
        assert ("a", "a", "b", "b") in words
        assert ("a", "b", "a", "b") in words


class TestEvaluateDispatch:
    def test_relational(self, anbn_grammar, aabb_chain):
        engine = CFPQEngine(aabb_chain, anbn_grammar)
        assert engine.evaluate("S") == {(0, 4), (1, 3)}

    def test_single_path_semantics(self, anbn_grammar, aabb_chain):
        engine = CFPQEngine(aabb_chain, anbn_grammar)
        answer = engine.evaluate("S", semantics="single-path")
        assert set(answer) == {(0, 4), (1, 3)}
        assert path_word(answer[(1, 3)]) == ("a", "b")

    def test_all_path_semantics(self, anbn_grammar, aabb_chain):
        engine = CFPQEngine(aabb_chain, anbn_grammar)
        answer = engine.evaluate("S", semantics="all-path", max_length=6)
        assert set(answer) == {(0, 4), (1, 3)}

    def test_all_path_requires_bound(self, anbn_grammar, aabb_chain):
        engine = CFPQEngine(aabb_chain, anbn_grammar)
        with pytest.raises(SemanticsError):
            engine.evaluate("S", semantics="all-path")

    def test_unknown_semantics(self, anbn_grammar, aabb_chain):
        engine = CFPQEngine(aabb_chain, anbn_grammar)
        with pytest.raises(SemanticsError):
            engine.evaluate("S", semantics="exotic")


class TestUnknownStartSymbol:
    """Every entry point that names a start symbol refuses one the
    grammar lacks, instead of answering nothing."""

    ENTRY_POINTS = {
        "relational": lambda engine, start: engine.relational(start),
        "count": lambda engine, start: engine.count(start),
        "evaluate[relational]": lambda engine, start: engine.evaluate(start),
        "single_path": lambda engine, start: engine.single_path(start, 0, 4),
        "path_length": lambda engine, start: engine.path_length(start, 0, 4),
        "all_paths": lambda engine, start: engine.all_paths(start, 0, 4, 6),
        "evaluate[single-path]": lambda engine, start: engine.evaluate(
            start, "single-path"),
        "evaluate[all-path]": lambda engine, start: engine.evaluate(
            start, "all-path", max_length=6),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("start", ["Nope", Nonterminal("Nope")])
    def test_raises(self, anbn_grammar, aabb_chain, entry, start):
        engine = CFPQEngine(aabb_chain, anbn_grammar)
        with pytest.raises(UnknownSymbolError, match="Nope"):
            self.ENTRY_POINTS[entry](engine, start)

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_refused_before_any_closure(self, anbn_grammar, aabb_chain,
                                        entry, monkeypatch):
        """The start symbol is resolved first: a bad one never pays
        for a closure."""
        from repro.core import engine as engine_module
        from repro.core import single_path as single_path_module

        def refuse(*_args, **_kwargs):
            raise AssertionError("a closure ran for an unknown start")

        monkeypatch.setattr(engine_module, "solve_matrix", refuse)
        monkeypatch.setattr(single_path_module, "solve_annotated", refuse)
        engine = CFPQEngine(aabb_chain, anbn_grammar)
        with pytest.raises(UnknownSymbolError, match="Nope"):
            self.ENTRY_POINTS[entry](engine, "Nope")


class TestSemanticsConsistency:
    """The three semantics must agree on which pairs are related."""

    def test_pairs_agree_across_semantics(self, dyck_grammar):
        graph = two_cycles(2, 3)
        engine = CFPQEngine(graph, dyck_grammar)
        relational = engine.relational("S")
        single = set(engine.evaluate("S", semantics="single-path"))
        assert single == relational


class TestIncrementalEntryPoint:
    def test_engine_incremental_shares_configuration(self, dyck_grammar):
        engine = CFPQEngine(two_cycles(2, 3), dyck_grammar,
                            backend="setmatrix", strategy="delta")
        solver = engine.incremental()
        assert solver.graph is engine.graph
        assert solver.strategy == "delta"
        before = engine.relational("S")
        assert solver.pairs("S") == {
            (engine.graph.node_id(a), engine.graph.node_id(b))
            for a, b in before
        }
        solver.add_edges([(0, "a", 9), (9, "b", 0)])
        solver.remove_edge(0, "a", 9)
        from repro.core.matrix_cfpq import solve_matrix_relations

        assert solver.relations().same_as(
            solve_matrix_relations(engine.graph, engine.grammar,
                                   normalize=False))

    def test_engine_incremental_single_path(self, dyck_grammar):
        engine = CFPQEngine(two_cycles(2, 3), dyck_grammar)
        solver = engine.incremental(single_path=True)
        assert solver.length_of("S", 0, 0) == engine.path_length("S", 0, 0)
