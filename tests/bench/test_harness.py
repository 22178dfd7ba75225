"""Tests for the measurement harness and table regeneration machinery."""

import pytest

from repro.bench.harness import PAPER_SOLVERS, SOLVERS, measure
from repro.bench.reporting import format_table, speedup
from repro.bench.tables import render_rows, run_table
from repro.grammar.builders import same_generation_query1
from repro.graph.generators import paper_example_graph


class TestMeasure:
    def test_all_solvers_agree_on_paper_example(self):
        graph = paper_example_graph()
        grammar = same_generation_query1()
        counts = {
            name: measure(name, graph, grammar, "S").results
            for name in SOLVERS
        }
        assert set(counts.values()) == {3}  # R_S has 3 pairs (Fig. 9)

    def test_measurement_fields(self):
        m = measure("sparse", paper_example_graph(),
                    same_generation_query1(), "S")
        assert m.solver == "sparse"
        assert m.results == 3
        assert m.milliseconds >= 0

    def test_repeats_take_best(self):
        m = measure("setmatrix", paper_example_graph(),
                    same_generation_query1(), "S", repeats=3)
        assert m.results == 3

    def test_unknown_solver(self):
        with pytest.raises(KeyError):
            measure("cuda", paper_example_graph(), same_generation_query1())

    def test_paper_solver_columns(self):
        assert PAPER_SOLVERS == ("gll", "dense", "sparse")


class TestRunTable:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_table("table1", datasets=["skos", "travel"],
                         solvers=("gll", "sparse"))

    def test_row_per_dataset(self, rows):
        assert [row.dataset for row in rows] == ["skos", "travel"]

    def test_triples_match_paper(self, rows):
        assert rows[0].triples == 252
        assert rows[1].triples == 277

    def test_results_consistent_across_solvers(self, rows):
        for row in rows:
            assert row.results is not None  # all solvers agreed

    def test_paper_reference_attached(self, rows):
        assert rows[0].paper.results == 810

    def test_max_triples_filter(self):
        rows = run_table("table2", datasets=["skos", "wine"],
                         solvers=("sparse",), max_triples=300)
        assert [row.dataset for row in rows] == ["skos"]

    def test_dense_skipped_on_repeated_datasets(self):
        rows = run_table("table1", datasets=["g1"], solvers=("sparse", "dense"))
        assert "dense" not in rows[0].measurements
        assert "sparse" in rows[0].measurements

    def test_unknown_table(self):
        with pytest.raises(ValueError):
            run_table("table9")

    def test_render_rows(self, rows):
        text = render_rows(rows, solvers=("gll", "sparse"), title="Table 1")
        assert "Table 1" in text
        assert "skos" in text
        assert "paper#results" in text


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], [None, "x"]])
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert "—" in text       # None rendering
        assert "2.5" in text

    def test_speedup(self):
        assert speedup(100.0, 10.0) == 10.0
        assert speedup(None, 10.0) is None
        assert speedup(100.0, 0.0) is None
