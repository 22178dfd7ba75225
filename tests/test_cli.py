"""Tests for the repro-cfpq command-line interface."""

import json

import pytest

from repro.cli import main
from repro.graph.generators import two_cycles, word_chain
from repro.graph.io import save_graph_file
from repro.matrices.base import available_backends
from repro.obs.trace import reset_tracing


@pytest.fixture
def chain_file(tmp_path):
    path = tmp_path / "chain.txt"
    save_graph_file(word_chain(["a", "a", "b", "b"]), str(path))
    return str(path)


@pytest.fixture
def grammar_file(tmp_path):
    path = tmp_path / "anbn.cfg"
    path.write_text("S -> a S b\nS -> a b\n")
    return str(path)


class TestQueryCommand:
    def test_named_grammar(self, chain_file, capsys):
        assert main(["query", "--graph", chain_file,
                     "--grammar-name", "dyck1", "--start", "S"]) == 0
        out = capsys.readouterr().out
        assert "2 pairs" in out
        assert "0 -> 4" in out

    def test_grammar_file(self, chain_file, grammar_file, capsys):
        assert main(["query", "--graph", chain_file,
                     "--grammar", grammar_file]) == 0
        assert "2 pairs" in capsys.readouterr().out

    def test_json_output(self, chain_file, capsys):
        assert main(["query", "--graph", chain_file,
                     "--grammar-name", "dyck1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 2
        assert ["0", "4"] in payload["pairs"]

    def test_backend_flag(self, chain_file, capsys):
        for backend in available_backends():
            assert main(["query", "--graph", chain_file,
                         "--grammar-name", "dyck1",
                         "--backend", backend]) == 0

    def test_retired_pyset_backend_is_a_usage_error(self, chain_file,
                                                    capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["query", "--graph", chain_file,
                  "--grammar-name", "dyck1", "--backend", "pyset"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "invalid choice: 'pyset'" in err

    def test_missing_grammar_exits(self, chain_file):
        with pytest.raises(SystemExit):
            main(["query", "--graph", chain_file])

    def test_unknown_start_reports_error(self, chain_file, capsys):
        code = main(["query", "--graph", chain_file,
                     "--grammar-name", "dyck1", "--start", "Zzz"])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestQueryBatch:
    def test_list_lines_coerce_nodes_like_dict_lines(
            self, chain_file, grammar_file, tmp_path, capsys):
        """JSON node tokens resolve against the graph whatever the line's
        shape: ``"0"`` is node ``0`` in a list line as in a dict line."""
        batch = tmp_path / "batch.jsonl"
        batch.write_text(
            '["S", "0", "4", "membership"]\n'
            '{"source": "0", "target": "4", "semantics": "membership"}\n'
            '["S", ["0", "1"], null]\n'
            '{"sources": ["0", "1"]}\n', encoding="utf-8")
        assert main(["query", "--graph", chain_file, "--grammar",
                     grammar_file, "--batch", str(batch), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        pairs = [["0", "4"], ["1", "3"]]
        assert payload == {"count": 4,
                           "answers": [True, True, pairs, pairs]}


class TestPathCommand:
    def test_witness_path(self, chain_file, capsys):
        assert main(["path", "--graph", chain_file,
                     "--grammar-name", "dyck1",
                     "--source", "0", "--target", "4"]) == 0
        out = capsys.readouterr().out
        assert "length 4" in out

    def test_json_path(self, chain_file, capsys):
        assert main(["path", "--graph", chain_file,
                     "--grammar-name", "dyck1",
                     "--source", "1", "--target", "3", "--json"]) == 0
        edges = json.loads(capsys.readouterr().out)
        assert edges == [["1", "a", "2"], ["2", "b", "3"]]

    def test_source_token_resolves_by_the_loader_rule(self, tmp_path,
                                                       capsys):
        """``07`` names the string node ``07``, not the int node 7."""
        path = tmp_path / "zeros.txt"
        path.write_text("07 a 1\n1 b 7\n7 a 8\n8 b 9\n")
        assert main(["path", "--graph", str(path), "--grammar-name", "dyck1",
                     "--source", "07", "--target", "7", "--json"]) == 0
        edges = json.loads(capsys.readouterr().out)
        assert edges == [["07", "a", "1"], ["1", "b", "7"]]

    def test_no_path_is_error(self, chain_file, capsys):
        code = main(["path", "--graph", chain_file,
                     "--grammar-name", "dyck1",
                     "--source", "4", "--target", "0"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_top_k_unknown_start_reports_error(self, chain_file, capsys):
        code = main(["paths", "--graph", chain_file,
                     "--grammar-name", "dyck1", "--start", "Zzz",
                     "--source", "0", "--target", "4", "--top-k", "2"])
        assert code == 1
        assert "Zzz is not part of the grammar" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [("--max-length", "-1"),
                                      ("--top-k", "-1"),
                                      ("--max-length", "-2", "--top-k", "2")],
                             ids=lambda flag: " ".join(flag))
    def test_negative_bound_is_an_error(self, chain_file, capsys, flag):
        """A negative bound is refused with one ``error:`` line, not
        answered with an empty list, in the wire's text: the flag is
        read as the query key it sets."""
        code = main(["paths", "--graph", chain_file, "--grammar-name",
                     "dyck1", "--source", "0", "--target", "4", "--json",
                     *flag])
        captured = capsys.readouterr()
        key = {"--max-length": "max_length", "--top-k": "k"}[flag[0]]
        assert code == 1
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: {key} must be a non-negative int, not {flag[1]}"]

    @pytest.mark.parametrize("top_k", [(), ("--top-k", "2")])
    def test_zero_max_length_answers_nothing(self, chain_file, capsys,
                                             top_k):
        assert main(["paths", "--graph", chain_file, "--grammar-name",
                     "dyck1", "--source", "0", "--target", "4", "--json",
                     "--max-length", "0", *top_k]) == 0
        assert json.loads(capsys.readouterr().out) == []


class TestRdfInput:
    def test_rdf_flag_applies_paper_conversion(self, tmp_path, capsys):
        rdf = tmp_path / "data.nt"
        rdf.write_text("b subClassOf a .\nc subClassOf a .\n")
        # co-parent query: b and c share parent a
        grammar = tmp_path / "sg.cfg"
        grammar.write_text("S -> subClassOf subClassOf_r\n")
        assert main(["query", "--graph", str(rdf), "--rdf",
                     "--grammar", str(grammar), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 4  # (b,b), (b,c), (c,b), (c,c)


class TestUpdateCommand:
    def test_insert_file_extends_relation(self, chain_file, tmp_path,
                                          capsys):
        insert = tmp_path / "insert.txt"
        insert.write_text("4 a 5\n5 b 6\n")
        assert main(["update", "--graph", chain_file,
                     "--grammar-name", "dyck1", "--start", "S",
                     "--insert", str(insert), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["facts_added"] > 0
        assert payload["facts_removed"] == 0
        assert ["4", "6"] in payload["pairs"]

    def test_delete_file_shrinks_relation(self, chain_file, tmp_path,
                                          capsys):
        delete = tmp_path / "delete.txt"
        delete.write_text("0 a 1\n")
        assert main(["update", "--graph", chain_file,
                     "--grammar-name", "dyck1", "--start", "S",
                     "--delete", str(delete), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["facts_removed"] > 0
        assert ["0", "4"] not in payload["pairs"]
        assert ["1", "3"] in payload["pairs"]

    def test_insert_then_delete_with_stats(self, chain_file, tmp_path,
                                           capsys):
        insert = tmp_path / "insert.txt"
        insert.write_text("4 a 5\n5 b 6\n")
        delete = tmp_path / "delete.txt"
        delete.write_text("4 a 5\n")
        assert main(["update", "--graph", chain_file,
                     "--grammar-name", "dyck1", "--start", "S",
                     "--insert", str(insert), "--delete", str(delete),
                     "--stats", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stats"]["edge_insertions"] == 2
        assert payload["stats"]["edge_removals"] == 1
        assert payload["stats"]["facts_removed"] > 0
        assert "support_entries" not in payload["stats"]
        assert ["4", "6"] not in payload["pairs"]

    def test_update_matches_fresh_query(self, chain_file, tmp_path,
                                        capsys):
        insert = tmp_path / "insert.txt"
        insert.write_text("4 a 5\n5 b 6\n")
        assert main(["update", "--graph", chain_file,
                     "--grammar-name", "dyck1", "--start", "S",
                     "--insert", str(insert), "--json"]) == 0
        updated = json.loads(capsys.readouterr().out)

        merged = tmp_path / "merged.txt"
        merged.write_text(open(chain_file).read() + "4 a 5\n5 b 6\n")
        assert main(["query", "--graph", str(merged),
                     "--grammar-name", "dyck1", "--start", "S",
                     "--json"]) == 0
        fresh = json.loads(capsys.readouterr().out)
        assert sorted(map(tuple, updated["pairs"])) == \
            sorted(map(tuple, fresh["pairs"]))

    def test_update_without_files_exits(self, chain_file):
        with pytest.raises(SystemExit):
            main(["update", "--graph", chain_file,
                  "--grammar-name", "dyck1"])

    def test_update_strategy_options(self, chain_file, tmp_path, capsys):
        insert = tmp_path / "insert.txt"
        insert.write_text("4 a 5\n5 b 6\n")
        assert main(["update", "--graph", chain_file,
                     "--grammar-name", "dyck1", "--start", "S",
                     "--insert", str(insert), "--strategy", "blocked",
                     "--tile-size", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert ["4", "6"] in payload["pairs"]


class TestSizeFlags:
    """A bad ``--tile-size`` or ``--memory-budget`` is a usage error
    (exit 2) on every subcommand that takes one, not a traceback from
    inside the closure."""

    COMMANDS = ("query", "path", "paths", "update", "snapshot", "serve")

    @pytest.mark.parametrize("flags", [
        ("--strategy", "blocked", "--tile-size", "0"),
        ("--tile-size", "-3"),
        ("--memory-budget", "12Q"),
    ], ids=["tile-0", "tile-negative", "budget-12Q"])
    def test_exits_with_usage_error(self, flags, chain_file, capsys):
        for command in self.COMMANDS:
            with pytest.raises(SystemExit) as excinfo:
                main([command, "--graph", chain_file,
                      "--grammar-name", "dyck1", *flags])
            assert excinfo.value.code == 2, command
            assert "usage:" in capsys.readouterr().err, command

    @pytest.mark.parametrize("strategy", ("delta", "naive"))
    @pytest.mark.parametrize("flag", [
        ("--tile-size", "4"),
        ("--memory-budget", "1K"),
        ("--spill-dir", "spill"),
    ], ids=lambda flag: flag[0])
    def test_flag_of_blocked_with_another_strategy_is_an_error(
            self, strategy, flag, chain_file, tmp_path, capsys):
        """Only ``blocked`` reads the tile flags; a one-shot solve with
        another strategy fails with one ``error:`` line naming the flag
        instead of running unbounded."""
        extra = {"path": ("--source", "0", "--target", "4"),
                 "paths": ("--source", "0", "--target", "4"),
                 "snapshot": ("--output", str(tmp_path / "index.snapshot"))}
        for command in ("query", "path", "paths", "snapshot"):
            code = main([command, "--graph", chain_file,
                         "--grammar-name", "dyck1", "--strategy", strategy,
                         *flag, *extra.get(command, ())])
            captured = capsys.readouterr()
            assert code == 1, command
            assert captured.out == "", command
            assert captured.err.splitlines() == [
                f"error: {flag[0]} applies only to --strategy blocked, "
                f"not {strategy!r}"], command
        assert not (tmp_path / "index.snapshot").exists()

    @pytest.mark.parametrize("mode", ("batch", "semiring"))
    def test_batch_and_semiring_queries_refuse_the_flag(
            self, mode, chain_file, tmp_path, capsys):
        batch = tmp_path / "batch.jsonl"
        batch.write_text('{"source": "0", "target": 4}\n', encoding="utf-8")
        extra = {"batch": ("--batch", str(batch)),
                 "semiring": ("--semiring", "length")}[mode]
        code = main(["query", "--graph", chain_file, "--grammar-name",
                     "dyck1", "--strategy", "delta", "--memory-budget", "1K",
                     *extra, "--json"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: --memory-budget applies only to --strategy blocked, "
            "not 'delta'"]

    @pytest.mark.parametrize("strategy", ("delta", "naive"))
    def test_env_budget_with_another_strategy_still_answers(
            self, strategy, chain_file, monkeypatch, capsys):
        """The environment variables are defaults for every strategy (the
        budgeted CI run sets them globally): only the flags are refused."""
        monkeypatch.setenv("REPRO_MEMORY_BUDGET", "1K")
        assert main(["query", "--graph", chain_file, "--grammar-name",
                     "dyck1", "--strategy", strategy, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pairs"] == [["0", "4"], ["1", "3"]]

    @pytest.mark.parametrize("strategy", ("delta", "naive"))
    def test_update_refuses_the_flag_with_another_strategy(
            self, strategy, chain_file, tmp_path, capsys):
        """``update`` runs its initial solve, and nothing else, under the
        strategy: the flags are refused as for a one-shot solve."""
        insert = tmp_path / "insert.txt"
        insert.write_text("4 a 5\n5 b 6\n")
        code = main(["update", "--graph", chain_file,
                     "--grammar-name", "dyck1", "--insert", str(insert),
                     "--strategy", strategy, "--memory-budget", "8M",
                     "--json"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: --memory-budget applies only to --strategy blocked, "
            f"not {strategy!r}"]

    @pytest.mark.parametrize("start", ("graph", "snapshot"))
    @pytest.mark.parametrize("strategy", (None, "delta", "naive"))
    def test_serve_refuses_the_flag_with_another_strategy(
            self, strategy, start, tmp_path, capsys):
        """``serve`` is judged by the ``--strategy`` it was given
        (``delta`` when none): a snapshot start runs no closure, so the
        refusal comes before any file is read — neither exists here."""
        source = {"graph": ("--graph", str(tmp_path / "missing.txt"),
                            "--grammar-name", "dyck1"),
                  "snapshot": ("--snapshot",
                               str(tmp_path / "missing.snapshot"))}[start]
        chosen = ("--strategy", strategy) if strategy else ()
        code = main(["serve", *source, *chosen, "--tile-size", "4"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: --tile-size applies only to --strategy blocked, "
            f"not {strategy or 'delta'!r}"]

    def test_serve_keeps_the_flags_with_blocked(self, chain_file,
                                                monkeypatch, capsys):
        """With ``--strategy blocked`` the flags reach the solve."""
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(
            '{"op": "query", "start": "S"}\n'))
        assert main(["serve", "--graph", chain_file, "--grammar-name",
                     "dyck1", "--strategy", "blocked", "--tile-size", "2",
                     "--memory-budget", "1K"]) == 0
        reply = json.loads(capsys.readouterr().out)
        assert reply["ok"] and reply["result"] == [[0, 4], [1, 3]]

    def test_counting_refuses_the_flags_of_blocked(self, chain_file,
                                                   capsys):
        """Counting closes by Kleene iteration, whatever ``--strategy``
        says, and that closure reads no tile flag: it refuses them
        instead of running unbounded."""
        code = main(["query", "--graph", chain_file, "--grammar-name",
                     "dyck1", "--semiring", "counting", "--strategy",
                     "blocked", "--tile-size", "1", "--memory-budget", "1K",
                     "--json"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: --tile-size applies only to --strategy blocked, "
            "not 'kleene_closure'"]

    def test_budget_suffix_still_parses(self, chain_file, capsys):
        assert main(["query", "--graph", chain_file,
                     "--grammar-name", "dyck1", "--strategy", "blocked",
                     "--memory-budget", "64K", "--json", "--stats"]) == 0
        stats = json.loads(capsys.readouterr().out)["stats"]
        assert stats["blocked"]["budget_bytes"] == 64 * 1024


class TestServeFlags:
    """A ``serve`` flag combination that cannot run is refused with one
    ``error:`` line before anything is loaded: the graph file here does
    not exist, and the refusal names the flags, not the file."""

    @pytest.mark.parametrize(("flags", "error"), [
        (("--role", "leader"), "role 'leader' requires --wal PATH"),
        (("--role", "follower", "--wal", "index.wal"),
         "role 'follower' requires --snapshot (the leader's snapshot "
         "anchors the replay)"),
        (("--replicas", "127.0.0.1:7412"),
         "--replicas is a leader feature (the leader fans reads out to "
         "its followers)"),
        (("--role", "follower", "--replicas", "127.0.0.1:7412",
          "--wal", "index.wal", "--snapshot", "index.snapshot"),
         "--replicas is a leader feature (the leader fans reads out to "
         "its followers)"),
    ], ids=["leader-without-wal", "follower-without-snapshot",
            "replicas-without-leader", "follower-with-replicas"])
    def test_refused_before_loading(self, tmp_path, capsys, flags, error):
        code = main(["serve", "--graph", str(tmp_path / "missing.txt"),
                     "--grammar-name", "dyck1", *flags])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {error}"]


class TestEnvironmentDefaults:
    """A malformed environment default is one ``error:`` line naming the
    variable, never a traceback; a variable the library no longer reads
    changes nothing."""

    @pytest.fixture(autouse=True)
    def _fresh_tracer(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE_FILE", raising=False)
        reset_tracing()
        yield
        reset_tracing()

    def test_retired_trace_sample_is_ignored(self, chain_file, monkeypatch,
                                             capsys):
        monkeypatch.setenv("REPRO_TRACE_SAMPLE", "abc")
        assert main(["query", "--graph", chain_file,
                     "--grammar-name", "dyck1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pairs"] == [["0", "4"], ["1", "3"]]

    def test_malformed_memory_budget(self, chain_file, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_MEMORY_BUDGET", "bogus")
        code = main(["query", "--graph", chain_file, "--grammar-name",
                     "dyck1", "--strategy", "blocked"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: REPRO_MEMORY_BUDGET: unparseable memory budget "
            "'bogus'; expected bytes or a K/M/G-suffixed size like '64K' "
            "or '8M'"]


class TestTablesCommand:
    def test_small_table(self, capsys):
        pytest.importorskip("scipy")  # the paper's dense and sparse columns
        assert main(["tables", "table2", "--max-triples", "260"]) == 0
        out = capsys.readouterr().out
        assert "skos" in out
        assert "Table 2" in out


@pytest.fixture(scope="module")
def funding_file(tmp_path_factory):
    from repro.datasets.registry import build_graph

    path = tmp_path_factory.mktemp("funding") / "funding.txt"
    save_graph_file(build_graph("funding"), str(path))
    return str(path)


def _query_output(capsys, graph_file, *flags):
    assert main(["query", "--graph", graph_file, "--grammar-name", "query1",
                 "--start", "S", *flags]) == 0
    return capsys.readouterr().out


class TestBackendsPrintIdenticalAnswers:
    """``query`` on the funding ontology with the paper's Query 1 prints
    the same bytes on every backend and strategy, and the relation it
    prints is the one the Hellings baseline computes."""

    @pytest.mark.parametrize("output", [[], ["--json"]],
                             ids=["text", "json"])
    @pytest.mark.parametrize("strategy", ["naive", "delta", "blocked"])
    @pytest.mark.parametrize("backend", available_backends())
    def test_funding_query1(self, funding_file, capsys, backend, strategy,
                            output):
        reference = _query_output(capsys, funding_file, "--backend",
                                  "setmatrix", "--strategy", "naive",
                                  *output)
        assert _query_output(capsys, funding_file, "--backend", backend,
                             "--strategy", strategy, *output) == reference

    def test_reference_is_the_hellings_relation(self, funding_file, capsys):
        from repro.baselines.hellings import solve_hellings
        from repro.grammar.builders import same_generation_query1
        from repro.graph.io import load_graph_file

        graph = load_graph_file(funding_file)
        expected = sorted(
            [graph.node_at(i), graph.node_at(j)] for i, j in
            solve_hellings(graph, same_generation_query1()).pairs("S"))
        payload = json.loads(_query_output(
            capsys, funding_file, "--backend", "setmatrix", "--strategy",
            "naive", "--json"))
        assert payload["count"] == len(expected) > 0
        assert sorted(payload["pairs"]) == expected
