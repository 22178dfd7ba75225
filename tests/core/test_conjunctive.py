"""Tests for the conjunctive-grammar extension (§7 future work)."""

import pytest

from repro.core import closure as closure_module
from repro.core.closure import available_strategies, run_closure
from repro.core.conjunctive import (
    ConjunctiveGrammar,
    ConjunctiveRule,
    TerminalRule,
    anbncn_grammar,
    solve_conjunctive_approx,
    solve_conjunctive_reference,
)
from repro.grammar.symbols import Nonterminal, Terminal
from repro.graph.generators import word_chain
from repro.graph.labeled_graph import LabeledGraph

S = Nonterminal("S")


class TestGrammarConstruction:
    def test_parse_conjunctive_rule(self):
        grammar = ConjunctiveGrammar.parse(
            "S -> A B & C D\nA -> a\nB -> b\nC -> c\nD -> d",
            terminals=["a", "b", "c", "d"],
        )
        assert len(grammar.conjunctive_rules) == 1
        assert len(grammar.conjunctive_rules[0].conjuncts) == 2
        assert len(grammar.terminal_rules) == 4

    def test_rule_requires_conjunct(self):
        with pytest.raises(ValueError):
            ConjunctiveRule(S, ())

    def test_parse_rejects_long_conjunct(self):
        with pytest.raises(ValueError):
            ConjunctiveGrammar.parse("S -> A B C", terminals=[])

    def test_str_rendering(self):
        rule = ConjunctiveRule(S, ((Nonterminal("A"), Nonterminal("B")),
                                   (Nonterminal("C"), Nonterminal("D"))))
        assert str(rule) == "S -> A B & C D"
        assert str(TerminalRule(S, Terminal("x"))) == "S -> x"


class TestSingleConjunctReducesToCFG:
    """With one conjunct per rule the solver is the plain CFPQ engine."""

    def test_matches_matrix_engine(self, backend_name):
        conjunctive = ConjunctiveGrammar.parse(
            "S -> A B\nA -> a\nB -> b", terminals=["a", "b"]
        )
        graph = word_chain(["a", "b"])
        result = solve_conjunctive_approx(graph, conjunctive,
                                          backend=backend_name)
        assert result.pairs(S) == {(0, 2)}


class TestAnBnCn:
    """{aⁿbⁿcⁿ} on chain graphs: linear input ⇒ the approximation is
    exact (Okhotin's matrix parsing of conjunctive grammars)."""

    @pytest.mark.parametrize("word,expected", [
        ("abc", True),
        ("aabbcc", True),
        ("aaabbbccc", True),
        ("aabbc", False),
        ("abbc", False),
        ("abcc", False),
        ("aabbbcc", False),
    ])
    def test_membership_via_chain(self, word, expected):
        grammar = anbncn_grammar()
        graph = word_chain(list(word))
        result = solve_conjunctive_approx(graph, grammar)
        assert (((0, len(word)) in result.pairs(S)) == expected), word

    def test_backends_agree(self):
        grammar = anbncn_grammar()
        graph = word_chain(list("aabbcc"))
        answers = {
            name: solve_conjunctive_approx(graph, grammar, backend=name).pairs(S)
            for name in ["dense", "sparse", "setmatrix"]
        }
        assert len(set(answers.values())) == 1


class TestEngineRouteMatchesReference:
    """The engine-routed solver reaches the exact fixpoint of the
    original direct loop — per closure strategy, per backend, on cyclic
    and acyclic inputs."""

    GRAPHS = {
        "chain": lambda: word_chain(list("aabbcc")),
        "cyclic": lambda: LabeledGraph.from_edges(
            [(0, "a", 0), (0, "b", 0), (0, "c", 0)]
        ),
        "branching": lambda: LabeledGraph.from_edges(
            [(0, "a", 1), (1, "a", 2), (2, "b", 3), (3, "b", 4),
             (4, "c", 5), (5, "c", 6), (0, "a", 4), (4, "b", 0),
             (1, "b", 3), (3, "c", 1)],
            nodes=list(range(7)),
        ),
    }

    @pytest.mark.parametrize("strategy", sorted(available_strategies()))
    @pytest.mark.parametrize("graph_name", sorted(GRAPHS))
    def test_matches_reference(self, strategy, graph_name, backend_name):
        grammar = anbncn_grammar()
        graph = self.GRAPHS[graph_name]()
        oracle = solve_conjunctive_reference(graph, grammar,
                                             backend=backend_name)
        routed = solve_conjunctive_approx(graph, grammar,
                                          backend=backend_name,
                                          strategy=strategy)
        for nt in grammar.nonterminals:
            assert routed.pairs(nt) == oracle.pairs(nt), (strategy, nt)

    @pytest.mark.parametrize("graph_name", sorted(GRAPHS))
    def test_spilled_blocked_matches_reference(self, graph_name,
                                               backend_name, tmp_path,
                                               monkeypatch):
        """Each outer round re-enters ``blocked`` with the head's new
        cells as a tile frontier; under a one-byte budget every tile of
        those runs goes through the spill files."""
        runs = []

        def recording_run_closure(*args, **kwargs):
            result = run_closure(*args, **kwargs)
            runs.append(result.details["blocked"])
            return result

        monkeypatch.setattr(closure_module, "run_closure",
                            recording_run_closure)
        grammar = anbncn_grammar()
        graph = self.GRAPHS[graph_name]()
        oracle = solve_conjunctive_reference(graph, grammar,
                                             backend=backend_name)
        routed = solve_conjunctive_approx(graph, grammar,
                                          backend=backend_name,
                                          strategy="blocked", tile_size=2,
                                          memory_budget=1,
                                          spill_dir=str(tmp_path))
        for nt in grammar.nonterminals:
            assert routed.pairs(nt) == oracle.pairs(nt), nt
        assert runs and all(stats.budget_bytes == 1 for stats in runs)
        assert sum(stats.tiles_spilled for stats in runs) > 0

    def test_single_conjunct_grammar_matches(self, backend_name):
        grammar = ConjunctiveGrammar.parse(
            "S -> A B\nA -> a\nA -> A A\nB -> b", terminals=["a", "b"]
        )
        graph = LabeledGraph.from_edges(
            [(0, "a", 1), (1, "a", 0), (1, "b", 2), (0, "b", 2)]
        )
        oracle = solve_conjunctive_reference(graph, grammar,
                                             backend=backend_name)
        routed = solve_conjunctive_approx(graph, grammar,
                                          backend=backend_name)
        for nt in grammar.nonterminals:
            assert routed.pairs(nt) == oracle.pairs(nt)

    def test_aux_heads_do_not_leak(self):
        grammar = anbncn_grammar()
        result = solve_conjunctive_approx(word_chain(list("abc")), grammar)
        assert not any(nt.name.startswith("__conj")
                       for nt in result.nonterminals)


class TestUpperApproximation:
    def test_approximation_is_sound_on_cyclic_graph(self):
        """Every true pair (witnessed by an actual aⁿbⁿcⁿ path) must be
        present in the approximation — upper approximation soundness."""
        grammar = anbncn_grammar()
        # self-loops a, b, c on one node: every aⁿbⁿcⁿ path exists.
        graph = LabeledGraph.from_edges(
            [(0, "a", 0), (0, "b", 0), (0, "c", 0)]
        )
        result = solve_conjunctive_approx(graph, grammar)
        assert (0, 0) in result.pairs(S)
