"""Tests for the conjunctive-grammar extension (§7 future work)."""

import random

import pytest

from repro.core.conjunctive import (
    ConjunctiveGrammar,
    ConjunctiveRule,
    TerminalRule,
    anbncn_grammar,
    solve_conjunctive_approx,
)
from repro.core.matrix_cfpq import solve_matrix
from repro.grammar.cfg import CFG
from repro.grammar.cnf import to_cnf
from repro.grammar.parser import parse_grammar
from repro.grammar.production import Production
from repro.grammar.symbols import Nonterminal, Terminal
from repro.graph.generators import random_graph, two_cycles, word_chain
from repro.graph.labeled_graph import LabeledGraph
from repro.matrices.base import available_backends

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
            for name in available_backends()
        }
        assert len(set(answers.values())) == 1


def _random_cnf(rng: random.Random) -> CFG:
    """An ε-free CNF grammar over S, A, B, C and labels a, b."""
    names = [Nonterminal(name) for name in "SABC"]
    productions = [Production(rng.choice(names), (Terminal(label),))
                   for label in rng.sample("ab", rng.randint(1, 2))]
    productions += [Production(rng.choice(names),
                               (rng.choice(names), rng.choice(names)))
                    for _ in range(rng.randint(1, 6))]
    return CFG(productions)


def _single_conjunct(grammar: CFG) -> ConjunctiveGrammar:
    """The same rules as a conjunctive grammar, one conjunct per rule."""
    return ConjunctiveGrammar(
        [TerminalRule(rule.head, rule.body[0])
         for rule in grammar.terminal_rules]
        + [ConjunctiveRule(rule.head, (rule.body,))
           for rule in grammar.binary_rules])


class TestSingleConjunctMatchesMatrixEngine:
    """With one conjunct per rule the fixpoint is Algorithm 1: it must
    equal :func:`solve_matrix` on every non-terminal of ε-free CNF
    grammars, on random graphs and on every backend."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_grammar_and_graph(self, seed, backend_name):
        rng = random.Random(0xC0DE ^ seed)
        grammar = _random_cnf(rng)
        graph = random_graph(rng.randint(1, 8), rng.randint(1, 24),
                             ["a", "b"], seed=seed)
        self._assert_same(graph, grammar, backend_name)

    @pytest.mark.parametrize("graph_name", ["chain", "two-cycles"])
    def test_dyck(self, graph_name, backend_name):
        grammar = to_cnf(parse_grammar("S -> a S b | a b | S S",
                                       terminals=["a", "b"]))
        graph = {"chain": word_chain(list("aabbab")),
                 "two-cycles": two_cycles(2, 3)}[graph_name]
        self._assert_same(graph, grammar, backend_name)

    @staticmethod
    def _assert_same(graph, grammar, backend_name):
        assert grammar.is_cnf
        expected = solve_matrix(graph, grammar, backend=backend_name,
                                normalize=False).relations
        result = solve_conjunctive_approx(graph, _single_conjunct(grammar),
                                          backend=backend_name)
        assert result.nonterminals == grammar.nonterminals
        for nt in grammar.nonterminals:
            assert result.pairs(nt) == expected.pairs(nt), nt


def _conjunctive_cyk(word: str, grammar: ConjunctiveGrammar
                     ) -> dict[tuple[int, int], set[Nonterminal]]:
    """The non-terminals deriving each span ``word[i:j]``, by CYK over
    span lengths: both parts of a conjunct are non-empty, so a span
    depends on shorter spans only and one pass per length is exact."""
    derives: dict[tuple[int, int], set[Nonterminal]] = {}
    for i, char in enumerate(word):
        derives[(i, i + 1)] = {rule.head for rule in grammar.terminal_rules
                               if rule.terminal.label == char}
    for length in range(2, len(word) + 1):
        for i in range(len(word) - length + 1):
            j = i + length
            derives[(i, j)] = {
                rule.head for rule in grammar.conjunctive_rules
                if all(any(left in derives[(i, k)]
                           and right in derives[(k, j)]
                           for k in range(i + 1, j))
                       for left, right in rule.conjuncts)}
    return derives


def _random_conjunctive(rng: random.Random) -> ConjunctiveGrammar:
    """Terminal rules for a, b, c and three to eight rules of one to
    three conjuncts over S, A, B, C."""
    names = [Nonterminal(name) for name in "SABC"]
    rules: list = [TerminalRule(head, Terminal(label))
                   for label in "abc"
                   for head in rng.sample(names, rng.randint(1, 3))]
    rules += [ConjunctiveRule(rng.choice(names), tuple(
                  (rng.choice(names), rng.choice(names))
                  for _ in range(rng.randint(1, 3))))
              for _ in range(rng.randint(3, 8))]
    return ConjunctiveGrammar(rules)


class TestChainMatchesConjunctiveCYK:
    """On a chain each pair of nodes has one path, so the fixpoint is
    exact: every non-terminal relates ``(i, j)`` iff it derives
    ``word[i:j]`` by conjunctive CYK."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_grammar_and_word(self, seed, backend_name):
        rng = random.Random(0xC7C ^ seed)
        grammar = _random_conjunctive(rng)
        word = "".join(rng.choice("abc") for _ in range(rng.randint(5, 10)))
        self._assert_exact(word, grammar, backend_name)

    @pytest.mark.parametrize("word", ["aabbcc", "abcabc", "aaabbbcc"])
    def test_anbncn(self, word, backend_name):
        self._assert_exact(word, anbncn_grammar(), backend_name)

    @staticmethod
    def _assert_exact(word, grammar, backend_name):
        derives = _conjunctive_cyk(word, grammar)
        result = solve_conjunctive_approx(word_chain(list(word)), grammar,
                                          backend=backend_name)
        for nt in grammar.nonterminals:
            expected = {span for span, heads in derives.items()
                        if nt in heads}
            assert result.pairs(nt) == expected, (word, nt)


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
