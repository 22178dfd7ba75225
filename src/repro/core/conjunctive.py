"""Conjunctive-grammar extension (paper §7 future work).

The paper observes that Algorithm 1 "can be trivially generalized" to
conjunctive grammars (rules whose body is a *conjunction* of concatenations,
``A → B C & D E``), because conjunctive parsing is also expressible by
matrix multiplication (Okhotin [19]); since conjunctive path querying is
undecidable [11], the result is hypothesised to be an **upper
approximation** of the true relation.  We implement exactly that:

* :class:`ConjunctiveGrammar` — CNF-style conjunctive rules
  ``A → (B1 C1) & (B2 C2) & ...`` plus terminal rules ``A → x``;
* :func:`solve_conjunctive_approx` — the fixpoint
  ``M_A ← M_A ∪ ⋂_conjuncts (M_B × M_C)`` (intersection of the boolean
  products across conjuncts, union into the accumulator), one direct
  while-changed loop: conjunction is not a semiring product, so it
  does not run on the pair-rule closure engine;
* the guarantee tests verify *soundness of the approximation*: every
  pair in the true conjunctive relation (checked by bounded-path
  enumeration) is present in the approximation.

Boolean grammars with negation are out of scope here (negation breaks
the monotone fixpoint); conjunction alone already exceeds context-free
power — e.g. ``{aⁿbⁿcⁿ}`` — and demonstrates the extension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..grammar.symbols import Nonterminal, Terminal
from ..graph.labeled_graph import LabeledGraph
from ..matrices.base import BooleanMatrix, MatrixBackend, get_backend
from .relations import ContextFreeRelations


@dataclass(frozen=True)
class ConjunctiveRule:
    """``head → (B1 C1) & (B2 C2) & ...`` — at least one conjunct."""

    head: Nonterminal
    conjuncts: tuple[tuple[Nonterminal, Nonterminal], ...]

    def __post_init__(self) -> None:
        if not self.conjuncts:
            raise ValueError("a conjunctive rule needs at least one conjunct")

    def __str__(self) -> str:
        body = " & ".join(f"{b} {c}" for b, c in self.conjuncts)
        return f"{self.head} -> {body}"


@dataclass(frozen=True)
class TerminalRule:
    """``head → x``."""

    head: Nonterminal
    terminal: Terminal

    def __str__(self) -> str:
        return f"{self.head} -> {self.terminal}"


class ConjunctiveGrammar:
    """A conjunctive grammar in binary normal form."""

    def __init__(self, rules: Iterable[ConjunctiveRule | TerminalRule]):
        self.conjunctive_rules: list[ConjunctiveRule] = []
        self.terminal_rules: list[TerminalRule] = []
        nonterminals: set[Nonterminal] = set()
        for rule in rules:
            if isinstance(rule, ConjunctiveRule):
                self.conjunctive_rules.append(rule)
                nonterminals.add(rule.head)
                for b, c in rule.conjuncts:
                    nonterminals.update((b, c))
            elif isinstance(rule, TerminalRule):
                self.terminal_rules.append(rule)
                nonterminals.add(rule.head)
            else:
                raise TypeError(f"unsupported rule {rule!r}")
        self.nonterminals = frozenset(nonterminals)

    @classmethod
    def parse(cls, text: str, terminals: Sequence[str]) -> "ConjunctiveGrammar":
        """Parse lines like ``A -> B C & D E`` / ``A -> x``; heads and
        symbols are whitespace-separated, conjuncts ``&``-separated."""
        terminal_names = set(terminals)
        rules: list[ConjunctiveRule | TerminalRule] = []
        for raw_line in text.splitlines():
            line = raw_line.split("#", 1)[0].strip()
            if not line:
                continue
            head_text, _arrow, body_text = line.partition("->")
            head = Nonterminal(head_text.strip())
            conjunct_texts = [part.split() for part in body_text.split("&")]
            if len(conjunct_texts) == 1 and len(conjunct_texts[0]) == 1:
                name = conjunct_texts[0][0]
                if name in terminal_names:
                    rules.append(TerminalRule(head, Terminal(name)))
                    continue
            conjuncts = []
            for tokens in conjunct_texts:
                if len(tokens) != 2:
                    raise ValueError(
                        f"conjunct must be two non-terminals, got {tokens!r}"
                    )
                conjuncts.append((Nonterminal(tokens[0]), Nonterminal(tokens[1])))
            rules.append(ConjunctiveRule(head, tuple(conjuncts)))
        return cls(rules)


def _intersect(left: BooleanMatrix, right: BooleanMatrix,
               backend: MatrixBackend) -> BooleanMatrix:
    """Element-wise AND via pair-set intersection (backend-agnostic)."""
    pairs = left.to_pair_set() & right.to_pair_set()
    return backend.from_pairs(left.shape[0], pairs, cols=left.shape[1])


def _seed_terminal_matrices(graph: LabeledGraph,
                            grammar: ConjunctiveGrammar,
                            backend: MatrixBackend,
                            ) -> dict[Nonterminal, BooleanMatrix]:
    n = graph.node_count
    matrices: dict[Nonterminal, BooleanMatrix] = {
        nt: backend.zeros(n) for nt in grammar.nonterminals
    }
    for rule in grammar.terminal_rules:
        pairs = graph.edge_pairs(rule.terminal.label)
        if pairs:
            matrices[rule.head] = matrices[rule.head].union(
                backend.from_pairs(n, pairs)
            )
    return matrices


def solve_conjunctive_approx(graph: LabeledGraph, grammar: ConjunctiveGrammar,
                             backend: "str | MatrixBackend | None" = None,
                             ) -> ContextFreeRelations:
    """Fixpoint of the conjunctive closure — the paper's hypothesised
    upper approximation of the (undecidable) exact relation.

    Each sweep computes, for every rule, the *intersection over
    conjuncts* of the boolean products, then unions the result into the
    head's matrix; sweeps repeat until no matrix grows.  With one
    conjunct per rule this is Algorithm 1 itself.
    """
    backend_obj = get_backend(backend)
    matrices = _seed_terminal_matrices(graph, grammar, backend_obj)

    changed = True
    while changed:
        changed = False
        for rule in grammar.conjunctive_rules:
            contribution: BooleanMatrix | None = None
            for left, right in rule.conjuncts:
                product = matrices[left].multiply(matrices[right])
                contribution = (
                    product if contribution is None
                    else _intersect(contribution, product, backend_obj)
                )
            assert contribution is not None
            updated = matrices[rule.head].union(contribution)
            if updated.nnz() != matrices[rule.head].nnz():
                matrices[rule.head] = updated
                changed = True

    return ContextFreeRelations(graph, matrices)


def anbncn_grammar() -> ConjunctiveGrammar:
    """The canonical non-context-free conjunctive language
    ``{aⁿ bⁿ cⁿ | n ≥ 1}`` in binary conjunctive normal form:

    ``S → (X C') & (A' Y)`` where ``X`` derives ``aⁿbⁿ``, ``Y`` derives
    ``bⁿcⁿ``, ``A'`` runs of a, ``C'`` runs of c.
    """
    return ConjunctiveGrammar.parse(
        """
        S  -> X Cs & As Y
        X  -> A Xb
        X  -> A B
        Xb -> X B
        Y  -> B Yc
        Y  -> B C
        Yc -> Y C
        As -> a
        As -> A As
        Cs -> c
        Cs -> C Cs
        A  -> a
        B  -> b
        C  -> c
        """,
        terminals=["a", "b", "c"],
    )
