"""String recognizers used as oracles in tests and for path validation.

* :func:`cyk_recognize` — the classical CYK dynamic program over a CNF
  grammar.  This is the table Valiant's algorithm (and, transitively,
  the paper's Algorithm 1) computes; we use it to validate extracted
  paths and to property-test the CNF transformation.
* :class:`EarleyRecognizer` — an Earley parser that accepts **arbitrary**
  grammars (ε-rules, unit rules, long bodies).  It serves as the
  independent oracle: CYK-after-CNF must agree with Earley-on-original.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Sequence

from .cfg import CFG
from .symbols import Nonterminal


def cyk_recognize(grammar: CFG, start: Nonterminal,
                  word: Sequence[str]) -> bool:
    """Decide ``start ⇒* word`` for a CNF grammar with the CYK algorithm.

    *word* is a sequence of terminal labels.  The empty word is rejected
    (CNF grammars here carry no ε-rules, mirroring the paper).
    """
    grammar.require_cnf("CYK recognition")
    n = len(word)
    if n == 0:
        return False

    # table[i][j] = set of non-terminals deriving word[i : i + j + 1]
    table: list[list[set[Nonterminal]]] = [
        [set() for _ in range(n)] for _ in range(n)
    ]
    for i, label in enumerate(word):
        table[i][0] = set(grammar.heads_for_label(label))

    for span in range(2, n + 1):            # substring length
        for i in range(n - span + 1):        # start position
            cell = table[i][span - 1]
            for split in range(1, span):     # left part length
                left = table[i][split - 1]
                right = table[i + split][span - split - 1]
                if left and right:
                    cell |= grammar.subset_product(left, right)
    return start in table[0][n - 1]


@dataclass(frozen=True, slots=True)
class _EarleyItem:
    head: Nonterminal
    body: tuple
    dot: int
    origin: int

    @property
    def next_symbol(self):
        return self.body[self.dot] if self.dot < len(self.body) else None

    @property
    def finished(self) -> bool:
        return self.dot >= len(self.body)

    def advanced(self) -> "_EarleyItem":
        return _EarleyItem(self.head, self.body, self.dot + 1, self.origin)


class EarleyRecognizer:
    """Earley recognition for arbitrary CFGs (the independent oracle).

    Handles ε-productions via the standard "magic completion" fix
    (Aycock & Horspool): when predicting a nullable non-terminal, also
    advance over it immediately.
    """

    def __init__(self, grammar: CFG):
        self.grammar = grammar
        from .analysis import nullable_nonterminals
        self._nullable = nullable_nonterminals(grammar)

    def recognizes(self, start: Nonterminal, word: Sequence[str]) -> bool:
        """Decide ``start ⇒* word`` (the empty word is allowed here)."""
        grammar = self.grammar
        n = len(word)
        chart: list[set[_EarleyItem]] = [set() for _ in range(n + 1)]
        # Wrapper item so we do not need a dedicated start production.
        goal = Nonterminal("__earley_goal__")
        root = _EarleyItem(goal, (start,), 0, 0)
        chart[0].add(root)

        for position in range(n + 1):
            worklist = list(chart[position])
            while worklist:
                item = worklist.pop()
                symbol = item.next_symbol
                if symbol is None:
                    # Completion: advance every item waiting on item.head.
                    for waiting in list(chart[item.origin]):
                        if waiting.next_symbol == item.head:
                            advanced = waiting.advanced()
                            if advanced not in chart[position]:
                                chart[position].add(advanced)
                                worklist.append(advanced)
                elif isinstance(symbol, Nonterminal):
                    # Prediction.
                    for prod in grammar.productions_for(symbol):
                        predicted = _EarleyItem(symbol, prod.body, 0, position)
                        if predicted not in chart[position]:
                            chart[position].add(predicted)
                            worklist.append(predicted)
                    if symbol in self._nullable:
                        advanced = item.advanced()
                        if advanced not in chart[position]:
                            chart[position].add(advanced)
                            worklist.append(advanced)
                else:
                    # Scan.
                    if position < n and word[position] == symbol.label:
                        advanced = item.advanced()
                        if advanced not in chart[position + 1]:
                            chart[position + 1].add(advanced)

        return any(
            item.head == goal and item.finished and item.origin == 0
            for item in chart[n]
        )


def derives(grammar: CFG, start: Nonterminal, word: Sequence[str]) -> bool:
    """Decide ``start ⇒* word`` for an arbitrary grammar (Earley)."""
    return EarleyRecognizer(grammar).recognizes(start, word)


def language_sample(grammar: CFG, start: Nonterminal, max_length: int,
                    alphabet: Sequence[str] | None = None) -> list[tuple[str, ...]]:
    """Enumerate all words of ``L(G_start)`` up to *max_length* by brute
    force over the alphabet — exponential, only for tiny test grammars."""
    from itertools import product as iter_product

    labels = list(alphabet) if alphabet is not None else sorted(
        t.label for t in grammar.terminals
    )
    recognizer = EarleyRecognizer(grammar)
    words: list[tuple[str, ...]] = []
    if recognizer.recognizes(start, ()):
        words.append(())
    for length in range(1, max_length + 1):
        for candidate in iter_product(labels, repeat=length):
            if recognizer.recognizes(start, candidate):
                words.append(candidate)
    return words
