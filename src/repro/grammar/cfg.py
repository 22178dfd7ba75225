"""Context-free grammar container.

Following the paper (and Hellings [11]) the grammar does **not** carry a
distinguished start non-terminal: the start symbol is supplied by each
path query (``L(G_S)`` for the queried ``S``).  A grammar is the triple
``G = (N, Σ, P)``; any non-terminal can serve as the query entry point.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Iterator, Mapping

from ..errors import NotInNormalFormError, UnknownSymbolError
from .production import Production
from .symbols import EPSILON, Nonterminal, Symbol, Terminal


class CFG:
    """An immutable context-free grammar ``G = (N, Σ, P)``.

    ``N`` always contains every non-terminal mentioned in any production;
    ``Σ`` every terminal.  Extra (unused) symbols may be declared
    explicitly which is occasionally useful for queries over labels that
    happen not to occur in a particular grammar.
    """

    def __init__(self, productions: Iterable[Production],
                 extra_nonterminals: Iterable[Nonterminal] = (),
                 extra_terminals: Iterable[Terminal] = (),
                 nullable_diagonal: Iterable[Nonterminal] = ()):
        self._productions: tuple[Production, ...] = tuple(dict.fromkeys(productions))
        self._nullable_diagonal = frozenset(nullable_diagonal)
        nonterminals: set[Nonterminal] = set(extra_nonterminals)
        terminals: set[Terminal] = set(extra_terminals)
        for prod in self._productions:
            nonterminals.update(prod.nonterminals())
            terminals.update(prod.terminals())
        self._nonterminals = frozenset(nonterminals)
        self._nonterminal_by_name = {nt.name: nt for nt in nonterminals}
        self._terminals = frozenset(terminals)

        by_head: dict[Nonterminal, list[Production]] = defaultdict(list)
        for prod in self._productions:
            by_head[prod.head].append(prod)
        self._by_head: dict[Nonterminal, tuple[Production, ...]] = {
            head: tuple(prods) for head, prods in by_head.items()
        }

        # Index used pervasively by the CFPQ algorithms:
        #   label of x  ->  {A | (A -> x) in P}
        #   (B, C)      ->  {A | (A -> B C) in P}
        heads_by_label: dict[str, set[Nonterminal]] = defaultdict(set)
        heads_by_pair: dict[tuple[Nonterminal, Nonterminal], set[Nonterminal]] = defaultdict(set)
        for prod in self._productions:
            if prod.is_terminal_rule:
                heads_by_label[prod.body[0].label].add(prod.head)  # type: ignore[union-attr]
            elif prod.is_binary_rule:
                heads_by_pair[(prod.body[0], prod.body[1])].add(prod.head)  # type: ignore[index]
        self._heads_by_label: dict[str, frozenset[Nonterminal]] = {
            label: frozenset(heads) for label, heads in heads_by_label.items()
        }
        self._heads_by_pair: dict[tuple[Nonterminal, Nonterminal], frozenset[Nonterminal]] = {
            pair: frozenset(heads) for pair, heads in heads_by_pair.items()
        }

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def productions(self) -> tuple[Production, ...]:
        """All productions, in declaration order, duplicates removed."""
        return self._productions

    @property
    def nonterminals(self) -> frozenset[Nonterminal]:
        """The set ``N``."""
        return self._nonterminals

    @property
    def terminals(self) -> frozenset[Terminal]:
        """The alphabet ``Σ``."""
        return self._terminals

    @property
    def nullable_diagonal(self) -> frozenset[Nonterminal]:
        """Non-terminals whose relation contains the identity diagonal.

        The paper's relation semantics counts the empty path ``iπi`` for
        every node, so ``ε ∈ L(G_A)`` puts ``(i, i)`` in ``R_A`` for all
        ``i``.  CNF normalization drops ε-rules; :func:`~repro.grammar.cnf.to_cnf`
        records here which *original* non-terminals were nullable so the
        solvers can seed the diagonal facts the ε-elimination removed.
        Empty for grammars that never derived ε (including any grammar
        already in CNF).
        """
        return self._nullable_diagonal

    def productions_for(self, head: Nonterminal) -> tuple[Production, ...]:
        """Productions whose head is *head* (empty tuple when none)."""
        return self._by_head.get(head, ())

    def heads_for_terminal(self, terminal: Terminal) -> frozenset[Nonterminal]:
        """``{A | (A -> x) ∈ P}`` — the matrix-initialization index."""
        return self.heads_for_label(terminal.label)

    def heads_for_label(self, label: str) -> frozenset[Nonterminal]:
        """:meth:`heads_for_terminal` by label text — what graph-side
        code asks with: an edge label the grammar does not mention is
        never interned as a :class:`Terminal`."""
        return self._heads_by_label.get(label, frozenset())

    def heads_for_pair(self, left: Nonterminal,
                       right: Nonterminal) -> frozenset[Nonterminal]:
        """``{A | (A -> B C) ∈ P}`` — the paper's ``N1 · N2`` building block."""
        return self._heads_by_pair.get((left, right), frozenset())

    @property
    def binary_rules(self) -> Iterator[Production]:
        """All CNF pair rules ``A -> B C``."""
        return (p for p in self._productions if p.is_binary_rule)

    @property
    def terminal_rules(self) -> Iterator[Production]:
        """All CNF terminal rules ``A -> x``."""
        return (p for p in self._productions if p.is_terminal_rule)

    @property
    def epsilon_rules(self) -> Iterator[Production]:
        """All ε-rules ``A -> ε`` (absent after normalization)."""
        return (p for p in self._productions if p.is_epsilon)

    def subset_product(self, left: Iterable[Nonterminal],
                       right: Iterable[Nonterminal]) -> set[Nonterminal]:
        """The paper's binary operation ``N1 · N2`` on subsets of ``N``:

        ``N1 · N2 = {A | ∃B ∈ N1, ∃C ∈ N2 : (A -> B C) ∈ P}``.
        """
        result: set[Nonterminal] = set()
        right = tuple(right)
        for b in left:
            for c in right:
                result |= self._heads_by_pair.get((b, c), frozenset())
        return result

    # ------------------------------------------------------------------
    # Shape predicates
    # ------------------------------------------------------------------
    @property
    def is_cnf(self) -> bool:
        """True when every production is ``A -> B C`` or ``A -> x``
        (the paper's grammar shape, Section 2 — no ε-rules)."""
        return all(p.is_cnf for p in self._productions)

    def require_cnf(self, context: str = "this algorithm") -> None:
        """Raise :class:`NotInNormalFormError` unless the grammar is CNF."""
        if not self.is_cnf:
            offenders = [str(p) for p in self._productions if not p.is_cnf]
            raise NotInNormalFormError(
                f"{context} requires a grammar in Chomsky normal form; "
                f"offending productions: {', '.join(offenders[:5])}"
                + ("..." if len(offenders) > 5 else "")
            )

    def resolve_nonterminal(self, symbol: "Nonterminal | str") -> Nonterminal:
        """The element of ``N`` that *symbol* (or its name) denotes.

        Looked up in the grammar's own table, so a name it does not
        know — arbitrary text off the wire — is rejected with
        :class:`UnknownSymbolError` without ever being interned
        (interned symbols are never dropped)."""
        if isinstance(symbol, Nonterminal):
            found = symbol if symbol in self._nonterminals else None
        else:
            found = self._nonterminal_by_name.get(str(symbol))
        if found is None:
            known = ", ".join(sorted(self._nonterminal_by_name))
            raise UnknownSymbolError(
                f"non-terminal {symbol} is not part of the grammar (knows: {known})"
            )
        return found

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CFG):
            return NotImplemented
        return (set(self._productions) == set(other._productions)
                and self._nonterminals == other._nonterminals
                and self._terminals == other._terminals)

    def __hash__(self) -> int:
        return hash((frozenset(self._productions), self._nonterminals, self._terminals))

    def __len__(self) -> int:
        return len(self._productions)

    def __iter__(self) -> Iterator[Production]:
        return iter(self._productions)

    def __repr__(self) -> str:
        return (f"CFG(|N|={len(self._nonterminals)}, |Σ|={len(self._terminals)}, "
                f"|P|={len(self._productions)})")

    def to_text(self) -> str:
        """Render the grammar in the text DSL accepted by
        :func:`repro.grammar.parser.parse_grammar`."""
        lines = []
        for prod in self._productions:
            rhs = " ".join(str(s) for s in prod.body) if prod.body else str(EPSILON)
            lines.append(f"{prod.head} -> {rhs}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_mapping(cls, rules: Mapping[str, Iterable[Iterable[str]]],
                     terminals: Iterable[str]) -> "CFG":
        """Build a grammar from a plain mapping.

        *rules* maps a head name to an iterable of bodies, each body an
        iterable of symbol names; names listed in *terminals* become
        :class:`Terminal`, everything else :class:`Nonterminal`::

            CFG.from_mapping({"S": [["a", "S", "b"], []]}, terminals=["a", "b"])
        """
        terminal_names = set(terminals)
        productions: list[Production] = []
        for head, bodies in rules.items():
            for body in bodies:
                symbols: list[Symbol] = []
                for name in body:
                    if name in terminal_names:
                        symbols.append(Terminal(name))
                    else:
                        symbols.append(Nonterminal(name))
                productions.append(Production(Nonterminal(head), tuple(symbols)))
        return cls(productions)
