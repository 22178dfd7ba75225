"""Grammar symbols: terminals, non-terminals and the empty string.

The paper works over an alphabet of *edge labels* (terminals) and a set of
*non-terminals*.  Symbols are small immutable **interned** objects — one
object per ``(class, name)`` per process — so they are dictionary keys,
set members and matrix-element members at the cost of a pointer: a fact
``(A, i, j)`` hashes like a tuple of machine words.

Edge labels in the paper frequently come in inverse pairs
(``subClassOf`` / ``subClassOf⁻¹``).  We provide :func:`inverse_label`
implementing the paper's textual convention: inverting a label appends
``_r`` (for "reversed"), inverting twice returns the original label.
"""

from __future__ import annotations

from typing import Union

#: Suffix used for inverse edge labels, e.g. ``subClassOf`` -> ``subClassOf_r``.
INVERSE_SUFFIX = "_r"

#: The intern table: one symbol object per ``(class, text)`` for the
#: life of the process.  Written only through ``dict.setdefault``, which
#: is atomic, so two threads racing on a fresh name agree on one object.
#: Entries are never dropped, so code that meets arbitrary strings (edge
#: labels of a graph or an update) asks ``CFG.heads_for_label`` instead
#: of constructing a ``Terminal``.  Hashing by identity also means the
#: iteration order of a symbol set follows addresses, not
#: ``PYTHONHASHSEED``: writers sort by name.
_INTERNED: dict[tuple[type, str], "Terminal | Nonterminal"] = {}


def _interned(cls: type, attribute: str, text: str, what: str):
    """The one *cls* symbol spelled *text*, created on first use."""
    key = (cls, text)
    symbol = _INTERNED.get(key)
    if symbol is None:
        if not text:
            raise ValueError(f"{what} must be a non-empty string")
        symbol = object.__new__(cls)
        object.__setattr__(symbol, attribute, text)
        symbol = _INTERNED.setdefault(key, symbol)
    return symbol


def _frozen(self, *_args) -> None:
    raise AttributeError(
        f"{type(self).__name__} symbols are immutable")


class Terminal:
    """A terminal symbol — an edge label of the graph alphabet ``Σ``.

    Interned: ``Terminal("a") is Terminal("a")``, so ``==`` and ``hash``
    are ``object``'s identity slots — no Python-level call per set or
    dictionary operation — and stay so across ``pickle``, ``copy`` and
    worker processes (:meth:`__reduce__` re-interns).
    """

    __slots__ = ("label",)

    def __new__(cls, label: str) -> "Terminal":
        return _interned(cls, "label", label, "terminal label")

    __setattr__ = __delattr__ = _frozen

    def __reduce__(self):
        return type(self), (self.label,)

    @property
    def inverse(self) -> "Terminal":
        """The inverse edge label (``x`` ↔ ``x_r``)."""
        return Terminal(inverse_label(self.label))

    def __str__(self) -> str:
        return self.label

    def __repr__(self) -> str:
        return f"Terminal({self.label!r})"


class Nonterminal:
    """A non-terminal symbol of the grammar (an element of ``N``).

    Interned like :class:`Terminal`; the two classes intern apart, so
    ``Terminal("a") != Nonterminal("a")``.
    """

    __slots__ = ("name",)

    def __new__(cls, name: str) -> "Nonterminal":
        return _interned(cls, "name", name, "non-terminal name")

    __setattr__ = __delattr__ = _frozen

    def __reduce__(self):
        return type(self), (self.name,)

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"Nonterminal({self.name!r})"


class _Epsilon:
    """The empty string ``ε``.  A singleton; use the module-level EPSILON."""

    _instance: "_Epsilon | None" = None

    def __new__(cls) -> "_Epsilon":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __reduce__(self) -> str:
        return "EPSILON"  # pickle by reference to the module global

    def __str__(self) -> str:
        return "eps"

    def __repr__(self) -> str:
        return "EPSILON"


#: The unique empty-string symbol.
EPSILON = _Epsilon()

#: Any symbol that may appear on the right-hand side of a production.
Symbol = Union[Terminal, Nonterminal]


def as_nonterminal(value: "Nonterminal | str") -> Nonterminal:
    """*value* itself when it is a non-terminal, else the non-terminal
    of that name (public entry points accept either)."""
    return value if isinstance(value, Nonterminal) else Nonterminal(value)


def inverse_label(label: str) -> str:
    """Return the inverse of an edge label.

    ``inverse_label("subClassOf") == "subClassOf_r"`` and
    ``inverse_label("subClassOf_r") == "subClassOf"``.
    """
    if label.endswith(INVERSE_SUFFIX) and len(label) > len(INVERSE_SUFFIX):
        return label[: -len(INVERSE_SUFFIX)]
    return label + INVERSE_SUFFIX


def is_inverse_label(label: str) -> bool:
    """True when *label* denotes an inverse edge (``..._r``)."""
    return label.endswith(INVERSE_SUFFIX) and len(label) > len(INVERSE_SUFFIX)


def fresh_nonterminal(base: str, taken: set[Nonterminal]) -> Nonterminal:
    """Return a non-terminal named after *base* that is not in *taken*.

    Used by normal-form transformations that need to invent symbols
    without colliding with user-defined ones.
    """
    candidate = Nonterminal(base)
    counter = 0
    while candidate in taken:
        counter += 1
        candidate = Nonterminal(f"{base}{counter}")
    return candidate
