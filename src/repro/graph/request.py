"""One reader for queries: a JSON object (a wire ``query``/``top_k``
request, a wire ``batch`` item, a ``query --batch`` line) or a
``path``/``paths`` command line in, one :class:`Query` out.

Keys, ``start``, the ``k``/``cursor``/``max_length`` ints, the
semantics a surface answers and the endpoints are each checked once,
with one text on every surface.  ``source``/``target`` are one node
each (``relational`` takes none, or both for membership); ``sources``/
``targets`` are node lists restricting a batch file's relation.  A list
``[start, source, target, semantics]`` reads as that dict.
"""

from __future__ import annotations

from typing import Hashable, NamedTuple

from ..errors import SemanticsError
from .io import coerce_json_node

#: The wire's envelope keys: the transport reads them, a query does not.
ENVELOPE = ("op", "_rid")

SEMANTICS = ("relational", "membership", "single-path", "length",
             "all-path")

#: Each surface: its name in refusals, the keys it reads, and the
#: semantics it answers (the first is its default).
SURFACES = {
    "query": ("the server's query requests and batch items",
              ("start", "source", "target", "semantics"),
              ("relational", "single-path", "length")),
    "top_k": ("the server's top_k requests",
              ("start", "source", "target", "k", "cursor", "max_length"),
              ("all-path",)),
    "batch": ("query --batch lines",
              ("start", "source", "target", "sources", "targets",
               "semantics"),
              ("relational", "membership")),
}
_KEYS = tuple(dict.fromkeys(key for _name, reads, _answers
                            in SURFACES.values() for key in reads))
_NODE_LISTS = (list, set, frozenset)  # a tuple is a node: graphs have them


def non_negative_int(value, name: str) -> int:
    """*value* when it is a non-negative ``int`` (a ``bool`` is not)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise SemanticsError(
            f"{name} must be a non-negative int, not {value!r}")
    return value


class Query(NamedTuple):
    """The ``start`` non-terminal (resolved by the answerer's grammar),
    the endpoint node sets (``None`` = unrestricted), the semantics, and
    an ``all-path`` page: ``k`` paths from rank ``cursor``, each at most
    ``max_length`` edges long."""

    start: Hashable
    sources: "frozenset | None" = None
    targets: "frozenset | None" = None
    semantics: str = "relational"
    k: int = 1
    cursor: int = 0
    max_length: "int | None" = None

    @property
    def ends(self) -> tuple:
        """The ``(source, target)`` nodes of a point query."""
        return next(iter(self.sources)), next(iter(self.targets))


def check_keys(spec: dict, reads, what: str, envelope=()) -> None:
    """Refuse the first key of *spec* in neither *reads* nor *envelope*."""
    for key in spec:
        if key not in reads and key not in envelope:
            raise SemanticsError(f"unknown key {key!r}; {what} reads "
                                 f"{', '.join(reads) or 'no other key'}")


def read_query(spec, graph=None, surface: str = "query",
               envelope=()) -> Query:
    """*spec* (a dict, a list or a :class:`Query`) as a query of
    *surface* (a key of :data:`SURFACES`), its nodes resolved against
    *graph* when given; :class:`~repro.errors.SemanticsError` if not."""
    name, reads, answers = SURFACES[surface]
    if isinstance(spec, Query):
        query = spec
        _answered(query.semantics, name, answers)
    else:
        query = _read(spec, graph, name, reads, answers, envelope)
    if query.semantics != "relational" and (query.sources is None
                                            or query.targets is None):
        raise SemanticsError(
            f"{query.semantics!r} queries require a source and a target")
    return query


def read_argv(args, graph) -> Query:
    """The query of a ``path`` (single-path) or ``paths`` (all-path)
    command line, whose flags set the keys a JSON query has."""
    spec = {"start": args.start, "source": args.source,
            "target": args.target}
    if args.command == "path":
        return read_query({**spec, "semantics": "single-path"}, graph)
    return read_query({**spec, "k": args.top_k,
                       "max_length": args.max_length}, graph, "top_k")


def _read(spec, graph, name: str, reads, answers, envelope) -> Query:
    if isinstance(spec, (list, tuple)):
        if not 1 <= len(spec) <= 4:
            raise SemanticsError("a query list is [start, source, target, "
                                 f"semantics]; got {len(spec)} elements")
        spec = {key + "s" if key in ("source", "target") and isinstance(
            value, _NODE_LISTS) else key: value for key, value in zip(
                ("start", "source", "target", "semantics"), spec)}
    elif not isinstance(spec, dict):
        raise SemanticsError("a query is a JSON object or a [start, source, "
                             f"target, semantics] list, not "
                             f"{type(spec).__name__}")
    start = spec.get("start")
    if start is None:
        raise SemanticsError("a query needs a 'start' nonterminal")
    k, cursor = _number(spec, "k", 1), _number(spec, "cursor", 0)
    max_length = _number(spec, "max_length", None)
    for key in spec:  # after the numbers, so they get one text everywhere
        if key not in reads and key not in envelope:
            check_keys({key: None}, _KEYS, "a query")  # outside the language
            raise SemanticsError(f"{name} do not read {key!r}")
    semantics = spec.get("semantics")
    semantics = answers[0] if semantics is None else semantics
    _answered(semantics, name, answers)
    sides, points = [], 0
    for key, plural in (("source", "sources"), ("target", "targets")):
        node, nodes = spec.get(key), spec.get(plural)
        if node is not None:
            if nodes is not None:
                raise SemanticsError(f"give {key!r} or {plural!r}, not both")
            if isinstance(node, _NODE_LISTS):
                raise SemanticsError(f"{key!r} is one node, not a list")
            nodes, points = (node,), points + 1
        elif nodes is not None and not isinstance(nodes, (tuple,
                                                          *_NODE_LISTS)):
            nodes = (nodes,)
        if nodes is not None:
            if any(isinstance(each, (dict, list)) for each in nodes):
                raise SemanticsError("a node is a JSON string or number, "
                                     "not an object or a list")
            nodes = frozenset(nodes if graph is None else [
                coerce_json_node(graph, each) for each in nodes])
        sides.append(nodes)
    if semantics == "relational" and points:
        if None in sides:
            raise SemanticsError(
                "relational queries take either no endpoints (full "
                "relation) or both (membership)")
        semantics = "membership" if points == 2 else semantics
    return Query(start, sides[0], sides[1], semantics, k, cursor, max_length)


def _number(spec: dict, key: str, default):
    value = spec.get(key)
    return default if value is None else non_negative_int(value, key)


def _answered(semantics, name: str, answers) -> None:
    """Refuse a *semantics* the surface *name* does not answer."""
    if semantics not in answers:
        raise SemanticsError(
            f"{name} do not answer {semantics!r} queries"
            if semantics in SEMANTICS else
            f"unknown semantics {semantics!r}; expected one of "
            f"{', '.join(SEMANTICS)}")
