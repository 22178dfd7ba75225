"""The all-path parse forest, read off the closed relations.

At the fixpoint of Algorithm 1 a fact ``(A, i, j)`` holds exactly when
it has a one-step derivation from the graph and the other facts:

* ``("empty",)`` — ``i == j`` and ``A`` was nullable before CNF (the
  empty path ``iπi``);
* ``("edge", x)`` — an edge ``(i, x, j)`` with a rule ``A → x``;
* ``("split", B, C, r)`` — a rule ``A → B C`` with ``(i, r) ∈ R_B`` and
  ``(r, j) ∈ R_C``, i.e. ``r ∈ rows[B][i] ∩ cols[C][j]``.

Nothing about a derivation has to be stored: the paper's §5 "simple
search" recovers a path from the closed matrices alone, and the §7
parse forest — the natural answer representation for the *all-path*
semantics — is just as implicit: node ``(A, i, j)`` has exactly these
children, recovered by one set intersection per rule, the way a chart
parser reads its chart.  That is the shared packed forest (an SPPF in
parsing terms), the same for every closure strategy and backend
because the relations are.  :func:`one_step_derivations` is the single
reader of that structure; DRed re-derivation
(:mod:`repro.core.incremental`), single-path extraction
(:mod:`repro.core.single_path`) and :class:`AllPathIndex` all go
through it.

:class:`AllPathIndex` is that view plus memo tables, and supports:

* :meth:`~AllPathIndex.splits` / :meth:`~AllPathIndex.terminal_edges`
  — forest inspection;
* :meth:`~AllPathIndex.count_paths` — the number of distinct paths up
  to a length bound, by dynamic programming over the forest;
* :meth:`~AllPathIndex.iter_paths` — lazy enumeration in order of
  increasing length;
* :meth:`~AllPathIndex.iter_k_best` / :meth:`~AllPathIndex.top_k` —
  lazy best-first enumeration;
* :meth:`~AllPathIndex.shortest_path_length` — minimal witness length
  per pair (what Hellings' single-path algorithm computes [12]).

Cycles in the graph make the forest cyclic (infinitely many paths), so
the all-path answer is bound-parameterized, the annotated-grammar-free
way to keep it finite (§7).  Enumeration recurses on *exact* path
lengths, which strictly decrease at every split, so it terminates on
cyclic forests by construction.
"""

from __future__ import annotations

import heapq
import itertools
from collections import defaultdict
from collections.abc import Mapping
from typing import Callable, Hashable, Iterable, Iterator

from ..errors import SemanticsError
from ..grammar.cfg import CFG
from ..grammar.cnf import ensure_cnf
from ..grammar.symbols import Nonterminal
from ..graph.labeled_graph import LabeledGraph
from ..graph.request import non_negative_int
from .relations import ContextFreeRelations
from .semiring import (
    COUNTING_SEMIRING,
    LENGTH_SEMIRING,
    CountingSemiring,
    Semiring,
)

#: A path is a sequence of labeled edges (source_id, label, target_id).
PathEdge = tuple[int, str, int]
Path = tuple[PathEdge, ...]

#: A derived fact ``(A, i, j)`` by dense node ids.
Fact = tuple[Nonterminal, int, int]

#: One one-step derivation of a fact (see the module docstring).
Support = tuple

#: ``rows[A][i] = {j}`` (or ``cols[A][j] = {i}``) for facts ``(A, i, j)``:
#: the incremental solvers' live maps (a single-path row is ``{j:
#: length}``, read as its keys), or :func:`matrix_maps` over matrices.
FactMaps = dict[Nonterminal, "defaultdict[int, set[int]] | MatrixRows"]


def fact_maps(nonterminals: Iterable[Nonterminal], row: type = set) -> FactMaps:
    """Empty row (or column) maps of *row* rows, one per non-terminal."""
    return {nonterminal: defaultdict(row) for nonterminal in nonterminals}


class MatrixRows(Mapping):
    """The row map of one closed matrix, read in place: ``get(i)`` turns
    row ``i`` of *export*'s ``(indptr, indices)`` (a ``row_major()``
    export, taken on the first read) into a set of Python ints on its
    first read and keeps it; iteration yields the non-empty rows."""

    __slots__ = ("_export", "_csr", "_memo")

    def __init__(self, export: Callable[[], tuple]):
        self._export, self._csr, self._memo = export, None, {}

    def _starts(self) -> list[int]:
        if self._csr is None:
            indptr, indices = self._export()
            self._csr = indptr.tolist(), indices
        return self._csr[0]

    def get(self, i: int, default=None):
        row = self._memo.get(i)
        if row is None:
            starts, indices = self._starts(), self._csr[1]
            row = self._memo[i] = set(
                indices[starts[i]:starts[i + 1]].tolist())
        return row or default

    def __getitem__(self, i: int) -> set[int]:
        row = self.get(i)
        if row is None:
            raise KeyError(i)
        return row

    def __iter__(self) -> Iterator[int]:
        return (i for i, (start, end) in enumerate(itertools.pairwise(
            self._starts())) if start != end)

    def __len__(self) -> int:
        return sum(1 for _ in self)


def matrix_maps(nonterminals: Iterable[Nonterminal], matrices: Mapping,
                ) -> tuple[FactMaps, FactMaps]:
    """The ``(rows, cols)`` maps of closed ``matrices[A]`` read in place;
    a column map reads the transpose, a non-terminal without a matrix
    is empty."""
    rows: dict = {}
    cols: dict = {}
    for nonterminal in nonterminals:
        if nonterminal not in matrices:
            rows[nonterminal] = cols[nonterminal] = {}
            continue
        rows[nonterminal] = MatrixRows(
            lambda nt=nonterminal: matrices[nt].row_major())
        cols[nonterminal] = MatrixRows(
            lambda nt=nonterminal: matrices[nt].transpose().row_major())
    return rows, cols


def one_step_derivations(graph: LabeledGraph, grammar: CFG,
                         rows: FactMaps, cols: FactMaps,
                         ) -> Callable[[Fact], Iterator[Support]]:
    """Bind the derivation reader to *rows* / *cols*.

    The maps are read live on every call and never copied, so the
    returned function stays correct while their owner (the incremental
    solver) mutates them between calls.  The order is a function of the
    inputs alone: the empty path, then edges in grammar rule order,
    then splits sorted by ``(B.name, C.name, r)``.  A call iterates no
    live row, so the caller may record facts while consuming it.
    """
    nullable = grammar.nullable_diagonal
    labels_for_head: dict[Nonterminal, list[str]] = defaultdict(list)
    for rule in grammar.terminal_rules:
        labels_for_head[rule.head].append(rule.body[0].label)  # type: ignore[union-attr]
    # Each pair rule bound once to the two maps its join reads.
    bodies_for_head: dict[Nonterminal, list] = defaultdict(list)
    for rule in grammar.binary_rules:
        left, right = rule.body  # type: ignore[misc]
        bodies_for_head[rule.head].append(
            (left, right, rows[left], cols[right]))  # type: ignore[index]
    for bodies in bodies_for_head.values():
        bodies.sort(key=lambda body: (body[0].name, body[1].name))
    has_edge = graph.has_edge_id

    def derivations(fact: Fact) -> Iterator[Support]:
        nonterminal, i, j = fact
        if i == j and nonterminal in nullable:
            yield ("empty",)
        for label in labels_for_head.get(nonterminal, ()):
            if has_edge(i, label, j):
                yield ("edge", label)
        for left, right, left_rows, right_cols in \
                bodies_for_head.get(nonterminal, ()):
            midpoints = left_rows.get(i)
            ends = right_cols.get(j)
            if midpoints and ends:
                for r in sorted(ends.intersection(midpoints)):
                    yield ("split", left, right, r)

    return derivations


#: One binary split of (A, i, j): (left nonterminal, right nonterminal, mid).
Split = tuple[Nonterminal, Nonterminal, int]


class AllPathIndex:
    """The implicit parse forest of one CFPQ evaluation.

    A view of the relations' row and column maps *rows* / *cols*, read
    live and never copied: the closed matrices read in place
    (:func:`matrix_maps`, as :meth:`build` does)
    or the fact maps the incremental solver maintains.  Only memo
    tables are stored; whoever mutates the maps calls
    :meth:`drop_memos`.
    """

    def __init__(self, graph: LabeledGraph, grammar: CFG,
                 rows: FactMaps, cols: FactMaps):
        self.graph = graph
        self.grammar = grammar
        #: ``rows[A][i] = {j}``: the row view of ``R_A``.
        self._rows = rows
        self._derivations = one_step_derivations(graph, grammar, rows, cols)
        # Exact-length enumeration memo: (A, i, j, length) -> paths.
        self._length_memo: dict[tuple[Nonterminal, int, int, int],
                                tuple[Path, ...]] = {}
        # Best-completion caches shared across queries, one per ranking
        # semiring (keyed by the object: two weightings never share
        # one): one Dijkstra run settles every node of the reachable
        # sub-forest, and the sub-forest is closed under children, so
        # those optima are globally correct and reusable.
        self._rank_cache: dict[Semiring, dict[tuple[Nonterminal, int, int],
                                              object]] = {}
        # Ranked-alternative cache per forest node (k-best expansion).
        self._alternatives_cache: dict[
            tuple[Semiring, Nonterminal, int, int], tuple] = {}
        #: Instrumentation for the streaming guarantee: heap pops
        #: (expansions) and paths yielded by the k-best enumerator.
        self.kbest_stats = {"expansions": 0, "yielded": 0}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, graph: LabeledGraph, grammar: CFG,
              strategy: str | None = None,
              **tile_options) -> "AllPathIndex":
        """Run the boolean closure and read its matrices in place.

        *strategy* and *tile_options* configure the closure as on
        :func:`~repro.core.matrix_cfpq.solve_matrix`; the forest depends
        on the relations alone, so every strategy produces the identical
        one.
        """
        from .matrix_cfpq import solve_matrix

        cnf = ensure_cnf(grammar)
        result = solve_matrix(graph, cnf, normalize=False,
                              strategy=strategy, **tile_options)
        return cls(graph, cnf, *matrix_maps(cnf.nonterminals,
                                            result.matrices))

    def drop_memos(self) -> None:
        """Forget everything memoized about the forest (the tables
        refill lazily).  Required after the relations or the graph
        under a view changed."""
        self._length_memo.clear()
        self._rank_cache.clear()
        self._alternatives_cache.clear()

    @property
    def relations(self) -> ContextFreeRelations:
        """The relations the forest is a view of: its row maps, live."""
        return ContextFreeRelations(self.graph, self._rows)

    # ------------------------------------------------------------------
    # Forest structure
    # ------------------------------------------------------------------
    def _children(self, nonterminal: Nonterminal, i: int, j: int,
                  ) -> tuple[list[str], list[Split]]:
        """The terminal labels and the binary splits of one node."""
        labels: list[str] = []
        splits: list[Split] = []
        for support in self._derivations((nonterminal, i, j)):
            if support[0] == "edge":
                labels.append(support[1])
            elif support[0] == "split":
                splits.append(support[1:])
        return labels, splits

    def terminal_edges(self, nonterminal: Nonterminal, i: int,
                       j: int) -> list[str]:
        """Labels x with ``(i, x, j) ∈ E`` and ``(A → x) ∈ P``."""
        return self._children(nonterminal, i, j)[0]

    def splits(self, nonterminal: Nonterminal, i: int, j: int) -> list[Split]:
        """All binary decompositions of the forest node ``(A, i, j)``,
        ordered by ``(B.name, C.name, r)``."""
        return self._children(nonterminal, i, j)[1]

    def node_exists(self, nonterminal: Nonterminal, i: int, j: int) -> bool:
        """``(i, j) ∈ R_A``."""
        return j in self._rows.get(nonterminal, {}).get(i, ())

    def _node(self, nonterminal: Nonterminal | str, source: Hashable,
              target: Hashable) -> tuple[Nonterminal, int, int]:
        """The forest node a query names: the grammar's non-terminal
        (:class:`~repro.errors.UnknownSymbolError` for one it lacks)
        and the endpoints' dense ids."""
        return (self.grammar.resolve_nonterminal(nonterminal),
                self.graph.node_id(source), self.graph.node_id(target))

    def _has_empty_path(self, nonterminal: Nonterminal, i: int,
                        j: int) -> bool:
        """True when the empty path ``iπi`` witnesses ``(i, j) ∈ R_A``
        (diagonal cell of an originally-nullable non-terminal)."""
        return i == j and nonterminal in self.grammar.nullable_diagonal

    # ------------------------------------------------------------------
    # Path counting (DP over the forest, length-stratified)
    # ------------------------------------------------------------------
    def count_paths(self, nonterminal: Nonterminal | str, source: Hashable,
                    target: Hashable, max_length: int,
                    semiring: CountingSemiring | None = None) -> int:
        """Number of distinct paths of length ≤ *max_length*, saturating
        at the counting semiring's cap.

        DP on ``counts[(A, i, j)][l]``, the derivations of exactly length
        l: splits convolve left and right counts through the counting
        semiring's saturating scalar ops — the ⊗/⊕ the closure-level
        counting annotation runs (the tests assert the two agree).  A
        grammar that may be ambiguous counts enumerated edge sequences
        instead, so paths count once, not once per parse tree.
        """
        semiring = semiring or COUNTING_SEMIRING
        max_length = non_negative_int(max_length, "max_length")
        nonterminal, i, j = self._node(nonterminal, source, target)
        if self._grammar_is_ambiguous():
            total = 0
            for _ in self._iter_paths(nonterminal, i, j, max_length):
                total = semiring.saturating_add(total, 1)
            return total
        empty = 1 if self._has_empty_path(nonterminal, i, j) else 0
        return semiring.saturating_add(
            empty, self._count_dp(nonterminal, i, j, max_length, semiring)
        )

    def _grammar_is_ambiguous(self) -> bool:
        """Cheap over-approximation: a grammar with two rules sharing a
        head that can derive the same spans may be ambiguous; we only
        shortcut the DP for obviously-unambiguous single-rule heads."""
        by_head: dict[Nonterminal, int] = defaultdict(int)
        for rule in self.grammar.productions:
            by_head[rule.head] += 1
        return any(count > 1 for count in by_head.values())

    def _count_dp(self, nonterminal: Nonterminal, i: int, j: int,
                  max_length: int, semiring: CountingSemiring) -> int:
        sat_add = semiring.saturating_add
        sat_mul = semiring.saturating_multiply
        memo: dict[tuple[Nonterminal, int, int], list[int]] = {}

        def counts(head: Nonterminal, a: int, b: int) -> list[int]:
            key = (head, a, b)
            if key in memo:
                return memo[key]
            vector = [0] * (max_length + 1)
            memo[key] = vector  # cycle guard: zeros while computing
            labels, splits = self._children(head, a, b)
            if 1 <= max_length and labels:
                vector[1] = sat_add(vector[1], len(labels))
            for left, right, r in splits:
                left_counts = counts(left, a, r)
                right_counts = counts(right, r, b)
                for l1 in range(1, max_length):
                    if not left_counts[l1]:
                        continue
                    for l2 in range(1, max_length - l1 + 1):
                        if right_counts[l2]:
                            vector[l1 + l2] = sat_add(
                                vector[l1 + l2],
                                sat_mul(left_counts[l1], right_counts[l2]),
                            )
            return vector

        # Fixpoint for cyclic forests: iterate until counts stabilize.
        previous = None
        for _ in range(max_length + 1):
            memo.clear()
            total = 0
            for entry in counts(nonterminal, i, j):
                total = sat_add(total, entry)
            if total == previous:
                break
            previous = total
        return previous or 0

    # ------------------------------------------------------------------
    # Lazy enumeration (shortest first)
    # ------------------------------------------------------------------
    def iter_paths(self, nonterminal: Nonterminal | str, source: Hashable,
                   target: Hashable, max_length: int) -> Iterator[Path]:
        """Enumerate all distinct paths of length ≤ *max_length*, in
        non-decreasing length order.

        Terminates on cyclic graphs: the recursion is on *exact* path
        lengths, which strictly decrease at every split.
        """
        return self._iter_paths(*self._node(nonterminal, source, target),
                                non_negative_int(max_length, "max_length"))

    def _iter_paths(self, nonterminal: Nonterminal, i: int, j: int,
                    max_length: int) -> Iterator[Path]:
        if not self.node_exists(nonterminal, i, j):
            return
        emitted: set[Path] = set()
        if self._has_empty_path(nonterminal, i, j):
            emitted.add(())
            yield ()
        for length in range(1, max_length + 1):
            for path in self._paths_of_length(nonterminal, i, j, length):
                if path not in emitted:
                    emitted.add(path)
                    yield path

    def _paths_of_length(self, head: Nonterminal, i: int, j: int,
                         length: int) -> tuple[Path, ...]:
        """All derivation paths of (head, i, j) of *exactly* `length`.

        Memoized; safe on cyclic forests because every split recurses on
        strictly smaller lengths (1 ≤ l1 < length), so (head, i, j,
        length) can never re-enter itself.
        """
        key = (head, i, j, length)
        cached = self._length_memo.get(key)
        if cached is not None:
            return cached
        found: list[Path] = []
        if length == 1:
            found = [((i, label, j),)
                     for label in self.terminal_edges(head, i, j)]
        else:
            seen: set[Path] = set()
            for left, right, r in self.splits(head, i, j):
                for l1 in range(1, length):
                    for left_path in self._paths_of_length(left, i, r, l1):
                        for right_path in self._paths_of_length(
                                right, r, j, length - l1):
                            combined = left_path + right_path
                            if combined not in seen:
                                seen.add(combined)
                                found.append(combined)
        result = tuple(found)
        self._length_memo[key] = result
        return result

    # ------------------------------------------------------------------
    # Lazy k-best (ranked alternatives per node, heap-popped best-first)
    # ------------------------------------------------------------------
    def _ranked_alternatives(self, node: tuple[Nonterminal, int, int],
                             rank: Semiring) -> tuple:
        """The node's derivation alternatives, best-first under *rank*.

        Each alternative is ``(entry, lower_bound)`` where *entry* is
        ``("edge", label, value)`` or ``("split", left_node, right_node)``
        and *lower_bound* is the best completable path value through it
        (exact for edges; the combined child optima for splits).  Splits
        whose children admit no non-empty path are unreachable and
        dropped.  Deterministically ordered (rank key, then edges before
        splits, then label / split identity), so every strategy's forest
        enumerates identically.
        """
        cache_key = (rank,) + node
        cached = self._alternatives_cache.get(cache_key)
        if cached is not None:
            return cached
        head, a, b = node
        labels, splits = self._children(head, a, b)
        ranked: list = []
        for label in labels:
            value = rank.identity(label)
            ranked.append((rank.rank_key(value), 0, label,
                           (("edge", label, value), value)))
        for left, right, r in splits:
            left_node = (left, a, r)
            right_node = (right, r, b)
            left_best = self._best_completion(left_node, rank)
            right_best = self._best_completion(right_node, rank)
            if left_best is None or right_best is None:
                continue
            bound = rank.multiply(left_best, right_best)
            ranked.append((rank.rank_key(bound), 1,
                           (left.name, right.name, r),
                           (("split", left_node, right_node), bound)))
        ranked.sort(key=lambda alt: alt[:3])
        result = tuple(alt[3] for alt in ranked)
        self._alternatives_cache[cache_key] = result
        return result

    def iter_k_best(self, nonterminal: Nonterminal | str, source: Hashable,
                    target: Hashable, max_length: int | None = None,
                    rank: Semiring | None = None) -> Iterator[Path]:
        """Lazily enumerate paths best-first under the ranking semiring
        *rank*: an edge is worth ``identity(label)``, the empty path
        ``empty_path()``, a concatenation the ``multiply`` of its parts,
        and smaller ``rank_key`` values come first (default
        :data:`~repro.core.semiring.LENGTH_SEMIRING`, shortest first;
        a :class:`~repro.core.semiring.ViterbiSemiring`, most probable
        first).  A semiring without ``rank_key`` is a
        :class:`~repro.errors.SemanticsError`.

        Best-first search over partial derivations: a state is a
        concrete edge prefix plus the pending forest goals (leftmost
        first), and its heap priority is the exact prefix value combined
        with each goal's cached best completion — an exact lower bound,
        so states pop in true path order and the first k pops of
        complete paths *are* the k best.  At every goal the node's
        ranked alternatives are consumed lazily: popping a state pushes
        only its next-sibling alternative, never the whole fan-out, so
        the full path set is never materialized (``kbest_stats`` counts
        the heap pops the streaming tests bound).  Duplicate edge
        sequences from ambiguous derivations are emitted once,
        matching :meth:`iter_paths`.
        """
        rank = LENGTH_SEMIRING if rank is None else rank
        if getattr(rank, "rank_key", None) is None:
            raise SemanticsError(
                f"semiring {getattr(rank, 'name', rank)!r} does not rank "
                "paths (it has no rank_key)")
        if max_length is not None:
            non_negative_int(max_length, "max_length")
        return self._iter_k_best(*self._node(nonterminal, source, target),
                                 max_length, rank)

    def _iter_k_best(self, nonterminal: Nonterminal, i: int, j: int,
                     max_length: int | None,
                     rank: Semiring) -> Iterator[Path]:
        if not self.node_exists(nonterminal, i, j):
            return
        stats = self.kbest_stats
        if self._has_empty_path(nonterminal, i, j):
            stats["yielded"] += 1
            yield ()
        root = (nonterminal, i, j)
        if self._best_completion(root, rank) is None:
            return
        rank_key, multiply = rank.rank_key, rank.multiply

        serial = itertools.count()
        heap: list = []

        def push(edges: Path, value, goals: tuple, alt_index: int) -> None:
            if not goals:
                heapq.heappush(heap, (rank_key(value), next(serial),
                                      edges, value, (), 0, True))
                return
            alternatives = self._ranked_alternatives(goals[0], rank)
            if alt_index >= len(alternatives):
                return
            bound = multiply(value, alternatives[alt_index][1])
            for goal in goals[1:]:
                bound = multiply(bound, self._best_completion(goal, rank))
            heapq.heappush(heap, (rank_key(bound), next(serial),
                                  edges, value, goals, alt_index, False))

        push((), rank.empty_path(), (root,), 0)
        emitted: set[Path] = set()
        while heap:
            (_key, _tie, edges, value, goals,
             alt_index, done) = heapq.heappop(heap)
            stats["expansions"] += 1
            if done:
                if max_length is not None and len(edges) > max_length:
                    continue
                if edges not in emitted:
                    emitted.add(edges)
                    stats["yielded"] += 1
                    yield edges
                continue
            if max_length is not None:
                floor = len(edges)
                for goal in goals:
                    shortest = self._best_completion(goal, LENGTH_SEMIRING)
                    floor = (max_length + 1 if shortest is None
                             else floor + shortest)
                if floor > max_length:
                    continue
            push(edges, value, goals, alt_index + 1)
            entry, _bound = self._ranked_alternatives(goals[0], rank)[alt_index]
            if entry[0] == "edge":
                _kind, label, weight = entry
                _head, a, b = goals[0]
                push(edges + ((a, label, b),), multiply(value, weight),
                     goals[1:], 0)
            else:
                _kind, left_node, right_node = entry
                push(edges, value, (left_node, right_node) + goals[1:], 0)

    def top_k(self, nonterminal: Nonterminal | str, source: Hashable,
              target: Hashable, k: int, max_length: int | None = None,
              rank: Semiring | None = None) -> list[Path]:
        """The *k* best paths (see :meth:`iter_k_best`); a prefix of
        ``top_k(..., k + 1)`` by construction — one lazy iterator,
        truncated."""
        return list(itertools.islice(
            self.iter_k_best(nonterminal, source, target,
                             max_length=max_length, rank=rank),
            non_negative_int(k, "k")))

    # ------------------------------------------------------------------
    # Shortest witnesses
    # ------------------------------------------------------------------
    def shortest_path_length(self, nonterminal: Nonterminal | str,
                             source: Hashable, target: Hashable) -> int | None:
        """The minimal witness length for ``(source, target) ∈ R_A`` —
        Dijkstra over forest nodes (every node's cost = min over its
        terminal edges and splits)."""
        nonterminal, i, j = self._node(nonterminal, source, target)
        if not self.node_exists(nonterminal, i, j):
            return None
        if self._has_empty_path(nonterminal, i, j):
            return 0
        return self._best_completion((nonterminal, i, j), LENGTH_SEMIRING)

    def _best_completion(self, root: tuple[Nonterminal, int, int],
                         rank: Semiring) -> object | None:
        """The best *non-empty* path value of *root* under *rank*
        (length: the minimum; viterbi: the maximum probability), or None
        when only the empty path witnesses it.

        Generic Dijkstra over forest nodes: collect the reachable
        sub-forest, then relax from terminal leaves upward with the
        semiring's ``multiply``, keeping the value of smaller
        ``rank_key``.  Settled optima are cached per semiring and
        reused — the sub-forest is closed under children, so they are
        globally correct.
        """
        cache = self._rank_cache.setdefault(rank, {})
        if root in cache:
            return cache[root]
        rank_key = rank.rank_key

        best: dict[tuple[Nonterminal, int, int], object] = {}
        dependents: dict[tuple, list[tuple]] = defaultdict(list)
        nodes: dict[tuple[Nonterminal, int, int], list[str]] = {}
        stack = [root]
        while stack:
            node = stack.pop()
            if node in nodes:
                continue
            head, a, b = node
            nodes[node], splits = self._children(head, a, b)
            for left, right, r in splits:
                left_node = (left, a, r)
                right_node = (right, r, b)
                dependents[left_node].append((node, left_node, right_node))
                dependents[right_node].append((node, left_node, right_node))
                stack.extend((left_node, right_node))

        heap: list = []
        for node, labels in nodes.items():
            if labels:
                cost = None
                for label in labels:
                    value = rank.identity(label)
                    if cost is None or rank_key(value) < rank_key(cost):
                        cost = value
                best[node] = cost
                heapq.heappush(heap, (rank_key(cost), _node_key(node)))

        keyed = {_node_key(node): node for node in nodes}
        while heap:
            key, node_key = heapq.heappop(heap)
            node = keyed[node_key]
            settled = best.get(node)
            if settled is None or key > rank_key(settled):
                continue
            for parent, left_node, right_node in dependents[node]:
                left_cost = best.get(left_node)
                right_cost = best.get(right_node)
                if left_cost is None or right_cost is None:
                    continue
                candidate = rank.multiply(left_cost, right_cost)
                current = best.get(parent)
                if current is None or rank_key(candidate) < rank_key(current):
                    best[parent] = candidate
                    heapq.heappush(
                        heap, (rank_key(candidate), _node_key(parent))
                    )

        cache.update(best)
        cache.setdefault(root, best.get(root))
        return best.get(root)


def _node_key(node: tuple[Nonterminal, int, int]) -> tuple[str, int, int]:
    head, i, j = node
    return (head.name, i, j)

