"""Semiring-generalized closure: one engine, several annotations.

The paper computes its relational (Algorithm 1) and single-path
(Section 5: cells annotated with a path length) answers with two
bespoke fixpoint loops.  Both — and the weighted variants — are the
*same* least fixpoint

    M_A  ←  M_A ⊕ (M_B ⊗ M_C)        for every pair rule A → B C

over different annotation **semirings** — the shape the GraphBLAS line
of CFPQ work (Azimov et al.'s later Kronecker/matrix engines, GraphBLAS
CFPQ) makes explicit.  (The all-path answer of Section 7 needs no
annotation at all: its forest is a view of the boolean fixpoint,
:mod:`repro.core.path_index`.)  This module supplies:

* :class:`Semiring` — the annotation algebra: ``identity`` (the seed a
  terminal edge contributes), ``empty_path`` (the seed of a nullable
  diagonal cell), ``multiply`` (⊗ — combine a left and a right
  sub-derivation) and ``add`` (⊕ — fold competing candidates for one
  cell).  A product landing on an occupied cell is folded by ⊕ too;
  the cell re-enters the frontier iff the fold moved it.  A semiring
  that orders paths adds ``rank_key`` (length and Viterbi,
  :data:`RANKING_SEMIRINGS`): the k-best search of
  :mod:`repro.core.path_index` ranks by the semiring itself.
* :class:`BooleanSemiring` — relational semantics (presence only).
* :class:`LengthSemiring` — single-path semantics.  ⊕ = min is the
  canonical, confluent form of the paper's never-update rule: a
  strictly *shorter* candidate replaces the recorded length and
  re-enters the frontier.  Every strategy (naive / delta / blocked)
  then converges to the identical least fixpoint — the minimal witness
  length per cell — instead of an iteration-order-dependent one, which
  is what makes the cross-strategy differential tests byte-for-byte
  exact.  Recorded lengths remain exactly what Theorem 5 needs: each
  admits a concrete path recoverable by the midpoint search of
  :func:`repro.core.single_path.extract_path`.
* :class:`CountingSemiring` / :class:`ViterbiSemiring` — weighted
  relational semantics: saturating derivation counts and max-product
  probabilities.
* :class:`AnnotatedMatrix` / :class:`AnnotatedBackend` — the adapter
  implementing the closure kernels (``multiply`` / ``union_update`` /
  tiling) over annotated cells, so
  :func:`repro.core.closure.run_closure` — including the ``delta`` and
  ``blocked`` strategies — runs unchanged on every semiring whose ⊕ is
  idempotent.  Every semiring here annotates a cell with one machine
  scalar and declares it (``array_ops``); one rule,
  :func:`annotated_layout`, puts each closure on one layout.  The array
  layout of :mod:`repro.core.scalar_matrix` runs when NumPy is already
  loaded, a closure already ran in this process, the graph is large or
  ⊕ is not idempotent (counting), and NumPy imports; otherwise the
  pure-Python row map :class:`AnnotatedMatrix` runs and NumPy stays
  unloaded.  The row map is also the layout of semirings without
  ``array_ops`` and of counting caps too large for int64, and the
  differential oracle of the array layout.
* :func:`kleene_closure` — the one loop for a semiring whose ⊕ is *not*
  idempotent (:attr:`Semiring.idempotent_add`; counting's saturating
  +), written against the same ``multiply`` / ``union_update`` kernels
  of either layout.

Termination: ⊕ must move a cell monotonically w.r.t. a well-founded
order (boolean: never; length: non-negative integers decrease; Viterbi:
probabilities ascend through a finite set), so every strategy's
worklist drains; the Kleene loop climbs a finite lattice (counts
saturate at the cap).  A pump cycle still costs it O(cap) rounds — each
as cheap as the handful of cells still moving.
"""

from __future__ import annotations

import abc
import sys
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from ..matrices.base import BooleanMatrix, MatrixBackend, Pair, row_map_csr


class Semiring(abc.ABC):
    """The annotation algebra threaded through the closure kernels.

    Annotation values must be immutable (they are shared between
    matrices, deltas and tiles).
    """

    #: Registry-style display name (``boolean`` / ``length`` / ...).
    name: str = "abstract"

    #: False when ``x ⊕ x ≠ x`` (counting: ⊕ is a saturating +).  The
    #: strategies of :func:`repro.core.closure.run_closure` merge a
    #: product into a cell that may already hold it, which only an
    #: idempotent ⊕ forgives, so :func:`solve_annotated` closes such a
    #: semiring with :func:`kleene_closure` instead, which counts every
    #: derivation once.  ⊕ and ⊗ must then be monotone over a finite
    #: value set (saturation).
    idempotent_add: bool = True

    #: ``(dtype, ⊗ ufunc, ⊕ ufunc)`` by NumPy name when annotations are
    #: machine scalars and ``multiply``/``add`` are exactly those
    #: ufuncs; a saturating semiring appends its cap as a fourth element
    #: and every ⊗/⊕ result is clipped to it.  Declaring it lets
    #: :func:`annotated_layout` put the cells in arrays; a subclass that
    #: changes the algebra must reset it to None.
    array_ops: "tuple | None" = None

    @abc.abstractmethod
    def identity(self, label: str | None = None):
        """The ⊗-unit seed a single terminal edge contributes (length 1,
        count 1, the label's weight, ...)."""

    def empty_path(self):
        """The annotation of the *empty* path ``iπi`` — the seed of the
        diagonal cell ``(i, i)`` of a nullable non-terminal (``A ⇒* ε``):
        length 0, count 1, plain presence for the boolean semiring.
        Default: the edge identity (correct for presence-only
        semirings)."""
        return self.identity()

    @abc.abstractmethod
    def multiply(self, left, right):
        """⊗: combine a left and a right sub-derivation's annotations."""

    @abc.abstractmethod
    def add(self, left, right):
        """⊕: fold two candidate annotations for the same cell.  Must be
        associative and commutative so the fold order cannot leak into
        the result; whether it is also idempotent is declared by
        :attr:`idempotent_add`."""


class BooleanSemiring(Semiring):
    """Relational semantics: a cell is merely present (value ``True``)."""

    name = "boolean"

    def identity(self, label: str | None = None) -> bool:
        return True

    def multiply(self, left, right) -> bool:
        return True

    def add(self, left, right) -> bool:
        return True


class LengthSemiring(Semiring):
    """Single-path semantics: the annotation is a witness-path length.

    ⊗ adds lengths (concatenating the sub-paths), ⊕ keeps the minimum:
    a strictly shorter candidate replaces the recorded length and is
    re-propagated, so the fixpoint is the canonical minimal witness
    length — identical for every closure strategy and backend.  (The
    paper's plain first-write rule also terminates but records whichever
    length the iteration order happened to find first; the min
    refinement is the confluent closure of that rule and still satisfies
    Theorem 5: every recorded length admits a concrete path, recovered
    by the same midpoint search.)
    """

    name = "length"
    array_ops = ("int64", "add", "minimum")

    def identity(self, label: str | None = None) -> int:
        return 1

    def multiply(self, left: int, right: int) -> int:
        return left + right

    def add(self, left: int, right: int) -> int:
        return left if left <= right else right

    def empty_path(self) -> int:
        return 0

    def rank_key(self, value: int) -> int:
        """k-best order (smaller first): shorter paths rank first."""
        return value


#: Default saturation cap for :class:`CountingSemiring`.  Kept small on
#: purpose: saturating a pump cycle costs O(cap) Kleene rounds (see the
#: class docstring), so a huge default turns cyclic graphs into
#: effective hangs.
DEFAULT_COUNTING_CAP = 1 << 10

#: Largest cap the int64 array layout takes.  A product cell sums, over
#: at most 2³¹ midpoints (the flat ``i·n + j`` cell keys are int64 too),
#: products of two counts ≤ cap before it is clipped: 2³¹ · (2¹⁵)² = 2⁶¹
#: cannot wrap.  Larger caps count on Python ints in the row layout.
_MAX_ARRAY_COUNTING_CAP = 1 << 15


class CountingSemiring(Semiring):
    """Derivation counting over (ℕ≤cap, +, ×): the annotation of a cell
    is the number of distinct derivation trees of its fact, saturating
    at ``cap`` — a plain scalar semiring like length and Viterbi, except
    that its ⊕ is not idempotent (:attr:`Semiring.idempotent_add`), so
    :func:`solve_annotated` closes it with the Kleene loop.

    Saturating + and × are monotone and the value set is finite, so
    Kleene iteration from the edge matrices climbs to the least fixpoint
    of ``X_A = E_A ⊕ Σ_{A→BC} X_B ⊗ X_C``; saturation is what keeps
    cyclic forests (infinitely many derivations) terminating.  Counts
    below the cap are exact; a cell at the cap reads as "≥ cap" — its
    true count is unbounded or astronomically large.

    The default cap is deliberately small: a pump cycle routed through a
    count-1 cell grows a count by a *constant* per round, so saturating
    a cyclic forest costs O(cap) rounds in the worst case.  Pass a
    larger ``cap`` when exact counts matter more than cyclic-graph wall
    time.
    """

    idempotent_add = False

    def __init__(self, cap: int = DEFAULT_COUNTING_CAP,
                 name: str | None = None):
        if cap < 1:
            raise ValueError("counting cap must be >= 1")
        self.cap = cap
        self.name = name if name is not None else (
            "counting" if cap == DEFAULT_COUNTING_CAP
            else f"counting[{cap}]"
        )
        if cap <= _MAX_ARRAY_COUNTING_CAP:
            self.array_ops = ("int64", "multiply", "add", cap)

    # -- saturating scalar arithmetic (shared with the path-count DP) --
    def saturating_add(self, left: int, right: int) -> int:
        total = left + right
        return total if total < self.cap else self.cap

    def saturating_multiply(self, left: int, right: int) -> int:
        product = left * right
        return product if product < self.cap else self.cap

    def count(self, value: int) -> int:
        """The derivation count of a cell value — the value itself."""
        return value

    # -- semiring operations ------------------------------------------
    def identity(self, label: str | None = None) -> int:
        return 1

    multiply = saturating_multiply
    add = saturating_add


class ViterbiSemiring(Semiring):
    """Max-product probabilities over weighted grammars.

    Terminal edges carry per-label weights in ``(0, 1]`` (the
    ``weights`` mapping, ``default_weight`` for unlisted labels); ⊗
    multiplies sub-derivation probabilities and ⊕ keeps the maximum,
    reusing the length semiring's refinement re-entry: a strictly more
    probable candidate replaces the recorded value and re-enters the
    frontier, so the fixpoint is the best derivation probability per
    cell — identical across strategies and backends
    (each derivation's value is fixed by its own tree shape, and max
    picks from the same candidate set everywhere).

    Termination mirrors min-plus shortest paths: weights ≤ 1 mean
    pumping a cycle can never *strictly* improve a derivation, so the
    maximum is attained by a cycle-free derivation and refinements
    strictly ascend through a finite value set.
    """

    name = "viterbi"
    array_ops = ("float64", "multiply", "maximum")

    def __init__(self, weights: "Mapping[str, float] | None" = None,
                 default_weight: float = 0.5,
                 name: str | None = None):
        if name is not None:
            self.name = name
        self.default_weight = float(default_weight)
        self.weights = dict(weights or {})
        for label, weight in [*self.weights.items(),
                              (None, self.default_weight)]:
            if not 0.0 < float(weight) <= 1.0:
                raise ValueError(
                    f"viterbi weight for {label!r} must be in (0, 1], "
                    f"got {weight!r}"
                )

    def edge_weight(self, label: str) -> float:
        return float(self.weights.get(label, self.default_weight))

    def identity(self, label: str | None = None) -> float:
        if label is None:
            return 1.0
        return self.edge_weight(label)

    def empty_path(self) -> float:
        return 1.0

    def multiply(self, left: float, right: float) -> float:
        return left * right

    def add(self, left: float, right: float) -> float:
        return left if left >= right else right

    def rank_key(self, value: float) -> float:
        """k-best order (smaller first): more probable paths rank
        first."""
        return -value


#: Shared singleton instances (the semirings are stateless).
BOOLEAN_SEMIRING = BooleanSemiring()
LENGTH_SEMIRING = LengthSemiring()
COUNTING_SEMIRING = CountingSemiring()
VITERBI_SEMIRING = ViterbiSemiring()

#: Name → singleton registry, used by the spill codec to rebuild
#: annotated tiles from their payloads (which carry the name only).
SEMIRINGS: dict[str, Semiring] = {
    semiring.name: semiring
    for semiring in (BOOLEAN_SEMIRING, LENGTH_SEMIRING, COUNTING_SEMIRING,
                     VITERBI_SEMIRING)
}


#: The registered semirings that order paths (they define ``rank_key``,
#: which :meth:`~repro.core.path_index.AllPathIndex.iter_k_best` sorts
#: by): the ``--semiring`` choices of ``paths --top-k`` and ``serve``.
RANKING_SEMIRINGS = ("length", "viterbi")


def register_semiring(semiring: Semiring) -> Semiring:
    """Register *semiring* under its name (required for third-party
    semirings whose annotated tiles spill to disk, since a reload
    resolves the semiring by name)."""
    SEMIRINGS[semiring.name] = semiring
    return semiring


def get_semiring(name: str) -> Semiring:
    """Resolve a registered semiring by name."""
    try:
        return SEMIRINGS[name]
    except KeyError:
        raise KeyError(
            f"unknown semiring {name!r}; registered: {sorted(SEMIRINGS)} "
            "(register custom semirings with register_semiring so "
            "their spilled tiles reload)"
        ) from None


class AnnotatedMatrix(BooleanMatrix):
    """A boolean matrix whose True cells carry semiring annotations,
    kept as one row map ``{i: {j: annotation}}`` (no empty rows, no
    row shared with another matrix).

    Implements the full kernel API of
    :class:`repro.matrices.base.BooleanMatrix`, so the closure engine
    cannot tell it apart from a plain boolean backend; ``multiply``
    joins each left row against the right rows with the semiring ⊗ and
    ⊕-folds per target, and ``union_update`` folds each incoming row
    into the held one with ⊕.
    """

    __slots__ = ("semiring", "_shape", "_rows")

    backend_name = "annotated"

    def __init__(self, semiring: Semiring, shape: tuple[int, int],
                 cells: "Mapping[Pair, object] | Iterable[tuple[int, int, object]]" = ()):
        if isinstance(cells, Mapping):
            cells = ((i, j, value) for (i, j), value in cells.items())
        self.semiring = semiring
        self._shape = shape
        self._rows: dict[int, dict[int, object]] = {}
        for i, j, value in cells:
            if not (0 <= i < shape[0] and 0 <= j < shape[1]):
                raise ValueError(f"cell {(i, j)} outside shape {shape}")
            self._rows.setdefault(i, {})[j] = value

    def _like(self, rows: dict, shape=None) -> "AnnotatedMatrix":
        """A matrix adopting *rows* (no row of which may be shared)."""
        matrix = AnnotatedMatrix(self.semiring,
                                 self._shape if shape is None else shape)
        matrix._rows = rows
        return matrix

    # -- shape / element access -------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return self._shape

    def __getitem__(self, index: Pair) -> bool:
        return index[1] in self._rows.get(index[0], ())

    def value_at(self, i: int, j: int):
        """The annotation at (i, j), or None when the cell is False."""
        return self._rows.get(i, {}).get(j)

    def columns(self) -> tuple[list[int], list[int], list]:
        """All True cells as parallel ``(i, j, annotation)`` lists, in
        ``(i, j)`` order, as the array layout's."""
        rows: list[int] = []
        cols: list[int] = []
        values: list = []
        for i in sorted(self._rows):
            row = self._rows[i]
            targets = sorted(row)
            rows += [i] * len(targets)
            cols += targets
            values += map(row.__getitem__, targets)
        return rows, cols, values

    def nonzero_pairs(self) -> Iterator[Pair]:
        rows, cols, _values = self.columns()
        return zip(rows, cols)

    def nonzero_cells(self) -> Iterator[tuple[int, int, object]]:
        """Iterate ``(i, j, annotation)`` over all True cells."""
        return zip(*self.columns())

    def row_major(self) -> tuple:
        return row_map_csr(self._rows, self._shape[0])

    def nnz(self) -> int:
        return sum(map(len, self._rows.values()))

    def copy(self) -> "AnnotatedMatrix":
        return self._like({i: dict(row) for i, row in self._rows.items()})

    # -- algebra ----------------------------------------------------------
    def multiply(self, other: BooleanMatrix) -> "AnnotatedMatrix":
        self._require_chainable(other)
        times, plus = self.semiring.multiply, self.semiring.add
        right_rows = _rows_of(other, self.semiring)
        out: dict[int, dict[int, object]] = {}
        for i, row in self._rows.items():
            target: dict[int, object] = {}
            for k, left_value in row.items():
                right_row = right_rows.get(k)
                if right_row is None:
                    continue
                for j, right_value in right_row.items():
                    candidate = times(left_value, right_value)
                    if j in target:
                        target[j] = plus(target[j], candidate)
                    else:
                        target[j] = candidate
            if target:
                out[i] = target
        return self._like(out, (self._shape[0], other.shape[1]))

    def union(self, other: BooleanMatrix) -> "AnnotatedMatrix":
        merged = self.copy()
        merged.union_update(other)
        return merged

    def transpose(self) -> "AnnotatedMatrix":
        return AnnotatedMatrix(self.semiring, self._shape[::-1], (
            (j, i, value) for i, j, value in self.nonzero_cells()))

    # -- mutable kernels --------------------------------------------------
    def union_update(self, other: BooleanMatrix) -> "AnnotatedMatrix":
        """In-place ⊕-merge, row by row; the returned delta holds every
        new cell and every cell ⊕ moved (``⊕(held, incoming) !=
        held``), with the merged value, so refinements re-enter the
        semi-naive frontier."""
        self._require_same_shape(other)
        add = self.semiring.add
        delta: dict[int, dict[int, object]] = {}
        for i, incoming_row in _rows_of(other, self.semiring).items():
            held = self._rows.get(i)
            if held is None:
                self._rows[i] = dict(incoming_row)
                delta[i] = dict(incoming_row)
                continue
            moved: dict[int, object] = {}
            for j, incoming in incoming_row.items():
                existing = held.get(j)
                if existing is None:
                    held[j] = moved[j] = incoming
                else:
                    merged = add(existing, incoming)
                    if merged != existing:
                        held[j] = moved[j] = merged
            if moved:
                delta[i] = moved
        return self._like(delta)

    # -- tiling and payloads ----------------------------------------------
    def payload(self) -> tuple:
        """The tile as a plain tuple: the semiring name, the shape and
        the ``((i, j), annotation)`` cells (the array layout has five)."""
        return ("annotated", self.semiring.name, self._shape,
                tuple(((i, j), value) for i, j, value in self.nonzero_cells()))

    def split_tiles(self, tile_size: int,
                    ) -> dict[tuple[int, int], "AnnotatedMatrix"]:
        """Partition into ceil(n / tile_size)² padded tiles that keep
        their annotations."""
        grid = (self._shape[0] + tile_size - 1) // tile_size
        buckets: dict[tuple[int, int], list] = {
            (bi, bj): [] for bi in range(grid) for bj in range(grid)}
        for i, j, value in self.nonzero_cells():
            buckets[(i // tile_size, j // tile_size)].append(
                (i % tile_size, j % tile_size, value))
        shape = (tile_size, tile_size)
        return {index: AnnotatedMatrix(self.semiring, shape, cells)
                for index, cells in buckets.items()}

    @classmethod
    def assemble(cls, semiring: Semiring, items, size: int, tile_size: int,
                 ) -> "AnnotatedMatrix":
        """Inverse of :meth:`split_tiles` over a one-shot iterable of
        ``((bi, bj), tile)`` (drops the padding)."""
        cells: list = []
        for (bi, bj), tile in items:
            base_i, base_j = bi * tile_size, bj * tile_size
            cells.extend(
                (base_i + ti, base_j + tj, value)
                for ti, tj, value in _annotated_cells(tile, semiring)
                if base_i + ti < size and base_j + tj < size)
        return cls(semiring, (size, size), cells)


def _rows_of(matrix: BooleanMatrix, semiring: Semiring) -> dict:
    """The ``{i: {j: annotation}}`` row map of any operand (read only);
    another layout's cells are lifted, a plain boolean cell (from a
    relational backend) taking the semiring identity."""
    if isinstance(matrix, AnnotatedMatrix):
        return matrix._rows
    return AnnotatedMatrix(semiring, matrix.shape,
                           _annotated_cells(matrix, semiring))._rows


def _annotated_cells(matrix: BooleanMatrix, semiring: Semiring):
    """``(i, j, annotation)`` over any matrix: its own annotations when
    it has them, the semiring identity per True cell otherwise."""
    if hasattr(matrix, "nonzero_cells"):
        return matrix.nonzero_cells()
    unit = semiring.identity()
    return ((i, j, unit) for i, j in matrix.nonzero_pairs())


def __getattr__(name: str):
    """``ScalarAnnotatedMatrix`` imports NumPy, so it loads on first use:
    None when NumPy is missing (every semiring then takes the row
    layout)."""
    if name != "ScalarAnnotatedMatrix":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    try:
        from .scalar_matrix import ScalarAnnotatedMatrix as layout
    except ImportError:
        layout = None
    globals()[name] = layout
    return layout


def _array_layout():
    """The array layout class, or None (see :func:`__getattr__`)."""
    return getattr(sys.modules[__name__], "ScalarAnnotatedMatrix")


#: Edges above which a first closure is worth NumPy's import: first-call
#: closures of funding · Q1 copies, rows against import + arrays, length
#: ×4 (8 688 edges) 0.16 against 0.22 s, ×6 (13 032) 0.27 against 0.25 s;
#: Viterbi ×4 0.17 against 0.21 s, ×5 (10 860) 0.31 against 0.28 s.
ARRAY_LAYOUT_EDGES = 10_000

#: Set by a process's first :func:`solve_annotated`: later ones take arrays.
_closed_before = False


def annotated_layout(semiring: Semiring, edge_count: int = 0) -> type:
    """The one layout rule: the matrix class of *semiring*'s cells in a
    closure over *edge_count* graph edges (0 outside a closure).  A
    semiring with ``array_ops`` takes the NumPy arrays of
    :mod:`repro.core.scalar_matrix` when NumPy is already loaded, a
    closure already ran in this process, the graph has more than
    :data:`ARRAY_LAYOUT_EDGES` edges or its ⊕ is not idempotent — and
    NumPy imports.  Everything else takes the row map
    :class:`AnnotatedMatrix`.  A non-idempotent ⊕ (counting) runs the
    Kleene loop, whose round count the edge count does not bound: on a
    160-node Dyck cycle the row map took 2.1 s against 0.8 s."""
    if semiring.array_ops and ("numpy" in sys.modules or _closed_before
                               or not semiring.idempotent_add
                               or edge_count > ARRAY_LAYOUT_EDGES):
        return _array_layout() or AnnotatedMatrix
    return AnnotatedMatrix


class AnnotatedBackend(MatrixBackend):
    """Factory adapting one :class:`Semiring` to the kernel API, which
    ``run_closure`` treats exactly like the boolean backends (the tiling
    hooks keep annotations).  Its matrices take the layout
    :func:`annotated_layout` picks for *edge_count* when it is built, so
    every matrix of one closure has one layout (operands of another are
    lifted)."""

    def __init__(self, semiring: Semiring, edge_count: int = 0):
        self.semiring = semiring
        self.name = f"annotated[{semiring.name}]"
        self.matrix_type = annotated_layout(semiring, edge_count)

    def zeros(self, rows: int, cols: int | None = None) -> BooleanMatrix:
        return self.matrix_type(
            self.semiring, (rows, cols if cols is not None else rows)
        )

    def from_pairs(self, size: int, pairs: Iterable[Pair],
                   cols: int | None = None) -> BooleanMatrix:
        unit = self.semiring.identity()
        return self.matrix_type(
            self.semiring, (size, cols if cols is not None else size),
            {(i, j): unit for i, j in pairs},
        )

    def from_cells(self, shape: tuple[int, int],
                   cells: "Mapping[Pair, object] | Iterable[tuple[int, int, object]]",
                   ) -> BooleanMatrix:
        """Build a matrix from explicit cells: an ``(i, j) ->
        annotation`` mapping or ``(i, j, annotation)`` triples."""
        return self.matrix_type(self.semiring, shape, cells)

    def clone(self, matrix: BooleanMatrix) -> BooleanMatrix:
        """A copy in this backend's layout (other layouts and plain
        boolean matrices are lifted)."""
        if isinstance(matrix, self.matrix_type):
            return matrix.copy()
        return self.from_cells(matrix.shape,
                               _annotated_cells(matrix, self.semiring))

    # -- tiling hooks (the blocked strategy) ------------------------------
    def split_into_tiles(self, matrix: BooleanMatrix, tile_size: int,
                         ) -> dict[tuple[int, int], BooleanMatrix]:
        if tile_size < 1:
            raise ValueError("tile_size must be positive")
        return matrix.split_tiles(tile_size)

    def assemble_from_tile_iter(self, items, size: int, tile_size: int,
                                ) -> BooleanMatrix:
        return self.matrix_type.assemble(self.semiring, items, size,
                                         tile_size)

    # -- tile payloads (spill and snapshot codec) -------------------------
    def tile_payload(self, matrix: BooleanMatrix) -> tuple:
        """Annotated tiles travel as their cells (a cell tuple, or the
        two arrays) plus the semiring *name* — a reload resolves the
        semiring from the registry instead of unpickling backend
        objects."""
        return matrix.payload()

    def tile_from_payload(self, payload: tuple) -> BooleanMatrix:
        return annotated_tile_from_payload(payload)

    @staticmethod
    def matrix_nbytes(matrix: BooleanMatrix) -> int:
        """The array layout's measured bytes; row-map cells are entries
        carrying boxed values, budgeted by a generous per-cell guess."""
        return getattr(matrix, "nbytes", 112 + 200 * matrix.nnz())


def annotated_tile_from_payload(payload: tuple) -> BooleanMatrix:
    """Rebuild an annotated tile from its :meth:`AnnotatedBackend.tile_payload`
    (five fields: array layout; four: row layout)."""
    semiring = get_semiring(payload[1])
    if len(payload) == 5:
        return _array_layout().from_arrays(semiring, *payload[2:])
    return AnnotatedMatrix(semiring, payload[2], dict(payload[3]))


@dataclass
class AnnotatedClosureResult:
    """Outcome of :func:`solve_annotated` — closed annotated matrices
    plus the engine stats of the underlying :func:`run_closure` call."""

    matrices: dict
    iterations: int
    multiplications: int
    delta_nnz_per_round: tuple[int, ...] = ()

    def cells(self) -> dict[tuple[int, int], dict]:
        """The Section-5 cell view: ``(i, j) -> {symbol: annotation}``."""
        return merged_cells(self.matrices)


def merged_cells(matrices: Mapping) -> dict[tuple[int, int], dict]:
    """Merge ``symbol -> annotated matrix`` into the paper's cell view
    ``(i, j) -> {symbol: annotation}``."""
    merged: dict[tuple[int, int], dict] = {}
    for symbol, matrix in matrices.items():
        rows, cols, values = matrix.columns()
        for pair, value in zip(zip(rows, cols), values):
            entries = merged.get(pair)
            if entries is None:
                merged[pair] = {symbol: value}
            else:
                entries[symbol] = value
    return merged


def initial_annotated_matrices(graph, grammar, semiring: Semiring,
                               backend: "AnnotatedBackend | None" = None,
                               ) -> dict:
    """Annotated matrix initialization (Algorithm 1 lines 6-7): seed
    ``M_A[i, j]`` with ⊕-folded edge identities for every edge
    ``(i, x, j)`` with ``A → x``, plus the ``empty_path`` diagonal for
    every non-terminal the original grammar could derive ε from
    (:attr:`repro.grammar.cfg.CFG.nullable_diagonal`) — the empty-path
    ``(i, i)`` facts the paper's relation semantics requires.  The
    matrices take *backend*'s layout (the closure's), by default the
    one :func:`annotated_layout` picks for *graph*."""
    n = graph.node_count
    matrices = {
        nt: {} for nt in grammar.nonterminals
    }
    for nt in grammar.nullable_diagonal:
        cells = matrices.get(nt)
        if cells is None:
            continue
        empty = semiring.empty_path()
        for i in range(n):
            cells[(i, i)] = empty
    seeded: dict[str, tuple] = {}  # label -> (seed, cells of its heads)
    for i, label, j in graph.edges_by_id():
        target = seeded.get(label)
        if target is None:
            target = seeded[label] = (semiring.identity(label), [
                matrices[head]
                for head in grammar.heads_for_label(label)
            ])
        seed, head_cells = target
        for cells in head_cells:
            existing = cells.get((i, j))
            cells[(i, j)] = (seed if existing is None
                             else semiring.add(existing, seed))
    if backend is None:
        backend = AnnotatedBackend(semiring, graph.edge_count)
    return {nt: backend.from_cells((n, n), cells)
            for nt, cells in matrices.items()}


def kleene_closure(matrices: dict, pair_rules: list, backend):
    """Kleene iteration ``X₀ = E, Xₜ₊₁ = E ⊕ Σ_{A→BC} Xₜ[B] ⊗ Xₜ[C]`` —
    the paper's ``T ← T ∪ T×T`` — for a semiring whose ⊕ is not
    idempotent, evaluated by increments.

    The worklist strategies ⊕-merge a product into a cell that may
    already hold an earlier version of it, which double-counts under a
    counting ⊕.  Here a round holds the closed-so-far matrices ``X``
    and, beside them, the *increments* ``Δ`` the previous round derived
    (round 1: ``X`` empty, ``Δ = E``).  ⊗ distributes over ⊕, so the
    next iterate exceeds this one by exactly

        Δ'[A] = Σ_{A→BC}  Δ[B]⊗X[C]  ⊕  X[B]⊗Δ[C]  ⊕  Δ[B]⊗Δ[C]

    — every product read off the matrices *before* ``Δ`` is merged into
    them (Jacobi order), so each derivation tree is counted once and a
    round costs what its increments cost, not what the matrices do.
    Saturation needs no subtraction: a cell stuck at the cap keeps
    receiving increments, but everything such a cell feeds is at the cap
    one round later and stays there, so stale increments are harmless
    and the loop stops at the first round whose merge moves no cell.
    ⊕ and ⊗ are monotone over a finite value set, so that round comes
    and the matrices are then the least fixpoint.

    A strategy-shaped function (:func:`repro.core.closure.run_closure`
    traces it and publishes its metrics), deliberately not in the
    strategy table: the algebra picks it, not the caller.
    """
    from ..obs.trace import get_tracer
    from .closure import ClosureResult

    pending = {symbol: matrix for symbol, matrix in matrices.items()
               if matrix.nnz()}
    for symbol, matrix in matrices.items():
        matrices[symbol] = backend.zeros(*matrix.shape)
    tracer = get_tracer()
    iterations = multiplications = 0
    growth: list[int] = []
    while pending:
        iterations += 1
        with tracer.span("closure.round", strategy="kleene",
                         round=iterations) as round_span:
            following: dict = {}
            for head, left, right in pair_rules:
                new_left, new_right = pending.get(left), pending.get(right)
                for first, second in ((new_left, matrices[right]),
                                      (matrices[left], new_right),
                                      (new_left, new_right)):
                    if (first is None or second is None
                            or not first.nnz() or not second.nnz()):
                        continue
                    product = first.multiply(second)
                    multiplications += 1
                    if head in following:
                        following[head].union_update(product)
                    else:
                        following[head] = product
            round_new = sum(
                matrices[symbol].union_update(increment).nnz()
                for symbol, increment in pending.items())
            pending = following if round_new else {}
            round_span.set("new_entries", round_new)
        growth.append(round_new)
    return ClosureResult(matrices=matrices, iterations=iterations,
                         multiplications=multiplications,
                         delta_nnz_per_round=tuple(growth))


def solve_annotated(graph, grammar, semiring: Semiring,
                    strategy: str | None = None,
                    normalize: bool = True,
                    **tile_options) -> AnnotatedClosureResult:
    """Run the unified closure engine over *semiring*-annotated matrices.

    This is the single code path behind the single-path and weighted
    semantics: each strategy (``naive`` / ``delta`` / ``blocked``)
    closes the annotated matrices through
    exactly the same kernels the relational solver uses, configured as
    :func:`repro.core.closure.run_closure` reads *strategy* and
    *tile_options*.  *strategy* does not apply to a semiring whose ⊕ is
    not idempotent (counting): :func:`kleene_closure` closes it, and
    refuses any tile option.  The cell layout is picked once, by
    :func:`annotated_layout` for *graph*.
    """
    global _closed_before
    from ..grammar.cnf import ensure_cnf
    from .closure import closure_settings, run_closure

    working_grammar = ensure_cnf(grammar) if normalize else grammar
    working_grammar.require_cnf("the annotated CFPQ engine")
    if not semiring.idempotent_add:
        strategy = kleene_closure
    # Refuse the options before a closure counts as run for the layout.
    backend, strategy, tile_options = closure_settings(
        AnnotatedBackend(semiring, graph.edge_count), strategy, **tile_options)
    _closed_before = True
    matrices = initial_annotated_matrices(graph, working_grammar, semiring,
                                          backend)
    pair_rules = [(rule.head, *rule.body)
                  for rule in working_grammar.binary_rules]
    closure = run_closure(matrices, pair_rules, backend, strategy=strategy,
                          **tile_options)
    return AnnotatedClosureResult(
        matrices=closure.matrices,
        iterations=closure.iterations,
        multiplications=closure.multiplications,
        delta_nnz_per_round=closure.delta_nnz_per_round,
    )
