"""Matrices whose elements are *subsets of non-terminals* — the paper's
direct formalization (Section 2) — plus their boolean projection.

The paper defines, for a grammar ``G = (N, Σ, P)``:

* a product of subsets ``N1 · N2 = {A | ∃B ∈ N1, C ∈ N2 : (A→BC) ∈ P}``,
* matrix multiplication ``c[i,j] = ⋃_k a[i,k] · b[k,j]``,
* element-wise union, and the partial order ``a ⪰ b ⟺ ∀i,j a[i,j] ⊇ b[i,j]``.

:class:`SetMatrix` implements exactly that algebra.  It is the teaching
implementation used by :mod:`repro.core.naive_closure`, the §4.3 worked
example and the Theorem 1 equivalence tests; the production engines use
the boolean decomposition instead.

The module also hosts the **setmatrix** boolean backend
(:class:`RowSetMatrix` / :class:`SetMatrixBackend`): one fixed
non-terminal slice of a :class:`SetMatrix` stored as per-row adjacency
sets — the same layout SetMatrix uses internally, projected to booleans
so it can plug into the generic closure engine beside the other
backends.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from ..errors import DimensionMismatchError
from ..grammar.cfg import CFG
from ..grammar.symbols import Nonterminal
from .base import BooleanMatrix, MatrixBackend, register_backend, row_map_csr

#: Cell coordinates.
Pair = tuple[int, int]


class SetMatrix:
    """A square matrix over subsets of ``N``, tied to a grammar.

    Cells are stored sparsely: only non-empty subsets are kept.
    Instances are immutable; operations return new matrices.
    """

    __slots__ = ("_size", "_grammar", "_cells")

    def __init__(self, size: int, grammar: CFG,
                 cells: Mapping[Pair, Iterable[Nonterminal]] | None = None):
        if size < 0:
            raise ValueError("matrix size must be non-negative")
        self._size = size
        self._grammar = grammar
        cleaned: dict[Pair, frozenset[Nonterminal]] = {}
        for (i, j), subset in (cells or {}).items():
            if not (0 <= i < size and 0 <= j < size):
                raise ValueError(f"cell {(i, j)} outside {size}x{size} matrix")
            frozen = frozenset(subset)
            if frozen:
                cleaned[(i, j)] = frozen
        self._cells = cleaned

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """The matrix dimension (the paper's |V|)."""
        return self._size

    @property
    def grammar(self) -> CFG:
        """The grammar supplying the ``(·)`` operation."""
        return self._grammar

    def __getitem__(self, index: Pair) -> frozenset[Nonterminal]:
        return self._cells.get(index, frozenset())

    def cells(self) -> Iterator[tuple[Pair, frozenset[Nonterminal]]]:
        """Iterate non-empty cells as ((i, j), subset)."""
        return iter(self._cells.items())

    def nonterminal_count(self) -> int:
        """Total number of (cell, non-terminal) entries — the quantity
        bounded by |V|²·|N| in the paper's termination proof (Thm. 3)."""
        return sum(len(subset) for subset in self._cells.values())

    def pairs_with(self, nonterminal: Nonterminal) -> frozenset[Pair]:
        """All (i, j) with *nonterminal* ∈ a[i,j] — the relation ``R_A``."""
        return frozenset(
            pair for pair, subset in self._cells.items() if nonterminal in subset
        )

    # ------------------------------------------------------------------
    # The paper's algebra
    # ------------------------------------------------------------------
    def multiply(self, other: "SetMatrix") -> "SetMatrix":
        """``(a × b)[i,j] = ⋃_k a[i,k] · b[k,j]`` with the grammar's
        subset product."""
        self._check_compatible(other)
        grammar = self._grammar
        # Sparse product: group other's cells by row.
        other_rows: dict[int, list[tuple[int, frozenset[Nonterminal]]]] = {}
        for (k, j), subset in other._cells.items():
            other_rows.setdefault(k, []).append((j, subset))
        result: dict[Pair, set[Nonterminal]] = {}
        for (i, k), left_subset in self._cells.items():
            for j, right_subset in other_rows.get(k, ()):
                heads = grammar.subset_product(left_subset, right_subset)
                if heads:
                    result.setdefault((i, j), set()).update(heads)
        return SetMatrix(self._size, grammar, result)

    def union(self, other: "SetMatrix") -> "SetMatrix":
        """Element-wise set union."""
        self._check_compatible(other)
        result: dict[Pair, set[Nonterminal]] = {
            pair: set(subset) for pair, subset in self._cells.items()
        }
        for pair, subset in other._cells.items():
            result.setdefault(pair, set()).update(subset)
        return SetMatrix(self._size, self._grammar, result)

    def __matmul__(self, other: "SetMatrix") -> "SetMatrix":
        return self.multiply(other)

    def __or__(self, other: "SetMatrix") -> "SetMatrix":
        return self.union(other)

    def dominates(self, other: "SetMatrix") -> bool:
        """The paper's partial order: ``self ⪰ other`` iff every cell of
        self is a superset of the corresponding cell of other."""
        self._check_compatible(other)
        for pair, subset in other._cells.items():
            if not subset <= self._cells.get(pair, frozenset()):
                return False
        return True

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SetMatrix):
            return NotImplemented
        return self._size == other._size and self._cells == other._cells

    def __hash__(self) -> int:
        return hash((self._size, frozenset(self._cells.items())))

    def _check_compatible(self, other: "SetMatrix") -> None:
        if self._size != other._size:
            raise DimensionMismatchError(
                f"size mismatch: {self._size} vs {other._size}"
            )
        if self._grammar is not other._grammar and self._grammar != other._grammar:
            raise DimensionMismatchError("matrices belong to different grammars")

    # ------------------------------------------------------------------
    # Presentation
    # ------------------------------------------------------------------
    def render(self) -> str:
        """Human-readable rendering in the style of the paper's Figures
        6-8 (∅ for empty cells, `{S1, S}` for subsets)."""
        def cell_text(subset: frozenset[Nonterminal]) -> str:
            if not subset:
                return "."
            return "{" + ",".join(sorted(str(nt) for nt in subset)) + "}"

        rows = []
        for i in range(self._size):
            rows.append(" ".join(
                cell_text(self[(i, j)]).ljust(12) for j in range(self._size)
            ).rstrip())
        return "\n".join(rows)

    def __repr__(self) -> str:
        return (f"SetMatrix(size={self._size}, filled_cells={len(self._cells)}, "
                f"entries={self.nonterminal_count()})")


class RowSetMatrix(BooleanMatrix):
    """Boolean matrix stored as per-row column sets (``i -> {j}``).

    The boolean projection of one non-terminal slice of a
    :class:`SetMatrix`: the row-major adjacency-set layout makes the
    boolean product a union of row sets and gives O(1) in-place cell
    insertion, so the mutable kernel ``union_update`` is native.
    """

    __slots__ = ("_shape", "_rows", "_nnz")

    backend_name = "setmatrix"

    def __init__(self, shape: Pair, pairs: Iterable[Pair]):
        self._shape = shape
        rows: dict[int, set[int]] = {}
        count = 0
        for i, j in pairs:
            if not (0 <= i < shape[0] and 0 <= j < shape[1]):
                raise ValueError(f"pair {(i, j)} outside shape {shape}")
            row = rows.setdefault(i, set())
            if j not in row:
                row.add(j)
                count += 1
        self._rows = rows
        self._nnz = count

    @property
    def shape(self) -> Pair:
        return self._shape

    def __getitem__(self, index: Pair) -> bool:
        i, j = index
        return j in self._rows.get(i, ())

    def nonzero_pairs(self) -> Iterator[Pair]:
        return ((i, j) for i, columns in self._rows.items() for j in columns)

    def nnz(self) -> int:
        return self._nnz

    def row_major(self) -> tuple:
        """CSR built from the row sets, one sort per row."""
        return row_map_csr(self._rows, self._shape[0])

    def multiply(self, other: BooleanMatrix) -> "RowSetMatrix":
        self._require_chainable(other)
        other_rows = _boolean_rows_of(other)
        result = RowSetMatrix((self._shape[0], other.shape[1]), ())
        for i, ks in self._rows.items():
            merged: set[int] = set()
            for k in ks:
                columns = other_rows.get(k)
                if columns:
                    merged |= columns
            if merged:
                result._rows[i] = merged
                result._nnz += len(merged)
        return result

    def union(self, other: BooleanMatrix) -> "RowSetMatrix":
        result = SetMatrixBackend._copy(self)
        result.union_update(other)
        return result

    def transpose(self) -> "RowSetMatrix":
        result = RowSetMatrix((self._shape[1], self._shape[0]), ())
        columns, result._nnz = result._rows, self._nnz
        for i, row in self._rows.items():
            for j in row:
                columns.setdefault(j, set()).add(i)
        return result

    def union_update(self, other: BooleanMatrix) -> "RowSetMatrix":
        self._require_same_shape(other)
        delta = RowSetMatrix(self._shape, ())
        for i, columns in _boolean_rows_of(other).items():
            row = self._rows.setdefault(i, set())
            fresh = columns - row
            if fresh:
                row |= fresh
                self._nnz += len(fresh)
                delta._rows[i] = set(fresh)
                delta._nnz += len(fresh)
        return delta


def _boolean_rows_of(matrix: BooleanMatrix) -> dict[int, set[int]]:
    if isinstance(matrix, RowSetMatrix):
        return matrix._rows
    rows: dict[int, set[int]] = {}
    for i, j in matrix.nonzero_pairs():
        rows.setdefault(i, set()).add(j)
    return rows


class SetMatrixBackend(MatrixBackend):
    """Factory for :class:`RowSetMatrix`, registered as ``setmatrix``."""

    name = "setmatrix"

    def zeros(self, rows: int, cols: int | None = None) -> RowSetMatrix:
        return RowSetMatrix((rows, cols if cols is not None else rows), ())

    def from_pairs(self, size: int, pairs: Iterable[Pair],
                   cols: int | None = None) -> RowSetMatrix:
        return RowSetMatrix((size, cols if cols is not None else size), pairs)

    def clone(self, matrix: BooleanMatrix) -> RowSetMatrix:
        if isinstance(matrix, RowSetMatrix):
            return self._copy(matrix)
        return RowSetMatrix(matrix.shape, matrix.nonzero_pairs())

    def mask_rows(self, matrix: BooleanMatrix, keep) -> RowSetMatrix:
        n_rows, n_cols = matrix.shape
        wanted = set(keep)
        for row in wanted:
            if not 0 <= row < n_rows:
                raise IndexError(
                    f"row {row} out of range for shape {matrix.shape}"
                )
        pairs = [
            (i, j) for i, columns in _boolean_rows_of(matrix).items()
            if i in wanted for j in columns
        ]
        return RowSetMatrix((n_rows, n_cols), pairs)

    @staticmethod
    def _copy(matrix: "RowSetMatrix") -> "RowSetMatrix":
        clone = RowSetMatrix(matrix._shape, ())
        clone._rows = {i: set(columns) for i, columns in matrix._rows.items()}
        clone._nnz = matrix._nnz
        return clone


BACKEND = register_backend(SetMatrixBackend())


def initial_matrix(graph_size: int, grammar: CFG,
                   edges: Iterable[tuple[int, str, int]]) -> SetMatrix:
    """The paper's matrix initialization (Algorithm 1 lines 6-7):
    ``T[i,j] = {A | (i,x,j) ∈ E ∧ (A→x) ∈ P}``.

    Handles parallel edges with different labels by unioning their head
    sets, exactly as the paper notes below Algorithm 1.  Non-terminals
    the original grammar could derive ε from
    (:attr:`repro.grammar.cfg.CFG.nullable_diagonal`) additionally seed
    every diagonal cell — the empty path ``iπi`` is a witness.
    """

    cells: dict[Pair, set[Nonterminal]] = {}
    if grammar.nullable_diagonal:
        for i in range(graph_size):
            cells.setdefault((i, i), set()).update(grammar.nullable_diagonal)
    for i, label, j in edges:
        heads = grammar.heads_for_label(label)
        if heads:
            cells.setdefault((i, j), set()).update(heads)
    return SetMatrix(graph_size, grammar, cells)
