"""Transitive closures from Section 2 of the paper.

For a square set-valued matrix ``a`` the paper defines two closures:

* Valiant's ``a+ = a(1)+ ∪ a(2)+ ∪ ...`` with
  ``a(i)+ = ⋃_{j<i} a(j)+ × a(i-j)+``,
* the paper's ``a_cf = a(1) ∪ a(2) ∪ ...`` with
  ``a(i) = a(i-1) ∪ (a(i-1) × a(i-1))``,

and Theorem 1 proves ``a+ = a_cf``.  We implement both (over
:class:`~repro.matrices.setmatrix.SetMatrix`) so the equivalence is
checkable, plus boolean closures and the closure *strategies* the
paper's §7 future work points at (repeated squaring; semi-naive delta;
block multiply).  The fixpoint iteration itself is the generic driver
from :mod:`repro.core.closure`, shared with the CFPQ engine.
"""

from __future__ import annotations

from ..matrices.base import BooleanMatrix, get_backend
from ..matrices.setmatrix import SetMatrix
from .closure import fixpoint_history, run_closure

#: The one symbol of the grammar ``R → R R`` whose closure is ``A⁺``.
_REACH = "R"


def _square_step(current: SetMatrix) -> SetMatrix:
    return current.union(current.multiply(current))


def closure_cf(matrix: SetMatrix, max_iterations: int | None = None) -> SetMatrix:
    """The paper's closure ``a_cf``: iterate ``a ← a ∪ (a × a)`` to the
    fixpoint.  Termination is Theorem 3 (≤ |V|²·|N| strict growths)."""
    return fixpoint_history(matrix, _square_step, SetMatrix.__eq__,
                            max_iterations=max_iterations)[-1]


def closure_valiant(matrix: SetMatrix, max_power: int) -> SetMatrix:
    """Valiant's ``⋃_{i<=max_power} a(i)+`` computed literally from the
    recursive definition — exponential bookkeeping, only for the tiny
    matrices in the Theorem 1 equivalence tests.

    ``a(1)+ = a``;  ``a(i)+ = ⋃_{j=1..i-1} a(j)+ × a(i-j)+``.
    """
    if max_power < 1:
        raise ValueError("max_power must be >= 1")
    powers: list[SetMatrix] = [matrix]  # powers[i-1] = a(i)+
    for i in range(2, max_power + 1):
        accumulator = None
        for j in range(1, i):
            term = powers[j - 1].multiply(powers[i - j - 1])
            accumulator = term if accumulator is None else accumulator.union(term)
        assert accumulator is not None
        powers.append(accumulator)
    union = powers[0]
    for power in powers[1:]:
        union = union.union(power)
    return union


def closure_cf_history(matrix: SetMatrix,
                       max_iterations: int | None = None) -> list[SetMatrix]:
    """Like :func:`closure_cf` but returning the whole iteration history
    ``[T0, T1, ..., Tk]`` (used to reproduce the paper's §4.3 figures;
    the fixpoint is reached when the last two entries are equal)."""
    return fixpoint_history(matrix, _square_step, SetMatrix.__eq__,
                            max_iterations=max_iterations)


# ----------------------------------------------------------------------
# Boolean closures (single relation) and closure strategies
# ----------------------------------------------------------------------

def boolean_closure_naive(matrix: BooleanMatrix) -> BooleanMatrix:
    """Boolean transitive closure by the paper's iteration
    ``a ← a ∪ a×a`` (number of multiplications is O(log of the longest
    shortest path), since squaring doubles reachable path lengths)."""
    if not matrix.is_square:
        raise ValueError("transitive closure requires a square matrix")
    current = matrix
    while True:
        following = current.union(current.multiply(current))
        if following.same_pairs(current):
            return current
        current = following


def boolean_closure_incremental(matrix: BooleanMatrix) -> BooleanMatrix:
    """Boolean transitive closure multiplying by the *original* matrix
    (``a ← a ∪ a×a0``) — linear number of cheaper multiplications; the
    contrast case for the squaring ablation."""
    if not matrix.is_square:
        raise ValueError("transitive closure requires a square matrix")
    current = matrix
    while True:
        following = current.union(current.multiply(matrix))
        if following.same_pairs(current):
            return current
        current = following


def engine_closure(matrix: BooleanMatrix,
                   strategy: str | None = None) -> BooleanMatrix:
    """Transitive closure ``A⁺`` by the CFPQ closure engine: a closure
    is the one-nonterminal grammar ``R → R R`` whose sole matrix starts
    as *matrix*, so every closure strategy (naive/delta/blocked)
    applies unchanged.  *matrix* is not modified."""
    backend = get_backend(matrix.backend_name)
    matrices = {_REACH: backend.clone(matrix)}
    run_closure(matrices, [(_REACH, _REACH, _REACH)], backend,
                strategy=strategy)
    return matrices[_REACH]


def boolean_closure_delta(matrix: BooleanMatrix) -> BooleanMatrix:
    """Semi-naive boolean transitive closure: the engine's ``delta``
    strategy extends only through the frontier ``Δ`` of entries added
    last round (``Δ×T ∪ T×Δ``).  Same least fixpoint as
    :func:`boolean_closure_naive`, strictly less work per round once
    the frontier shrinks."""
    if not matrix.is_square:
        raise ValueError("transitive closure requires a square matrix")
    return engine_closure(matrix)


def boolean_closure_warshall(matrix: BooleanMatrix) -> BooleanMatrix:
    """Floyd–Warshall-style boolean closure over the pair set — the
    O(|V|³) textbook reference the matrix variants are tested against."""
    if not matrix.is_square:
        raise ValueError("transitive closure requires a square matrix")
    size = matrix.shape[0]
    reach = {pair for pair in matrix.nonzero_pairs()}
    successors: dict[int, set[int]] = {}
    for i, j in reach:
        successors.setdefault(i, set()).add(j)
    for k in range(size):
        from_k = successors.get(k, set())
        if not from_k:
            continue
        for i in range(size):
            to_i = successors.get(i)
            if to_i and k in to_i:
                before = len(to_i)
                to_i |= from_k
                if len(to_i) != before:
                    successors[i] = to_i
    pairs = {(i, j) for i, js in successors.items() for j in js}
    return get_backend(matrix.backend_name).from_pairs(size, pairs)
