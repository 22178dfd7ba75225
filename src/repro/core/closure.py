"""The closure engine: one loop, three iteration strategies.

Algorithm 1's hot loop is ``M_A ← M_A ∪ (M_B × M_C)`` over all pair
rules until nothing changes.  This module owns that loop and lets the
iteration *strategy* vary independently of the matrix *backend*:

* ``naive``   — re-multiply every pair rule over the full matrices each
  round; byte-for-byte the historical behavior, kept as the
  differential-testing oracle.
* ``delta``   — semi-naive evaluation: track per-non-terminal frontier
  matrices ``ΔM_A`` (the entries added last round), index the pair
  rules by body symbol so a change in ``M_B`` only re-fires rules
  mentioning ``B``, and multiply ``ΔM_B × M_C`` / ``M_B × ΔM_C``
  instead of full products.  The least fixpoint is identical (the
  closure is monotone — Theorem 3's argument); the work per round
  shrinks with the frontier.
* ``blocked`` — a **frontier-aware tile engine**: matrices are
  partitioned once into tiles held in a budgeted, spillable
  :class:`repro.core.tilestore.TileStore`, the frontier is tracked at
  *tile* granularity, and a round only computes the (rule, I, J, K)
  tasks whose K-side or I-side input tile changed last round.  Every
  product of a round is computed before any is merged, and merging
  happens in canonical key order, so the closure is byte-identical for
  every memory budget.  This is the paper's §7 out-of-core direction
  with the semi-naive trick pushed down to the tile grain.

All strategies run on any registered matrix backend through two
kernels, ``multiply`` and the in-place ``MatrixBackend.union_update``,
which returns the genuinely new entries.  The backend need not be
boolean: the semiring-annotated adapter (:mod:`repro.core.semiring`)
implements the same kernels over length-, count- and
probability-annotated cells, which is how the single-path and weighted
semantics run on this exact loop — a strategy improvement lands on
every query semantics at once (the all-path forest is a view of the
boolean fixpoint).

``run_closure`` is the single entry point the solvers route through;
the strategy table is fixed; it and the long-lived solvers read their
configuration through :func:`closure_settings` alone.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, Hashable, Iterable

from ..errors import EngineError, UnknownStrategyError
from ..matrices.base import (BooleanMatrix, MatrixBackend, default_backend,
                             get_backend)
from ..obs.metrics import DEFAULT_SIZE_BUCKETS, get_registry
from ..obs.trace import get_tracer, stopwatch

#: A pair rule ``A -> B C`` as (head, left-body, right-body).  Symbols
#: are any hashable keys into the matrices mapping (non-terminals in
#: practice).
PairRule = tuple[Hashable, Hashable, Hashable]


@dataclass
class ClosureResult:
    """Outcome of one closure run (the matrices are closed in place)."""

    matrices: dict
    iterations: int
    multiplications: int
    #: New entries merged per round — the semi-naive frontier sizes for
    #: ``delta``, total growth per round for the other strategies.
    delta_nnz_per_round: tuple[int, ...] = ()
    #: Strategy-specific instrumentation: every bundled strategy stores
    #: per-round wall clock under ``"round_seconds"``; ``blocked``
    #: additionally stores a :class:`BlockedStats` under ``"blocked"``.
    details: dict = field(default_factory=dict)


@dataclass(frozen=True)
class BlockedStats:
    """Instrumentation of a blocked closure run.

    ``tiles_skipped_by_frontier`` counts tile products whose operands
    were both nonzero but which the frontier-aware strategy proved
    redundant (neither operand tile changed last round); the
    all-tiles-every-round behavior would have multiplied exactly
    ``tile_products + tiles_skipped_by_frontier`` tiles.
    ``tile_size`` is the edge the run used (picked from the budget when
    the caller gave none).  ``scheduler_wall_time_s`` is the wall time
    spent computing the rounds' tile products (merging is excluded).

    The spill counters describe the run's out-of-core traffic through
    the :class:`repro.core.tilestore.TileStore`: ``tiles_spilled`` /
    ``spill_bytes`` count evicted-tile writes to the spill directory,
    ``tiles_reloaded`` counts cold tiles brought back (mmap or pickle),
    and ``peak_resident_bytes`` is the high-water mark of resident tile
    bytes — with a ``budget_bytes`` set, peak stays ≤ budget except for
    transiently pinned working sets.
    """

    tile_size: int
    grid: int
    tile_products: int
    iterations: int
    tiles_skipped_by_frontier: int = 0
    scheduler_wall_time_s: float = 0.0
    tiles_spilled: int = 0
    tiles_reloaded: int = 0
    spill_bytes: int = 0
    peak_resident_bytes: int = 0
    budget_bytes: "int | None" = None

    def as_dict(self) -> dict:
        """Plain-JSON view (the CLI ``--stats`` rendering)."""
        return asdict(self)


#: A closure strategy: closes *matrices* (mutating the mapping and/or
#: the matrices) under *pair_rules* on *backend*.
ClosureStrategy = Callable[..., ClosureResult]


def get_strategy(name: str) -> ClosureStrategy:
    """Resolve a strategy by name."""
    try:
        return _STRATEGIES[name]
    except KeyError:
        raise UnknownStrategyError(name, list(_STRATEGIES)) from None


def available_strategies() -> list[str]:
    """Names of the bundled closure strategies."""
    return sorted(_STRATEGIES)


#: The strategy every solver closes with when none is named.
DEFAULT_STRATEGY = "delta"

#: The closure options only the ``blocked`` strategy reads.
TILE_OPTIONS = ("tile_size", "memory_budget", "spill_dir")


def closure_settings(backend=None, strategy=None, *, tile_size=None,
                     memory_budget=None, spill_dir=None) -> tuple:
    """``(backend, strategy, tile_options)`` of a closure: None is
    :func:`default_backend` (a name; nothing is imported) or
    :data:`DEFAULT_STRATEGY`, and *tile_options* holds the given
    :data:`TILE_OPTIONS`.  Only ``blocked`` reads those, so one given to
    another strategy (the counting semiring's Kleene closure too) is an
    :class:`EngineError`.  ``$REPRO_MEMORY_BUDGET``/``$REPRO_SPILL_DIR``
    are not given options but defaults that ``blocked`` reads."""
    backend = default_backend() if backend is None else backend
    strategy = DEFAULT_STRATEGY if strategy is None else strategy
    options = {name: value for name, value in zip(
        TILE_OPTIONS, (tile_size, memory_budget, spill_dir))
        if value is not None}
    if options and strategy != "blocked":
        name = strategy if isinstance(strategy, str) else strategy.__name__
        flag = "--" + next(iter(options)).replace("_", "-")
        raise EngineError(f"{flag} applies only to --strategy blocked, "
                          f"not {name!r}")
    return backend, strategy, options


def run_closure(matrices: dict, pair_rules: Iterable[PairRule],
                backend: "str | MatrixBackend | None" = None,
                strategy: "str | ClosureStrategy | None" = None,
                **tile_options) -> ClosureResult:
    """Close *matrices* under *pair_rules* with the named strategy (or
    a strategy function, traced under its ``__name__``: the counting
    semiring's :func:`repro.core.semiring.kleene_closure`).

    The matrices mapping is updated in place (and, for mutation-capable
    backends, the matrices themselves are grown in place).  *backend*,
    *strategy* and *tile_options* are read by :func:`closure_settings`.

    The mapping is first re-keyed in symbol-name order (in place):
    callers build it by iterating symbol *sets*, whose order follows
    object addresses, and the strategies drain their frontiers in
    mapping order — so rounds, multiplications and the element order
    inside the closed matrices are a function of the input, not of
    where the symbols happen to live.
    """
    backend, strategy, options = closure_settings(backend, strategy,
                                                  **tile_options)
    ordered = sorted(matrices.items(), key=lambda item: str(item[0]))
    matrices.clear()
    matrices.update(ordered)
    backend_obj = get_backend(backend)
    if isinstance(strategy, str):
        run = get_strategy(strategy)
    else:
        run, strategy = strategy, strategy.__name__
    tracer = get_tracer()
    with tracer.span("closure", strategy=strategy,
                     backend=type(backend_obj).__name__) as span, \
            stopwatch() as timer:
        result = run(matrices, list(pair_rules), backend_obj, **options)
        span.set("iterations", result.iterations)
        span.set("multiplications", result.multiplications)
    _publish_closure_metrics(strategy, result, timer.elapsed)
    return result


def _publish_closure_metrics(strategy: str, result: ClosureResult,
                             elapsed_s: float) -> None:
    """Publish one closure run into the shared metrics registry."""
    registry = get_registry()
    registry.counter(
        "repro_closure_runs_total", "Closure runs", ("strategy",)
    ).inc(strategy=strategy)
    registry.counter(
        "repro_closure_rounds_total", "Closure rounds", ("strategy",)
    ).inc(result.iterations, strategy=strategy)
    registry.counter(
        "repro_closure_multiplications_total",
        "Matrix/tile products fired by closure", ("strategy",)
    ).inc(result.multiplications, strategy=strategy)
    registry.histogram(
        "repro_closure_seconds", "Closure wall time", ("strategy",)
    ).observe(elapsed_s, strategy=strategy)
    delta_histogram = registry.histogram(
        "repro_closure_delta_nnz", "New entries merged per closure round",
        ("strategy",), buckets=DEFAULT_SIZE_BUCKETS,
    )
    for round_nnz in result.delta_nnz_per_round:
        delta_histogram.observe(round_nnz, strategy=strategy)
    blocked = result.details.get("blocked")
    if blocked is not None:
        registry.counter(
            "repro_tile_products_total", "Tile products computed"
        ).inc(blocked.tile_products)
        registry.counter(
            "repro_tiles_skipped_total",
            "Tile products skipped by the tile-granular frontier"
        ).inc(blocked.tiles_skipped_by_frontier)
        registry.counter(
            "repro_tiles_spilled_total", "Tiles spilled to disk"
        ).inc(blocked.tiles_spilled)
        registry.counter(
            "repro_tiles_reloaded_total", "Tiles reloaded from spill"
        ).inc(blocked.tiles_reloaded)
        registry.gauge(
            "repro_tile_peak_resident_bytes",
            "Peak resident tile bytes of the last blocked closure"
        ).set(blocked.peak_resident_bytes)
        if blocked.budget_bytes is not None:
            registry.gauge(
                "repro_tile_budget_bytes",
                "Configured tile memory budget of the last blocked closure"
            ).set(blocked.budget_bytes)


# ----------------------------------------------------------------------
# Generic fixpoint driver (shared with the set-matrix oracle)
# ----------------------------------------------------------------------

def fixpoint_history(initial, step: Callable, equal: Callable,
                     max_iterations: int | None = None) -> list:
    """Iterate ``following = step(current)`` from *initial*, recording
    every state, until ``equal(following, current)`` (or the iteration
    cap).  Returns ``[T0, T1, ..., Tk]``; at the natural fixpoint the
    last two entries are equal.  This is the abstract shape shared by
    the paper-literal set-matrix closure and the boolean engines."""
    history = [initial]
    while True:
        current = history[-1]
        following = step(current)
        history.append(following)
        if equal(following, current):
            return history
        if max_iterations is not None and len(history) - 1 >= max_iterations:
            return history


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

def closure_naive(matrices: dict, pair_rules: list[PairRule],
                  backend: MatrixBackend) -> ClosureResult:
    """Full re-multiplication of every rule each round — Algorithm 1
    verbatim, the differential oracle for the cleverer strategies."""
    tracer = get_tracer()
    iterations = 0
    multiplications = 0
    growth: list[int] = []
    round_seconds: list[float] = []
    changed = True
    while changed:
        changed = False
        iterations += 1
        with tracer.span("closure.round", strategy="naive",
                         round=iterations) as round_span, \
                stopwatch() as round_timer:
            round_new = 0
            for head, left, right in pair_rules:
                product = matrices[left].multiply(matrices[right])
                multiplications += 1
                merged, delta = backend.union_update(matrices[head], product)
                matrices[head] = merged
                new_entries = delta.nnz()
                if new_entries:
                    changed = True
                    round_new += new_entries
            round_span.set("new_entries", round_new)
        round_seconds.append(round_timer.elapsed)
        growth.append(round_new)
    return ClosureResult(matrices=matrices, iterations=iterations,
                         multiplications=multiplications,
                         delta_nnz_per_round=tuple(growth),
                         details={"round_seconds": tuple(round_seconds)})


def closure_delta(matrices: dict, pair_rules: list[PairRule],
                  backend: MatrixBackend) -> ClosureResult:
    """Semi-naive delta propagation over a symbol worklist.

    ``frontier[A]`` accumulates the entries added to ``M_A`` since the
    last time ``A`` was propagated.  Popping ``A`` fires only the rules
    whose body mentions ``A``, multiplying the frontier against the
    *current* full matrices — ``ΔM_A × M_C`` / ``M_B × ΔM_A`` instead
    of full products — and merges the results immediately, so facts
    discovered early in a round feed later products of the same round
    (Gauss–Seidel order, like the naive loop's in-place updates).
    Deltas keep accumulating until their symbol is popped, which keeps
    products few and batched rather than one per tiny frontier.

    The least fixpoint is identical to ``naive`` (the closure is
    monotone; every new fact is eventually propagated through every
    rule mentioning its symbol — Theorem 3's argument bounds the
    rounds).
    """
    rules_by_left: dict[Hashable, list[tuple[Hashable, Hashable]]] = {}
    rules_by_right: dict[Hashable, list[tuple[Hashable, Hashable]]] = {}
    for head, left, right in pair_rules:
        rules_by_left.setdefault(left, []).append((head, right))
        rules_by_right.setdefault(right, []).append((head, left))

    frontier = {
        symbol: backend.clone(matrix)
        for symbol, matrix in matrices.items()
        if matrix.nnz()
    }

    tracer = get_tracer()
    iterations = 0
    multiplications = 0
    growth: list[int] = []
    round_seconds: list[float] = []

    def merge(head: Hashable, product: BooleanMatrix) -> int:
        merged, delta = backend.union_update(matrices[head], product)
        matrices[head] = merged
        delta_nnz = delta.nnz()
        if delta_nnz:
            accumulated = frontier.get(head)
            if accumulated is None:
                frontier[head] = delta
            else:
                frontier[head], _ = backend.union_update(accumulated, delta)
        return delta_nnz

    while frontier:
        iterations += 1
        with tracer.span("closure.round", strategy="delta",
                         round=iterations) as round_span, \
                stopwatch() as round_timer:
            round_new = 0
            # One round = drain the symbols queued at its start; symbols
            # (re)gaining a frontier mid-round run in the next round
            # unless they were still waiting in this one.
            for symbol in list(frontier):
                delta_matrix = frontier.pop(symbol, None)
                if delta_matrix is None:
                    continue
                for head, right in rules_by_left.get(symbol, ()):
                    right_matrix = matrices[right]
                    if right_matrix.nnz() == 0:
                        continue
                    multiplications += 1
                    round_new += merge(
                        head, delta_matrix.multiply(right_matrix)
                    )
                for head, left in rules_by_right.get(symbol, ()):
                    left_matrix = matrices[left]
                    if left_matrix.nnz() == 0:
                        continue
                    multiplications += 1
                    round_new += merge(
                        head, left_matrix.multiply(delta_matrix)
                    )
            round_span.set("new_entries", round_new)
        round_seconds.append(round_timer.elapsed)
        growth.append(round_new)
    return ClosureResult(matrices=matrices, iterations=iterations,
                         multiplications=multiplications,
                         delta_nnz_per_round=tuple(growth),
                         details={"round_seconds": tuple(round_seconds)})


#: Candidate tile edges, largest first (64-multiples keep the bitset
#: backend on its word-aligned split/assemble fast paths).
TILE_SIZE_CANDIDATES = (512, 256, 128, 64)

#: How many tiles of the picked edge the budget must hold at once: a
#: group's operand pairs, its staged product and the merge's output
#: tile, with headroom.
WORKING_SET_TILES = 16


def _estimated_matrix_bytes(matrices: dict) -> int:
    from .tilestore import matrix_nbytes

    return sum(matrix_nbytes(matrix) for matrix in matrices.values())


def _pick_tile_size(size: int, budget: "int | None",
                    total_bytes: int, matrix_count: int) -> int:
    """Largest candidate tile edge whose working set
    (:data:`WORKING_SET_TILES` tiles at the *measured* bytes per cell)
    fits the budget; unbounded runs take the largest."""
    candidates = [edge for edge in TILE_SIZE_CANDIDATES
                  if edge <= max(size, TILE_SIZE_CANDIDATES[-1])]
    if budget is None or not size or not matrix_count:
        return candidates[0]
    bytes_per_cell = max(total_bytes / (matrix_count * size * size), 0.125)
    for edge in candidates:
        if WORKING_SET_TILES * bytes_per_cell * edge * edge <= budget:
            return edge
    return candidates[-1]


#: Prefix for the staging keys of un-merged group products inside the
#: tile store (disjoint from ``(symbol, I, J)`` tile keys).
_STAGE = "__stage__"


def closure_blocked(matrices: dict, pair_rules: list[PairRule],
                    backend: MatrixBackend,
                    tile_size: "int | None" = None,
                    frontier: bool = True,
                    memory_budget=None,
                    spill_dir: "str | None" = None,
                    tile_store=None) -> ClosureResult:
    """Frontier-aware tiled closure with an out-of-core spillable
    working set.

    Every matrix is partitioned into ``tile_size``-square tiles once —
    into a :class:`repro.core.tilestore.TileStore` keyed ``(symbol, I,
    J)``.  With ``tile_size=None`` the edge is the largest of
    :data:`TILE_SIZE_CANDIDATES` whose :data:`WORKING_SET_TILES`-tile
    working set, at the matrices' measured bytes per cell, fits the
    budget (the largest when unbounded).  Per round, a (rule, I, J, K)
    tile task is generated only when the K-side input tile ``left[I,
    K]`` or the I-side input tile ``right[K, J]`` changed last round
    (round 1: every nonzero tile counts as changed, reproducing the
    full first round).  Tasks targeting the same output tile form one
    mul-accumulate group, which reads its operands from the store by
    key and pins only its own tiles.  All group products are computed
    (staged in the store) before any merge, and merging walks the
    groups in canonical key order pinning just the output and staged
    tile, so the result is byte-identical for every memory budget.

    ``memory_budget`` (bytes; int or ``"64K"``-style string; None
    honours ``$REPRO_MEMORY_BUDGET``) bounds the resident tile bytes:
    cold tiles spill to ``spill_dir`` (None honours ``$REPRO_SPILL_DIR``,
    else a fresh temporary directory) through the backend payload codec,
    and bitset/dense tiles reload zero-copy via ``mmap``.  The spill
    directory is cleaned up on success and kept on a crash.  A
    caller-owned store can be passed as ``tile_store`` (its budget then
    governs, and it is not closed here), and ``frontier=False`` fires
    every tile product every round: test knobs that only a direct call
    reaches, as :func:`run_closure` forwards just the tile options.

    The least fixpoint equals ``naive``'s: whenever an input tile
    changes at round r, every task reading it re-fires at round r+1
    with the full current tiles, which is the semi-naive completeness
    argument at tile granularity; monotone growth bounds the rounds.

    ``multiplications`` counts *tile* products — the unit of work a
    device would schedule.  ``details["blocked"]`` carries the run's
    :class:`BlockedStats`.
    """
    from .tilestore import TileStore, resolve_memory_budget, resolve_spill_dir

    if tile_size is not None and tile_size < 1:
        raise ValueError(f"tile_size must be a positive integer, "
                         f"got {tile_size!r}")
    if not matrices:
        return ClosureResult(matrices=matrices, iterations=0,
                             multiplications=0)
    size = next(iter(matrices.values())).shape[0]

    owns_store = tile_store is None
    store = tile_store if tile_store is not None else TileStore(
        budget_bytes=resolve_memory_budget(memory_budget),
        spill_dir=resolve_spill_dir(spill_dir),
    )
    if tile_size is None:
        tile_size = _pick_tile_size(size, store.budget_bytes,
                                    _estimated_matrix_bytes(matrices),
                                    len(matrices))
    grid = max(1, (size + tile_size - 1) // tile_size)
    try:
        result = _closure_blocked_on_store(
            store, matrices, pair_rules, backend, tile_size, grid, size,
            frontier,
        )
    except BaseException:
        if owns_store:
            # Keep the spill files for post-mortem inspection.
            store.close(keep_spill=True)
        raise
    if owns_store:
        store.close()
    return result


def _group_product(store, pair_keys) -> BooleanMatrix:
    """One output tile's mul-accumulate chain ``⋁_K left[I, K] ×
    right[K, J]``, reading each operand pair from *store* as it goes.

    Accumulation uses ``union_update`` on the freshly-owned first
    product (for annotated tiles that is the cell-wise ⊕ fold)."""
    accumulator = None
    for left_key, right_key in pair_keys:
        product = store.get(left_key).multiply(store.get(right_key))
        if accumulator is None:
            accumulator = product
        else:
            accumulator.union_update(product)
    return accumulator


def _closure_blocked_on_store(store, matrices: dict,
                              pair_rules: list[PairRule],
                              backend: MatrixBackend, tile_size: int,
                              grid: int, size: int,
                              frontier: bool) -> ClosureResult:
    nonzero: dict[Hashable, set] = {}
    for symbol in list(matrices):
        symbol_tiles = backend.split_into_tiles(matrices[symbol], tile_size)
        matrices[symbol] = None  # the store holds the working copy now
        indexes = set()
        # Pop as we insert so the budget governs the split too: a tile
        # the store decides to spill is released immediately.
        for index in sorted(symbol_tiles):
            tile = symbol_tiles.pop(index)
            if tile.nnz():
                indexes.add(index)
            store.put((symbol,) + index, tile)
        nonzero[symbol] = indexes
    # Round 1 treats every nonzero tile as freshly changed.
    changed: dict[Hashable, set] = {
        symbol: set(indexes)
        for symbol, indexes in nonzero.items() if indexes
    }

    tracer = get_tracer()
    iterations = 0
    tile_products = 0
    tiles_skipped = 0
    compute_seconds = 0.0
    growth: list[int] = []
    round_seconds: list[float] = []

    while changed and size:
        iterations += 1
        round_timer = stopwatch()
        with tracer.span("closure.round", strategy="blocked",
                         round=iterations) as round_span:
            # Index the nonzero tiles by their inner coordinate K once
            # per round: as left operand (I, K) grouped by K, as right
            # operand (K, J) grouped by K.
            left_by_k: dict[Hashable, dict[int, list[int]]] = {}
            right_by_k: dict[Hashable, dict[int, list[int]]] = {}
            for symbol, indexes in nonzero.items():
                by_col: dict[int, list[int]] = {}
                by_row: dict[int, list[int]] = {}
                for (a, b) in indexes:
                    by_col.setdefault(b, []).append(a)   # left (I, K=b)
                    by_row.setdefault(a, []).append(b)   # right (K=a, J)
                left_by_k[symbol] = by_col
                right_by_k[symbol] = by_row

            groups: dict[tuple, set[int]] = {}
            full_products = 0
            for rule_index, (head, left, right) in enumerate(pair_rules):
                left_cols = left_by_k.get(left)
                right_rows = right_by_k.get(right)
                if not left_cols or not right_rows:
                    continue
                for k in left_cols.keys() & right_rows.keys():
                    full_products += len(left_cols[k]) * len(right_rows[k])
                if frontier:
                    fired: set[tuple[int, int, int]] = set()
                    for (i, k) in changed.get(left, ()):
                        for j in right_rows.get(k, ()):
                            fired.add((i, j, k))
                    for (k, j) in changed.get(right, ()):
                        for i in left_cols.get(k, ()):
                            fired.add((i, j, k))
                else:
                    fired = {
                        (i, j, k)
                        for k in left_cols.keys() & right_rows.keys()
                        for i in left_cols[k]
                        for j in right_rows[k]
                    }
                for (i, j, k) in fired:
                    groups.setdefault((rule_index, i, j), set()).add(k)

            round_products = sum(len(ks) for ks in groups.values())
            tile_products += round_products
            tiles_skipped += full_products - round_products
            round_span.set("tile_products", round_products)
            round_span.set("tiles_skipped",
                           full_products - round_products)

            # Groups read operand tiles by store key, so only the group
            # in flight is pinned resident; its product is staged in the
            # store until the merge below.
            with tracer.span("closure.compute", groups=len(groups)), \
                    stopwatch() as compute_timer:
                for key in sorted(groups):
                    rule_index, i, j = key
                    _head, left, right = pair_rules[rule_index]
                    pair_keys = [((left, i, k), (right, k, j))
                                 for k in sorted(groups[key])]
                    with tracer.span("tile.group", tasks=len(pair_keys)), \
                            store.pinned([operand for pair in pair_keys
                                          for operand in pair]):
                        product = _group_product(store, pair_keys)
                    store.put((_STAGE,) + key, product)
            compute_seconds += compute_timer.elapsed

            next_changed: dict[Hashable, set] = {}
            round_new = 0
            with tracer.span("closure.merge", groups=len(groups)):
                for key in sorted(groups):
                    rule_index, i, j = key
                    head = pair_rules[rule_index][0]
                    stage_key = (_STAGE, rule_index, i, j)
                    out_key = (head, i, j)
                    with store.pinned((stage_key, out_key)):
                        merged, delta = backend.union_update(
                            store.get(out_key), store.get(stage_key)
                        )
                        new_entries = delta.nnz()
                        store.put(out_key, merged, changed=bool(new_entries))
                    store.discard(stage_key)
                    if new_entries:
                        round_new += new_entries
                        next_changed.setdefault(head, set()).add((i, j))
                        nonzero[head].add((i, j))
            round_span.set("new_entries", round_new)
        growth.append(round_new)
        round_seconds.append(round_timer.elapsed)
        changed = next_changed
        # Round barrier: let cold tiles spill before the next round's
        # groups pin a fresh working set.
        store.evict_to_budget()

    for symbol in nonzero:
        matrices[symbol] = backend.assemble_from_tile_iter(
            _drain_symbol_tiles(store, symbol, grid), size, tile_size
        )
    store_stats = store.stats
    stats = BlockedStats(
        tile_size=tile_size,
        grid=grid,
        tile_products=tile_products,
        iterations=iterations,
        tiles_skipped_by_frontier=tiles_skipped,
        scheduler_wall_time_s=compute_seconds,
        tiles_spilled=store_stats.tiles_spilled,
        tiles_reloaded=store_stats.tiles_reloaded,
        spill_bytes=store_stats.spill_bytes,
        peak_resident_bytes=store_stats.peak_resident_bytes,
        budget_bytes=store.budget_bytes,
    )
    return ClosureResult(matrices=matrices, iterations=iterations,
                         multiplications=tile_products,
                         delta_nnz_per_round=tuple(growth),
                         details={"blocked": stats,
                                  "round_seconds": tuple(round_seconds)})


def _drain_symbol_tiles(store, symbol: Hashable, grid: int):
    """Yield one symbol's tiles in grid order, releasing each from the
    store as it goes — assembly never holds more than one tile resident
    beyond the matrix being built."""
    for bi in range(grid):
        for bj in range(grid):
            key = (symbol, bi, bj)
            if key not in store:  # zero-size matrices split into no tiles
                continue
            tile = store.get(key)
            store.discard(key)
            yield (bi, bj), tile


_STRATEGIES: dict[str, ClosureStrategy] = {
    "naive": closure_naive,
    "delta": closure_delta,
    "blocked": closure_blocked,
}

#: The strategy names bundled with the library.
STRATEGIES = tuple(_STRATEGIES)
