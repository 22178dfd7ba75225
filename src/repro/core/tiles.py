"""Tile-task scheduling: the parallel grain of the blocked closure.

The frontier-aware blocked strategy (:func:`repro.core.closure.closure_blocked`)
expresses each closure round as a DAG of independent **tile-task
groups**: one group per output tile ``(rule, I, J)``, holding the
mul-accumulate chain over the inner index ``K``

    out[I, J]  =  ⋁_K  left[I, K] × right[K, J]      (K restricted to
                                                      frontier-reachable
                                                      tasks)

Groups never share an output, so they can run in any order and on any
executor; the per-round barrier (compute everything, then merge in
canonical key order) makes the closure byte-identical regardless of the
scheduler or the completion order — that property is what the
differential tests in ``tests/core/test_tile_scheduler.py`` lock.

Groups reference their operand tiles **by key** through a
:class:`TileSource` (the spillable :class:`repro.core.tilestore.TileStore`
in the blocked closure; :class:`MappingTileSource` over a plain dict
elsewhere), so a scheduler only materializes the tiles it is actually
computing with — the property out-of-core execution needs.  Completed
products are delivered through an optional ``sink(key, result)``
callback (always invoked from the caller's thread); without a sink the
products come back as a list aligned with the input groups.

Three schedulers are bundled:

* ``serial``  — compute groups inline (the reference executor);
* ``threads`` — a shared :class:`~concurrent.futures.ThreadPoolExecutor`;
  NumPy's kernels release the GIL on the word/array operations, so the
  bitset and dense backends genuinely overlap;
* ``process`` — a shared :class:`~concurrent.futures.ProcessPoolExecutor`.
  Tiles cross the pipe as **payloads** — plain tuples of raw word/bool/
  index buffers produced by :meth:`MatrixBackend.tile_payload` — never as
  pickled matrix objects, so the IPC cost is the buffer bytes, not a
  Python object graph.  Payloads come from ``source.payload(key)``: the
  tile store memoizes them per content version (only tiles that changed
  last round re-encode) and serves spilled tiles straight from their
  file bytes, so the parent never re-materializes a cold tile just to
  ship it.  With a sink, the results are delivered **as payloads** too
  (the caller stages them un-materialized).

``resolve_scheduler(None)`` honours the ``REPRO_SCHEDULER`` environment
variable (CI runs the tier-1 suite with ``REPRO_SCHEDULER=process`` to
catch pickling/ownership bugs) and falls back to ``serial``.
"""

from __future__ import annotations

import atexit
import contextlib
import multiprocessing
import os
from concurrent.futures import (Executor, ProcessPoolExecutor,
                                ThreadPoolExecutor, as_completed)

from ..errors import UnknownSchedulerError
from ..matrices.base import BooleanMatrix, get_backend
from ..obs.trace import get_tracer

#: Environment variable supplying the default scheduler name.
SCHEDULER_ENV = "REPRO_SCHEDULER"


def compute_group(pairs) -> BooleanMatrix:
    """Run one group's mul-accumulate chain; returns the product tile.

    Accumulation uses ``union_update`` on the freshly-owned first
    product (for annotated tiles that is the cell-wise ⊕ fold).
    """
    accumulator = None
    for left, right in pairs:
        product = left.multiply(right)
        if accumulator is None:
            accumulator = product
        elif accumulator.supports_inplace:
            accumulator.union_update(product)
        else:
            accumulator = accumulator.union(product)
    return accumulator


def tile_payload_of(matrix: BooleanMatrix) -> tuple:
    """Serialize *matrix* through its backend's payload hook."""
    backend_name = matrix.backend_name
    if backend_name == "annotated":
        return matrix.payload()
    if backend_name == "abstract":
        # Third-party matrix types without a registered backend travel
        # as generic coordinate payloads (rebuilt on the pyset backend).
        rows, cols = matrix.shape
        return ("pyset", rows, cols, tuple(matrix.nonzero_pairs()))
    return get_backend(backend_name).tile_payload(matrix)


def matrix_from_payload(payload: tuple) -> BooleanMatrix:
    """Rebuild a tile from any backend's payload (worker-side entry)."""
    kind = payload[0]
    if kind == "annotated":
        from .semiring import annotated_tile_from_payload

        return annotated_tile_from_payload(payload)
    return get_backend(kind).tile_from_payload(payload)


def _compute_group_from_payloads(pair_payloads) -> tuple:
    """Process-pool worker: deserialize, compute, reserialize."""
    pairs = [
        (matrix_from_payload(left), matrix_from_payload(right))
        for left, right in pair_payloads
    ]
    return tile_payload_of(compute_group(pairs))


def _compute_group_from_payloads_traced(item) -> tuple:
    """Traced process-pool worker: like
    :func:`_compute_group_from_payloads`, but runs the group inside a
    ``tile.group`` span recorded by a throwaway worker-local tracer and
    ships the finished span records back *next to* the payload — spans
    cannot cross the pipe live, so they travel the same channel as the
    result and the parent splices them in with ``Tracer.ingest``."""
    from ..obs.trace import MemorySink, Tracer

    parent_ref, tasks, pair_payloads = item
    sink = MemorySink()
    tracer = Tracer(sink)
    with tracer.span("tile.group", parent_ref=parent_ref,
                     scheduler="process", tasks=tasks):
        payload = _compute_group_from_payloads(pair_payloads)
    return payload, sink.drain()


class TileSource:
    """Where schedulers read operand tiles from.

    ``tile(key)`` materializes a tile, ``payload(key)`` returns its
    encoded wire form (the process scheduler's input), and
    ``pinned(keys)`` marks keys non-evictable for the duration of a
    computation (a no-op for in-memory sources).
    """

    def tile(self, key) -> BooleanMatrix:
        raise NotImplementedError

    def payload(self, key) -> tuple:
        raise NotImplementedError

    def pinned(self, keys):
        return contextlib.nullcontext()


class MappingTileSource(TileSource):
    """A :class:`TileSource` over a plain ``{key: matrix}`` mapping,
    with payload memoization (everything is resident, nothing pins)."""

    def __init__(self, tiles: dict):
        self._tiles = tiles
        self._payloads: dict = {}

    def tile(self, key) -> BooleanMatrix:
        return self._tiles[key]

    def payload(self, key) -> tuple:
        payload = self._payloads.get(key)
        if payload is None:
            payload = tile_payload_of(self._tiles[key])
            self._payloads[key] = payload
        return payload


def _operand_keys(pair_keys) -> list:
    return [key for pair in pair_keys for key in pair]


class TileScheduler:
    """Executes a list of tile-task groups.

    ``run(groups, source, sink=None)`` takes ``[(key, [(left_key,
    right_key), ...]), ...]`` — operand tiles are referenced by key into
    *source*.  Without *sink* the product tiles are returned as a list
    aligned with the input; with *sink* each completed product is
    delivered as ``sink(key, result)`` from the caller's thread (the
    process scheduler delivers payload tuples, the others matrices).
    The caller owns merge order either way, so a scheduler can complete
    work in any order it likes.
    """

    name = "abstract"

    def run(self, groups, source: TileSource, sink=None) -> "list | None":
        raise NotImplementedError


class SerialScheduler(TileScheduler):
    """In-process reference executor."""

    name = "serial"

    def run(self, groups, source: TileSource, sink=None) -> "list | None":
        tracer = get_tracer()
        results = [] if sink is None else None
        for key, pair_keys in groups:
            with tracer.span("tile.group", scheduler=self.name,
                             tasks=len(pair_keys)), \
                    source.pinned(_operand_keys(pair_keys)):
                product = compute_group(
                    (source.tile(left), source.tile(right))
                    for left, right in pair_keys
                )
            if sink is None:
                results.append(product)
            else:
                sink(key, product)
        return results


def _pool_workers() -> int:
    return max(1, min(os.cpu_count() or 1, 8))


class ThreadScheduler(TileScheduler):
    """Shared thread pool; tiles are passed by reference (no copies).

    Safe because the blocked round is a compute/merge barrier: no tile
    mutates while any group still reads it.
    """

    name = "threads"

    def __init__(self) -> None:
        self._executor: Executor | None = None

    def _pool(self) -> Executor:
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=_pool_workers(),
                thread_name_prefix="repro-tile",
            )
            atexit.register(self._executor.shutdown)
        return self._executor

    def run(self, groups, source: TileSource, sink=None) -> "list | None":
        if len(groups) <= 1:
            return SerialScheduler().run(groups, source, sink)

        # Pool workers run in their own long-lived contexts, so the
        # submitter's span does not propagate implicitly; capture its
        # ref here and parent every group span on it explicitly.
        tracer = get_tracer()
        parent_ref = tracer.current_ref()

        def compute(item):
            _key, pair_keys = item
            with tracer.span("tile.group", parent_ref=parent_ref,
                             scheduler="threads",
                             tasks=len(pair_keys)), \
                    source.pinned(_operand_keys(pair_keys)):
                return compute_group(
                    (source.tile(left), source.tile(right))
                    for left, right in pair_keys
                )

        pool = self._pool()
        if sink is None:
            return list(pool.map(compute, groups))
        futures = {pool.submit(compute, item): item[0] for item in groups}
        for future in as_completed(futures):
            sink(futures[future], future.result())
        return None


class ProcessScheduler(TileScheduler):
    """Shared process pool; tiles cross the pipe as raw-buffer payloads.

    The pool is created lazily and reused across closure runs (worker
    start-up is far more expensive than a round), and the chunked map
    amortizes IPC over several groups per message.  The ``fork`` start
    method is preferred when the platform offers it, so that runtime
    registrations (:func:`repro.core.semiring.register_semiring`,
    custom backends) are inherited by the workers; under ``spawn``
    (e.g. macOS default) workers re-import the library and only the
    bundled backends/semirings resolve.
    """

    name = "process"

    def __init__(self) -> None:
        self._executor: Executor | None = None

    def _pool(self) -> Executor:
        if self._executor is None:
            context = None
            if "fork" in multiprocessing.get_all_start_methods():
                context = multiprocessing.get_context("fork")
            self._executor = ProcessPoolExecutor(
                max_workers=_pool_workers(),
                mp_context=context,
            )
            atexit.register(self._executor.shutdown)
        return self._executor

    def run(self, groups, source: TileSource, sink=None) -> "list | None":
        if len(groups) <= 1:
            return SerialScheduler().run(groups, source, sink)
        # Operand payloads come from the source's version-keyed cache:
        # a tile shared by many groups (or unchanged since last round)
        # encodes once, and spilled tiles ship straight from disk.
        payloads = [
            tuple((source.payload(left), source.payload(right))
                  for left, right in pair_keys)
            for _key, pair_keys in groups
        ]
        chunksize = max(1, len(payloads) // (4 * _pool_workers()))
        tracer = get_tracer()
        if tracer.enabled:
            # Workers trace into a local buffer and ship the span
            # records back beside each payload; splice them in here so
            # the tree parents onto the submitting span.
            parent_ref = tracer.current_ref()
            items = [
                (parent_ref, len(pair_keys), payload_group)
                for (_key, pair_keys), payload_group in zip(groups, payloads)
            ]
            traced_results = self._pool().map(
                _compute_group_from_payloads_traced, items,
                chunksize=chunksize,
            )
            results = []
            for payload, span_records in traced_results:
                tracer.ingest(span_records)
                results.append(payload)
        else:
            results = self._pool().map(_compute_group_from_payloads,
                                       payloads, chunksize=chunksize)
        if sink is None:
            return [matrix_from_payload(result) for result in results]
        for (key, _pair_keys), result in zip(groups, results):
            sink(key, result)
        return None


_SCHEDULERS: dict[str, TileScheduler] = {}


def register_scheduler(scheduler: TileScheduler) -> TileScheduler:
    """Register *scheduler* under ``scheduler.name`` (idempotent)."""
    _SCHEDULERS[scheduler.name] = scheduler
    return scheduler


def available_schedulers() -> list[str]:
    """Names of all registered tile schedulers."""
    return sorted(_SCHEDULERS)


def resolve_scheduler(name: "str | TileScheduler | None") -> TileScheduler:
    """Resolve a scheduler by name; None → ``$REPRO_SCHEDULER`` → serial."""
    if isinstance(name, TileScheduler):
        return name
    if name is None:
        name = os.environ.get(SCHEDULER_ENV) or "serial"
    try:
        return _SCHEDULERS[name]
    except KeyError:
        raise UnknownSchedulerError(name, list(_SCHEDULERS)) from None


register_scheduler(SerialScheduler())
register_scheduler(ThreadScheduler())
register_scheduler(ProcessScheduler())

#: The scheduler names bundled with the library.
SCHEDULERS = ("serial", "threads", "process")
