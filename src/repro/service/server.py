"""JSONL front-end for :class:`~repro.service.query_service.QueryService`.

One request per line, one JSON response per line — the same protocol
over stdio (scriptable: pipe a session into ``repro-cfpq serve``) and
TCP (``repro-cfpq serve --port N``; try it with netcat).  Requests:

.. code-block:: json

    {"op": "query", "start": "S"}
    {"op": "query", "start": "S", "source": 0, "target": 3}
    {"op": "query", "start": "S", "source": 0, "target": 3,
     "semantics": "single-path"}
    {"op": "batch", "queries": [{"start": "S", "source": 0, "target": 3},
                                {"start": "S"}]}
    {"op": "top_k", "start": "S", "source": 0, "target": 3, "k": 5}
    {"op": "top_k", "start": "S", "source": 0, "target": 3, "k": 5,
     "cursor": 5, "max_length": 32}
    {"op": "update", "insert": [["u", "a", "v"]],
     "delete": [["x", "a", "y"]]}
    {"op": "update", "ops": [["insert", "u", "a", "v"],
                             ["delete", "u", "a", "v"]]}
    {"op": "stats"}
    {"op": "sync"}
    {"op": "save", "path": "index.snapshot"}
    {"op": "metrics"}
    {"op": "ping"}
    {"op": "shutdown"}

``query``/``top_k`` requests and ``batch`` items are read by
:func:`repro.graph.request.read_query`, the reader ``repro-cfpq query
--batch`` and ``path``/``paths`` use, so a refusal has one text on every
surface.  A lone ``source`` and ``target`` ask membership; a key no op
reads is refused, never dropped (``op`` and ``_rid``, which a fan-out
leader stamps, are the envelope); ``sources``/``targets`` lists and
``membership`` are batch-file forms.

Responses are ``{"ok": true, "result": ...}`` or ``{"ok": false,
"error": "...", "error_type": "..."}``; with ``--stats`` every response
also carries a compact ``stats`` object (cache hit rate, tick latency,
snapshot size, replication horizon), read right after the operation by
the thread that owns the service, so it always matches the response.

The TCP transport is an asyncio server (:class:`AsyncJSONLServer`): one
task per connection, and the event loop owns the service, as the stdio
loop does.  Only whole relations and ``save`` hand their heavy part to
one worker thread; a tick never runs beside it.  A ``shutdown`` op
stops the *whole* server, client disconnects are absorbed
per-connection, and oversized frames are refused in-band.

A ``batch`` op answers many queries in one round-trip, one ``{"ok":
...}`` envelope per item, all from one tick.  A ``top_k`` page of best
witness paths ends at rank ``MAX_TOP_K_RANK``; the client passes
``next_cursor`` back to resume the service's cached enumerator.

With ``replicas=[(host, port), ...]`` the server is a read fan-out
front door: ``query``, ``batch`` and ``top_k`` ops are forwarded
round-robin to follower replicas (their responses relayed verbatim),
every other op runs locally — the leader owns writes.  After each
``update`` tick the leader also *pushes* a ``sync`` to every replica
over a connection of its own, retried until one gets through.
"""

from __future__ import annotations

import asyncio
import contextlib
import contextvars
import functools
import itertools
import json
import logging
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import IO, Iterable

from ..core.pair_writer import PairWriter, json_node
from ..errors import ReproError
from ..graph.io import coerce_json_node
from ..graph.request import ENVELOPE, check_keys, read_query
from ..obs.metrics import get_registry, render_prometheus
from ..obs.trace import Stopwatch, get_tracer, stopwatch
from .query_service import QueryService, Steps, run_inline

logger = logging.getLogger(__name__)

#: Longest accepted request line (bytes).  A frame beyond this is
#: answered with ``FrameTooLongError`` and the connection closed — the
#: stream cannot be resynchronized mid-frame.
DEFAULT_MAX_LINE_BYTES = 1 << 20

#: Stream limit on the leader's connections to its replicas (bytes).  A
#: forwarded reply is one line holding a whole answer — up to a full
#: relation — so asyncio's 64 KiB default is far too small; beyond this
#: the replica is treated as dead and the leader answers locally.
REPLICA_REPLY_LIMIT_BYTES = 1 << 30

#: Deepest rank a ``top_k`` request may page to (``cursor + k``): the
#: enumeration runs on the event loop, where a deep page stalls every
#: other request.  The in-process :meth:`QueryService.top_k` is unbounded.
MAX_TOP_K_RANK = 128

#: Pauses between retries of a failed sync push (seconds): the first
#: retry goes out at once, later ones wait from the first bound, doubling
#: up to the second, while the replica stays unreachable.
PUSH_RETRY_SECONDS = (0.05, 1.0)


# ----------------------------------------------------------------------
# Request handling (transport-independent)
# ----------------------------------------------------------------------

#: Request-id source for trace correlation; the pid prefix keeps ids
#: distinct across a leader and its replica processes.
_RID_COUNTER = itertools.count(1)

#: The slow-query log's ``(threshold_ms, log_path)``; None is off.
_SLOW_QUERY: "tuple[float, str | None] | None" = None


def _next_rid() -> str:
    return f"{os.getpid():x}-{next(_RID_COUNTER):x}"


def set_slow_query_log(threshold_ms: "float | None",
                       log_path: "str | None" = None) -> None:
    """Configure the slow-query log: requests taking at least
    *threshold_ms* get their full span tree appended to *log_path*
    (JSONL; None logs through the module logger instead).  Pass
    ``threshold_ms=None`` to turn the log off."""
    global _SLOW_QUERY
    _SLOW_QUERY = (None if threshold_ms is None
                   else (float(threshold_ms), log_path))


def _record_slow_query(log_path: "str | None", op: str, rid: str,
                       seconds: float, spans: list) -> None:
    entry = {"ts": time.time(), "op": op, "rid": rid,
             "seconds": seconds, "spans": spans}
    if log_path is None:
        logger.warning("slow query op=%s rid=%s took %.3fs (%d spans)",
                       op, rid, seconds, len(spans))
        return
    line = json.dumps(entry, sort_keys=True) + "\n"
    with open(log_path, "a", encoding="utf-8") as stream:
        stream.write(line)


def handle_request(service: QueryService, request: dict,
                   include_stats: bool = False) -> dict:
    """Execute one request object against *service*, on this thread.

    Never raises for request-level problems — malformed input and
    :class:`~repro.errors.ReproError` subclasses become ``ok: false``
    responses, so one bad line cannot kill a session.  With
    *include_stats* the response carries the stats read right after the
    operation.  Every request is counted and timed in the metrics
    registry; with tracing on it runs in a ``server.request`` span whose
    request id honours a fan-out leader's ``_rid``, and a request over
    the slow-query threshold logs its span tree."""
    with _request_scope(request, stopwatch()):
        return run_inline(_request_steps(service, request, include_stats))


@contextlib.contextmanager
def _request_scope(request, timer: Stopwatch):
    """Account for one request whose arrival *timer* marks: the
    ``server.request`` span (backdated to the arrival), the slow-query
    log entry and the request metrics cover the caller's block."""
    op = request.get("op", "query") if isinstance(request, dict) \
        else "invalid"
    tracer = get_tracer()
    if not tracer.enabled:
        yield
    else:
        rid = (request.get("_rid")
               if isinstance(request, dict) else None) or _next_rid()
        slow = _SLOW_QUERY
        with (tracer.collect() if slow is not None
              else contextlib.nullcontext()) as records, \
                tracer.span("server.request", op=op, rid=rid) as span:
            span.backdate(timer.elapsed)
            yield
        if slow is not None and timer.elapsed * 1000.0 >= slow[0]:
            _record_slow_query(
                slow[1], op, rid, timer.elapsed,
                [record for record in records
                 if record["trace_id"] == span.trace_id])
    registry = get_registry()
    registry.counter("repro_requests_total", "Requests handled",
                     ("op",)).inc(op=op)
    registry.histogram("repro_request_seconds", "Request latency",
                       ("op",)).observe(timer.elapsed, op=op)


def _request_steps(service: QueryService, request: dict,
                   include_stats: bool) -> Steps:
    """One request's response as steps (see :func:`run_inline`): only
    whole relations and ``save`` yield."""
    try:
        if not isinstance(request, dict):
            raise ValueError("request must be a JSON object")
        op = request.get("op", "query")
        result = yield from _dispatch(service, op, request)
        response: dict = {"ok": True, "op": op, "result": result}
    except (ReproError, ValueError, KeyError, TypeError) as error:
        response = _error_response(error)
    if include_stats:
        stats = service.stats
        response["stats"] = {key: stats[key] for key in _COMPACT_STATS
                             if key in stats}
    return response


def _lane(request) -> "str | None":
    """How the TCP server runs *request*, by its shape: ``"worker"``
    when its steps yield (a whole relation — a ``query``, or any
    ``batch`` item, with no endpoints — and ``save``), ``"tick"`` for
    ``update`` and ``sync``, and None (inline, ungated) otherwise."""
    op = request.get("op", "query") if isinstance(request, dict) else None
    queries = request.get("queries") if op == "batch" else None
    if op in ("update", "sync"):
        return "tick"
    if op == "save" or (op == "query" and _no_endpoints(request)) or (
            isinstance(queries, list) and any(map(_no_endpoints, queries))):
        return "worker"
    return None


def _no_endpoints(spec) -> bool:
    if isinstance(spec, dict):
        return spec.get("source") is None and spec.get("target") is None
    return isinstance(spec, list) and all(
        value is None for value in spec[1:3])


#: The keys each op other than ``query`` and ``top_k`` (which read the
#: query language, :mod:`repro.graph.request`) reads besides the envelope.
_OP_KEYS = {"batch": ("queries",), "update": ("ops", "insert", "delete"),
            "stats": (), "sync": (), "save": ("path",), "metrics": (),
            "ping": (), "shutdown": ()}


def _dispatch(service: QueryService, op: str, request: dict) -> Steps:
    if op == "query":
        graph = service.graph
        result = yield from service.query_steps(
            read_query(request, graph, envelope=ENVELOPE))
        if isinstance(result, frozenset):  # sorting it is the cost
            return (yield lambda: _jsonable_result(result,
                                                   PairWriter(graph)))
        return _jsonable_result(result)
    if op == "top_k":
        query = read_query(request, service.graph, "top_k", ENVELOPE)
        if query.cursor + query.k > MAX_TOP_K_RANK:
            raise ValueError(
                f"top_k pages end at rank {MAX_TOP_K_RANK}; cursor + k "
                f"is {query.cursor + query.k}")
        paths, next_cursor, exhausted = yield from service.query_steps(query)
        return {"paths": [_jsonable_result(path) for path in paths],
                "next_cursor": next_cursor, "exhausted": exhausted}
    if op not in _OP_KEYS:
        raise ValueError(
            f"unknown op {op!r}; expected query/batch/top_k/update/stats/"
            "sync/save/metrics/ping/shutdown"
        )
    check_keys(request, _OP_KEYS[op], op, ENVELOPE)
    if op == "batch":
        queries = request.get("queries")
        if not isinstance(queries, list):
            raise ValueError("batch requires a 'queries' list")
        answers = yield from service.query_batch_steps(queries)
        envelopes = functools.partial(_batch_envelopes, service.graph,
                                      answers)
        if any(isinstance(answer, frozenset) for answer in answers):
            return (yield envelopes)  # sorting the relations is the cost
        return envelopes()
    if op == "update":
        graph = service.graph
        ops = [
            (str(kind), _coerce_edge(graph, (source, label, target)))
            for kind, source, label, target in request.get("ops", ())
        ]
        ops += [("insert", _coerce_edge(graph, edge))
                for edge in request.get("insert", ())]
        ops += [("delete", _coerce_edge(graph, edge))
                for edge in request.get("delete", ())]
        if not ops:
            raise ValueError(
                "update requires 'ops', 'insert' and/or 'delete'"
            )
        return service.tick(ops).as_dict()
    if op == "stats":
        return service.stats
    if op == "sync":
        replay = getattr(service, "replay", None)
        if replay is None:
            raise ValueError(
                "sync requires a follower (this service does not replay "
                "a WAL)"
            )
        return replay()
    if op == "save":
        path = request.get("path")
        if not path:
            raise ValueError("save requires 'path'")
        return {"path": path,
                "bytes": (yield from service.save_snapshot_steps(path))}
    if op == "metrics":
        return {"format": "prometheus", "text": render_prometheus()}
    return "pong" if op == "ping" else "bye"


def _batch_envelopes(graph, answers: list) -> list:
    """Per-item response envelopes for the ``batch`` op:
    :meth:`QueryService.query_batch` reports item failures in-band as
    exception instances, mirrored here as the same ``ok: false`` shape
    a whole-request error would get."""
    writer = PairWriter(graph) if any(
        isinstance(answer, frozenset) for answer in answers) else None
    return [_error_response(answer) if isinstance(answer, Exception)
            else {"ok": True, "result": _jsonable_result(answer, writer)}
            for answer in answers]


def _error_response(error: Exception) -> dict:
    return {"ok": False, "error": str(error),
            "error_type": type(error).__name__}


def _coerce_edge(graph, edge) -> tuple:
    """Apply the same node coercion to an update edge that queries get,
    so a client sending ``"2"`` for the integer node ``2`` attaches the
    edge to the existing node instead of silently creating a twin.  On
    a leader this runs *before* the WAL append, so followers replay the
    coerced edges the leader actually applied."""
    source, label, target = edge
    return (coerce_json_node(graph, source), str(label),
            coerce_json_node(graph, target))


def _jsonable_result(result, writer: "PairWriter | None" = None):
    if isinstance(result, frozenset):  # a whole relation, by the writer
        return writer.wire(writer.node_keys(result))
    if isinstance(result, tuple):  # a witness path
        return [[json_node(i), label, json_node(j)]
                for i, label, j in result]
    return result


#: The stats keys that ride on every response under ``--stats``.
_COMPACT_STATS = ("cache_hit_rate", "cache_entries", "cache_invalidations",
                  "ticks", "dred_passes", "frontier_runs",
                  "tick_last_seconds", "snapshot_bytes", "startup",
                  "replication")


# ----------------------------------------------------------------------
# Shared protocol steps
# ----------------------------------------------------------------------

def _handle_line(service: QueryService, line: str,
                 include_stats: bool) -> "dict | None":
    """One JSONL protocol step, shared by the stdio and TCP transports:
    blank lines are skipped (None), bad JSON becomes an error response,
    everything else goes through :func:`handle_request`."""
    line = line.strip()
    if not line:
        return None
    try:
        request = json.loads(line)
    except json.JSONDecodeError as error:
        return {"ok": False, "error": f"bad JSON: {error}",
                "error_type": "JSONDecodeError"}
    return handle_request(service, request, include_stats)


def _is_shutdown(response: dict) -> bool:
    return bool(response.get("ok")) and response.get("op") == "shutdown"


def _encode(response: dict) -> bytes:
    return (json.dumps(response) + "\n").encode("utf-8")


def serve_stream(service: QueryService, in_stream: IO[str],
                 out_stream: IO[str], include_stats: bool = False) -> int:
    """The stdio loop: read JSONL requests until EOF or a ``shutdown``
    op; returns the number of requests served.  On shutdown, a service
    with a ``flush`` method (a WAL-writing leader) is flushed — stdio
    and TCP shutdown semantics stay aligned."""
    served = 0
    for raw in in_stream:
        response = _handle_line(service, raw, include_stats)
        if response is None:
            continue
        out_stream.write(json.dumps(response) + "\n")
        out_stream.flush()
        served += 1
        if _is_shutdown(response):
            break
    flush = getattr(service, "flush", None)
    if flush is not None:
        flush()
    return served


# ----------------------------------------------------------------------
# Read fan-out (leader → follower replicas)
# ----------------------------------------------------------------------

class _ReplicaPool:
    """Round-robin forwarding of query lines to follower replicas.

    One persistent connection per replica, serialized by a per-replica
    lock (concurrent queries parallelize *across* replicas).  A dead
    replica — unreachable, closed mid-reply, or replying past
    ``REPLICA_REPLY_LIMIT_BYTES`` — is skipped: its connection is
    dropped and the next replica tried; when every replica fails the
    caller answers locally."""

    def __init__(self, addresses: Iterable[tuple[str, int]]):
        self.addresses = list(addresses)
        self._next = 0
        self._connections: dict = {}
        self._locks = {address: asyncio.Lock()
                       for address in self.addresses}

    async def forward(self, line: str) -> "bytes | None":
        """Send *line* to the next replica; returns its raw response
        line, or None when no replica answered."""
        for _ in range(len(self.addresses)):
            address = self.addresses[self._next % len(self.addresses)]
            self._next += 1
            try:
                async with self._locks[address]:
                    reader, writer = await self._connect(address)
                    writer.write(line.encode("utf-8") + b"\n")
                    await writer.drain()
                    return await reader.readuntil(b"\n")
            except (OSError, asyncio.IncompleteReadError,
                    asyncio.LimitOverrunError) as error:
                logger.warning("replica %s:%s unreachable: %s",
                               address[0], address[1], error)
                await self._drop(address)
        return None

    async def _connect(self, address):
        connection = self._connections.get(address)
        if connection is None:
            connection = await asyncio.open_connection(
                *address, limit=REPLICA_REPLY_LIMIT_BYTES)
            self._connections[address] = connection
        return connection

    async def _drop(self, address) -> None:
        connection = self._connections.pop(address, None)
        if connection is not None:
            connection[1].close()

    async def close(self) -> None:
        for address in list(self._connections):
            await self._drop(address)


class _ReplicaPush:
    """Tick notification, leader → followers: after every tick the
    leader sends ``{"op": "sync"}`` to each replica, and the follower
    replays the shared WAL through its ``TickLogReader`` at once.

    Each replica has its own connection (never the forwarding one, whose
    lock is held across a whole read) and its own task, which keeps at
    most one ``sync`` in flight: ticks that land meanwhile fold into the
    next one.  A replica that stops reading therefore stalls only its
    own task, never a tick reply.  A failed push drops the connection
    and is retried on a new one until a ``sync`` gets through: a
    restarted follower replayed only up to the end of the log as it was
    at its start, so the failed push may be its only notice of a tick.
    Since ``sync`` replays to the end of the log, the first one that
    gets through catches the follower up."""

    _SYNC = b'{"op": "sync"}\n'

    def __init__(self, addresses: Iterable[tuple[str, int]]):
        self._due = {address: asyncio.Event() for address in addresses}
        self._tasks = [asyncio.create_task(self._run(address, due))
                       for address, due in self._due.items()]

    def notify(self) -> None:
        """A tick was logged and applied: every replica is due a sync."""
        for due in self._due.values():
            due.set()

    async def _run(self, address, due: asyncio.Event) -> None:
        writer = None
        retry_in = 0.0
        try:
            while True:
                await due.wait()
                due.clear()
                try:
                    if writer is None:
                        reader, writer = await asyncio.open_connection(
                            *address)
                    writer.write(self._SYNC)
                    await writer.drain()
                    await reader.readuntil(b"\n")
                    retry_in = 0.0
                except (OSError, asyncio.IncompleteReadError,
                        asyncio.LimitOverrunError) as error:
                    log = logger.debug if retry_in else logger.warning
                    log("replica %s:%s missed a sync push: %s",
                        address[0], address[1], error)
                    if writer is not None:
                        writer.close()
                    writer = None
                    await asyncio.sleep(retry_in)
                    first, last = PUSH_RETRY_SECONDS
                    retry_in = min(max(2 * retry_in, first), last)
                    due.set()
        finally:
            if writer is not None:
                writer.close()

    async def close(self) -> None:
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)


# ----------------------------------------------------------------------
# Asyncio TCP transport
# ----------------------------------------------------------------------

class AsyncJSONLServer:
    """Asyncio JSONL server; its event loop is the one owner of the
    service.

    One task per connection.  The loop answers every request inline
    except whole relations and ``save``: their yielded steps (the
    relation build and sort, the snapshot write) and their reply
    encoding run on one worker thread.  Such a job and a tick each hold
    one fair ``asyncio.Lock``, the gate: a tick waits for the job in
    flight, and a job queued behind a tick waits for it.  The server
    stops as a whole on a ``shutdown`` op or :meth:`request_shutdown`:
    the listener closes, every open connection is closed (a blocked
    client reads EOF), the leader's push tasks stop, and a leader's WAL
    is flushed.
    """

    def __init__(self, service, host: str = "127.0.0.1", port: int = 0,
                 include_stats: bool = False,
                 replicas: Iterable[tuple[str, int]] = (),
                 max_line_bytes: int = DEFAULT_MAX_LINE_BYTES):
        self.service = service
        self.host = host
        self.port = port
        self.include_stats = include_stats
        self.max_line_bytes = max_line_bytes
        self.address: "tuple[str, int] | None" = None
        self._replica_addresses = list(replicas)
        self._replica_pool: "_ReplicaPool | None" = None
        self._replica_push: "_ReplicaPush | None" = None
        self._server: "asyncio.base_events.Server | None" = None
        self._loop: "asyncio.AbstractEventLoop | None" = None
        self._worker: "ThreadPoolExecutor | None" = None
        self._gate = asyncio.Lock()
        self._shutdown = asyncio.Event()
        self._writers: set = set()
        self._tasks: set = set()

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting; :attr:`address` is the bound
        (host, port) — with ``port=0``, the ephemeral port chosen."""
        self._loop = asyncio.get_running_loop()
        self._worker = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="jsonl-worker")
        if self._replica_addresses:
            self._replica_pool = _ReplicaPool(self._replica_addresses)
            self._replica_push = _ReplicaPush(self._replica_addresses)
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port,
            limit=self.max_line_bytes,
        )
        self.address = self._server.sockets[0].getsockname()[:2]

    async def wait_closed(self) -> None:
        """Block until a shutdown is requested, then tear everything
        down: listener, open connections, push tasks, the worker, and
        the leader's WAL buffer."""
        await self._shutdown.wait()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._replica_push is not None:
            await self._replica_push.close()
        for writer in list(self._writers):
            with contextlib.suppress(Exception):
                writer.close()
        if self._tasks:
            # Unblock connection loops parked in readline() so they run
            # their cleanup before the loop goes away.
            for task in list(self._tasks):
                task.cancel()
            await asyncio.gather(*self._tasks, return_exceptions=True)
        if self._replica_pool is not None:
            await self._replica_pool.close()
        flush = getattr(self.service, "flush", None)
        if flush is not None:
            flush()
        self._worker.shutdown(wait=False)

    def request_shutdown(self) -> None:
        """Stop the whole server; safe to call from any thread (a no-op
        once the loop is gone — shutdown already happened)."""
        if self._loop is None:
            return
        with contextlib.suppress(RuntimeError):
            self._loop.call_soon_threadsafe(self._shutdown.set)

    # -- connection handling -------------------------------------------
    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._tasks.add(task)
        self._writers.add(writer)
        peer = writer.get_extra_info("peername")
        try:
            while not self._shutdown.is_set():
                try:
                    raw = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    # Oversized frame: the line exceeded the stream
                    # limit, so the remainder cannot be re-framed —
                    # answer with an error and drop the connection.
                    writer.write(_encode({
                        "ok": False,
                        "error": "request line exceeds "
                                 f"{self.max_line_bytes} bytes",
                        "error_type": "FrameTooLongError",
                    }))
                    await writer.drain()
                    break
                if not raw:
                    break
                line = raw.decode("utf-8", errors="replace")
                payload = await self._respond(line)
                if payload is None:
                    continue
                writer.write(payload)
                await writer.drain()
                if self._shutdown.is_set():
                    break
        except (ConnectionResetError, BrokenPipeError, TimeoutError,
                OSError) as error:
            # A client that vanished mid-request/response is routine:
            # log once, never let it near the accept loop.
            logger.info("connection %s dropped: %s", peer, error)
        except asyncio.CancelledError:
            pass  # server shutdown cancelled a parked readline
        finally:
            self._tasks.discard(task)
            self._writers.discard(writer)
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _respond(self, line: str) -> "bytes | None":
        arrival = stopwatch()
        stripped = line.strip()
        if not stripped:
            return None
        try:
            request = json.loads(stripped)
        except json.JSONDecodeError as error:
            return _encode({"ok": False, "error": f"bad JSON: {error}",
                            "error_type": "JSONDecodeError"})
        if self._replica_pool is not None and isinstance(request, dict) \
                and request.get("op", "query") in ("query", "batch",
                                                   "top_k"):
            tracer = get_tracer()
            if tracer.enabled:
                # Stamp a request id into the forwarded line so the
                # replica's server.request span carries the same rid as
                # the leader's server.forward span (handle_request
                # honours "_rid"; unknown keys are ignored by dispatch).
                rid = request.get("_rid") or _next_rid()
                with tracer.span("server.forward",
                                 op=request.get("op", "query"), rid=rid):
                    forwarded = await self._replica_pool.forward(
                        json.dumps({**request, "_rid": rid}))
            else:
                forwarded = await self._replica_pool.forward(stripped)
            if forwarded is not None:
                get_registry().counter(
                    "repro_requests_forwarded_total",
                    "Read requests answered by a follower replica",
                    ("op",),
                ).inc(op=request.get("op", "query"))
                return forwarded
            # Every replica down: serve the read locally.
        with _request_scope(request, arrival):
            steps = _request_steps(self.service, request, self.include_stats)
            lane = _lane(request)
            async with self._gate if lane else contextlib.nullcontext():
                if lane == "worker":
                    response = await self._drive(steps)
                    payload = await self._on_worker(
                        "server.encode", _encode, response)
                else:
                    response = run_inline(steps)
                    payload = _encode(response)
        if _is_shutdown(response):
            self._shutdown.set()
        elif self._replica_push is not None and response.get("ok") \
                and response.get("op") == "update":
            self._replica_push.notify()
        return payload

    async def _drive(self, steps: Steps):
        """:func:`~repro.service.query_service.run_inline` with each
        yielded callable run on the worker thread."""
        result = None
        while True:
            try:
                work = steps.send(result)
            except StopIteration as stop:
                return stop.value
            result = await self._on_worker("server.compute", work)

    async def _on_worker(self, name: str, work, *args):
        """``work(*args)`` on the worker thread, in a span *name* under
        a ``server.worker_wait`` span that also covers the queue."""
        with get_tracer().span("server.worker_wait"):
            context = contextvars.copy_context()
            return await self._loop.run_in_executor(
                self._worker, context.run, _in_span, name, work, *args)


def _in_span(name: str, work, *args):
    with get_tracer().span(name):
        return work(*args)


def serve_tcp(service, host: str = "127.0.0.1", port: int = 0,
              include_stats: bool = False,
              ready_stream: "IO[str] | None" = None,
              replicas: Iterable[tuple[str, int]] = ()) -> None:
    """Run the asyncio TCP transport until shutdown.  ``port=0`` binds
    an ephemeral port; the actual address is announced on *ready_stream*
    (default stderr) as ``listening on HOST:PORT`` before serving."""

    async def main() -> None:
        server = AsyncJSONLServer(
            service, host=host, port=port, include_stats=include_stats,
            replicas=replicas,
        )
        await server.start()
        bound_host, bound_port = server.address
        stream = ready_stream if ready_stream is not None else sys.stderr
        stream.write(f"listening on {bound_host}:{bound_port}\n")
        stream.flush()
        await server.wait_closed()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        pass


class ServerThread:
    """Run an :class:`AsyncJSONLServer` on a background thread — the
    harness tests and the serving benchmark use this to stand up
    leaders and replicas in one process.

    Context-manager protocol: entering starts the loop thread and
    blocks until the server is bound (``.address`` is then set);
    exiting requests shutdown and joins the thread."""

    def __init__(self, service, **kwargs):
        self.service = service
        self.kwargs = kwargs
        self.server: "AsyncJSONLServer | None" = None
        self.address: "tuple[str, int] | None" = None
        self._thread: "threading.Thread | None" = None
        self._ready = threading.Event()
        self._error: "BaseException | None" = None

    def __enter__(self) -> "ServerThread":
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._error is not None:
            raise self._error
        if self.address is None:
            raise RuntimeError("server failed to start within 30s")
        return self

    def _run(self) -> None:
        async def main() -> None:
            server = AsyncJSONLServer(self.service, **self.kwargs)
            try:
                await server.start()
            except BaseException as error:
                self._error = error
                self._ready.set()
                raise
            self.server = server
            self.address = server.address
            self._ready.set()
            await server.wait_closed()

        try:
            asyncio.run(main())
        except BaseException as error:  # surfaced via __enter__/join
            if self._error is None:
                self._error = error
            self._ready.set()

    def stop(self) -> None:
        if self.server is not None:
            self.server.request_shutdown()
        if self._thread is not None:
            self._thread.join(timeout=30)

    def __exit__(self, *exc_info) -> None:
        self.stop()
