"""Structured tracing: nested spans, JSONL sink, shared stopwatch.

A :class:`Tracer` produces *spans* — named, timed, attributed intervals
that nest: closure → round → tile group → spill, or request → tick →
WAL append.  The API is a context manager (``with tracer.span("x")``)
plus a decorator (:func:`traced`); the current span is tracked with
:mod:`contextvars` so nesting is correct across ``asyncio`` tasks and
plain threads that inherit a copied context.

Disabled tracing is a different *type*, not a flag check per field:
:data:`NULL_TRACER` returns one shared no-op context manager from
``span()``, so an un-traced closure pays a single attribute lookup and
nothing else.

:func:`stopwatch` is the one timer primitive — every former ad-hoc
``time.perf_counter()`` pair in closure, the query service, and the
bench harness now goes through it.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager

from .. import settings

__all__ = [
    "NULL_TRACER",
    "MemorySink",
    "Span",
    "Stopwatch",
    "TraceFileSink",
    "Tracer",
    "configure_tracing",
    "get_tracer",
    "reset_tracing",
    "stopwatch",
    "traced",
]


# --------------------------------------------------------------------------
# Timer primitive


class Stopwatch:
    """A ``perf_counter`` pair as a context manager.

    ``with stopwatch() as sw: ...`` then ``sw.elapsed`` — or read
    ``sw.elapsed`` mid-flight for a running total.
    """

    __slots__ = ("_t0", "_elapsed")

    def __init__(self) -> None:
        self._t0 = time.perf_counter()
        self._elapsed: "float | None" = None

    def __enter__(self) -> "Stopwatch":
        self._t0 = time.perf_counter()
        self._elapsed = None
        return self

    def __exit__(self, *exc) -> bool:
        self._elapsed = time.perf_counter() - self._t0
        return False

    def restart(self) -> None:
        self._t0 = time.perf_counter()
        self._elapsed = None

    @property
    def elapsed(self) -> float:
        if self._elapsed is not None:
            return self._elapsed
        return time.perf_counter() - self._t0


def stopwatch() -> Stopwatch:
    """A fresh (already ticking) :class:`Stopwatch`."""
    return Stopwatch()


# --------------------------------------------------------------------------
# Spans


class Span:
    """One timed interval in a trace tree."""

    __slots__ = ("name", "trace_id", "span_id", "parent_id", "attrs",
                 "ts", "_t0", "dur_s")

    def __init__(self, name: str, trace_id: str, span_id: str,
                 parent_id: "str | None", attrs: dict):
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs = attrs
        self.ts = time.time()
        self._t0 = time.perf_counter()
        self.dur_s: "float | None" = None

    def set(self, key: str, value) -> None:
        """Attach/overwrite one attribute on the live span."""
        self.attrs[key] = value

    def backdate(self, seconds: float) -> None:
        """Start the span *seconds* earlier: for work that began before
        the span could be named (a request timed from its arrival)."""
        self.ts -= seconds
        self._t0 -= seconds

    def finish(self) -> dict:
        self.dur_s = time.perf_counter() - self._t0
        return self.record()

    def record(self) -> dict:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "ts": self.ts,
            "dur_s": self.dur_s,
            "attrs": self.attrs,
        }


class _NullSpan:
    """The span handed out when tracing is off: attribute writes vanish."""

    __slots__ = ()
    name = trace_id = span_id = parent_id = None
    dur_s = None
    attrs: dict = {}

    def set(self, key: str, value) -> None:
        pass

    def backdate(self, seconds: float) -> None:
        pass


NULL_SPAN = _NullSpan()


class _NullSpanContext:
    """One shared, re-entrant no-op context manager — the entire cost of
    an instrumented call site when tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return NULL_SPAN

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN_CONTEXT = _NullSpanContext()


# --------------------------------------------------------------------------
# Sinks


class MemorySink:
    """Buffers records in memory until :meth:`drain` takes them."""

    def __init__(self) -> None:
        self._records: list[dict] = []
        self._lock = threading.Lock()

    def write(self, record: dict) -> None:
        with self._lock:
            self._records.append(record)

    def drain(self) -> "list[dict]":
        with self._lock:
            records, self._records = self._records, []
        return records

    def close(self) -> None:
        pass


class TraceFileSink:
    """Append-only JSONL trace sink with size-based rotation.

    When the file exceeds ``max_bytes`` it is renamed to ``<path>.1``
    (replacing any previous rotation) and a fresh file is started, so a
    long-running server keeps at most two generations on disk.
    """

    def __init__(self, path: str, max_bytes: int = 64 * 1024 * 1024):
        self.path = os.fspath(path)
        self.max_bytes = int(max_bytes)
        self._lock = threading.Lock()
        self._file = open(self.path, "a", encoding="utf-8")
        self._size = self._file.tell()

    def write(self, record: dict) -> None:
        line = json.dumps(record, sort_keys=True,
                          separators=(",", ":")) + "\n"
        with self._lock:
            if self._size and self._size + len(line) > self.max_bytes:
                self._rotate()
            self._file.write(line)
            self._file.flush()
            self._size += len(line)

    def _rotate(self) -> None:
        self._file.close()
        os.replace(self.path, self.path + ".1")
        self._file = open(self.path, "a", encoding="utf-8")
        self._size = 0

    def close(self) -> None:
        with self._lock:
            self._file.close()


# --------------------------------------------------------------------------
# Tracer


class Tracer:
    """Produces nested spans and emits their records to a sink."""

    enabled = True

    def __init__(self, sink=None):
        self.sink = sink
        self._current = contextvars.ContextVar("repro_obs_span",
                                               default=None)
        # itertools.count.__next__ is atomic under the GIL; the pid
        # component keeps ids distinct across processes that share a
        # trace file.
        self._ids = itertools.count()
        self._pid = os.getpid()
        self._collectors: list[list] = []
        self._collect_lock = threading.Lock()

    # -- id plumbing ------------------------------------------------------

    def _next_id(self) -> str:
        return f"{self._pid:x}.{next(self._ids):x}"

    # -- span lifecycle ---------------------------------------------------

    @contextmanager
    def span(self, name: str, **attrs):
        """Open a child of the current span; a span without a parent
        starts a new trace."""
        current = self._current.get()
        if current is not None:
            trace_id, parent_id = current.trace_id, current.span_id
        else:
            trace_id, parent_id = self._next_id(), None
        span = Span(name, trace_id, self._next_id(), parent_id, attrs)
        token = self._current.set(span)
        try:
            yield span
        finally:
            self._current.reset(token)
            self._emit(span.finish())

    def _emit(self, record: dict) -> None:
        if self.sink is not None:
            self.sink.write(record)
        if self._collectors:
            with self._collect_lock:
                for buffer in self._collectors:
                    buffer.append(record)

    @contextmanager
    def collect(self):
        """Capture every record finished anywhere while the block is
        active (all threads).  Yields the live list; filter by
        ``trace_id`` to isolate one request's tree — concurrent
        requests interleave."""
        buffer: list[dict] = []
        with self._collect_lock:
            self._collectors.append(buffer)
        try:
            yield buffer
        finally:
            with self._collect_lock:
                self._collectors.remove(buffer)


class _NullTracer(Tracer):
    """Tracing disabled: every operation is a constant-time no-op."""

    enabled = False

    def __init__(self) -> None:
        super().__init__(sink=None)

    def span(self, name: str, **attrs):
        return _NULL_SPAN_CONTEXT


NULL_TRACER = _NullTracer()


# --------------------------------------------------------------------------
# Global wiring


_GLOBAL_TRACER: "Tracer | None" = None
_GLOBAL_LOCK = threading.Lock()


def configure_tracing(trace_file: "str | None" = None,
                      sink=None,
                      enabled: "bool | None" = None) -> Tracer:
    """Install the process-wide tracer explicitly.

    * ``trace_file`` — rotate-on-size JSONL sink at that path;
    * ``sink`` — any object with ``write(record)`` (overrides
      ``trace_file``);
    * ``enabled=True`` with neither — spans run live (so ``collect()``
      and the slow-query log see trees) but nothing persists;
    * ``enabled=False`` — force :data:`NULL_TRACER`.
    """
    global _GLOBAL_TRACER
    with _GLOBAL_LOCK:
        if enabled is False:
            _GLOBAL_TRACER = NULL_TRACER
        elif sink is not None:
            _GLOBAL_TRACER = Tracer(sink)
        elif trace_file:
            _GLOBAL_TRACER = Tracer(TraceFileSink(trace_file))
        elif enabled:
            _GLOBAL_TRACER = Tracer(None)
        else:
            _GLOBAL_TRACER = NULL_TRACER
        return _GLOBAL_TRACER


def get_tracer() -> Tracer:
    """The process-wide tracer; the first call reads
    :func:`repro.settings.trace_file`, later calls are a plain read."""
    global _GLOBAL_TRACER
    tracer = _GLOBAL_TRACER
    if tracer is not None:
        return tracer
    with _GLOBAL_LOCK:
        if _GLOBAL_TRACER is None:
            path = settings.trace_file()
            _GLOBAL_TRACER = (Tracer(TraceFileSink(path)) if path
                              else NULL_TRACER)
        return _GLOBAL_TRACER


def reset_tracing() -> None:
    """Drop the installed tracer; the next :func:`get_tracer` re-reads
    the environment.  Test isolation goes through this."""
    global _GLOBAL_TRACER
    with _GLOBAL_LOCK:
        old, _GLOBAL_TRACER = _GLOBAL_TRACER, None
    if old is not None and old is not NULL_TRACER \
            and old.sink is not None and hasattr(old.sink, "close"):
        old.sink.close()


def traced(name: "str | None" = None, **attrs):
    """Decorator form: run the function inside a span named after it
    (or ``name``), resolved against the global tracer at call time."""
    def decorate(func):
        span_name = name or func.__qualname__

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            tracer = get_tracer()
            if not tracer.enabled:
                return func(*args, **kwargs)
            with tracer.span(span_name, **attrs):
                return func(*args, **kwargs)

        return wrapper
    return decorate
