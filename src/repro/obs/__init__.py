"""Unified observability: structured tracing, metrics, export.

Three dependency-free pillars, shared by every layer of the engine
(closure strategies, the spillable tile store, incremental DRed, the
replicated serving tier):

* :mod:`repro.obs.trace` — a :class:`Tracer` producing nested spans
  (context-manager + decorator API, contextvars-based so spans nest
  correctly across asyncio tasks and threads), a rotating JSONL sink (``REPRO_TRACE_FILE`` / ``--trace-file``), and the shared
  :func:`stopwatch` timer primitive that replaced the ad-hoc
  ``time.perf_counter`` call sites.
* :mod:`repro.obs.metrics` — a process-wide registry of counters,
  gauges and fixed-bucket histograms the per-layer stats dataclasses
  publish into, rendered in Prometheus text format.
* :mod:`repro.obs.export` — the HTTP scrape endpoint behind
  ``serve --metrics-addr`` and the ``metrics`` JSONL wire op.

Instrumentation is **zero-cost when disabled** (the null tracer's
``span`` returns a shared no-op context manager) and provably
non-semantic: closures are byte-identical with tracing on or off
(``tests/obs/test_trace_differential.py``).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".metrics": ("Counter", "Gauge", "Histogram", "MetricsRegistry",
                 "get_registry", "render_prometheus", "reset_metrics"),
    ".trace": ("NULL_TRACER", "Span", "Tracer", "configure_tracing",
               "get_tracer", "reset_tracing", "stopwatch", "traced"),
    ".summarize": ("summarize_trace", "render_summary"),
})
