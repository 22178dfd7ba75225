"""Metrics registry: counters, gauges, fixed-bucket histograms.

One process-wide :class:`MetricsRegistry` (:func:`get_registry`) that
every layer publishes into instead of reinventing capture — closure
rounds and multiplications, tile fire/skip/spill/reload traffic,
resident bytes vs budget, cache hits per semantics, batch occupancy,
tick latency, WAL appends/fsyncs, replica replay lag, and per-request
server latency all land here under stable names (see the README's
metric catalogue).

Design constraints, in order:

* **dependency-free and cheap** — an increment is a lock + dict update;
  there is no background thread, no I/O, and recording never raises
  into the instrumented code path;
* **Prometheus-renderable** — :func:`render_prometheus` produces the
  text exposition format (``# HELP`` / ``# TYPE`` + samples, histogram
  ``_bucket``/``_sum``/``_count`` series with cumulative ``le``
  labels), which is what the ``metrics`` wire op and the
  ``serve --metrics-addr`` scrape endpoint return;
* **non-semantic** — metrics observe, they never influence a
  computation; the trace-on/off differential tests hold with the
  registry active because nothing reads it on a query path.

Histograms use *fixed* buckets chosen at creation
(:data:`DEFAULT_LATENCY_BUCKETS` suits seconds-scale latencies) and
support quantile estimation by linear interpolation inside the bucket —
good enough for p50/p95/p99 serving dashboards without storing samples.
"""

from __future__ import annotations

import math
import threading
from typing import Iterable

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "get_registry",
    "render_prometheus",
    "reset_metrics",
]

#: Default histogram bucket upper bounds (seconds): half-millisecond to
#: ten-second latencies, roughly logarithmic.  ``+Inf`` is implicit.
DEFAULT_LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Default buckets for dimensionless size-ish histograms (counts of
#: entries, rows, tiles): powers of four from 1 to ~1M.
DEFAULT_SIZE_BUCKETS = (
    1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1048576,
)


def _label_key(label_names: tuple, labels: dict) -> tuple:
    """The storage key for one labelled series, in declared order."""
    if set(labels) != set(label_names):
        raise ValueError(
            f"labels {sorted(labels)} do not match declared "
            f"{sorted(label_names)}"
        )
    return tuple(str(labels[name]) for name in label_names)


class _Metric:
    """Shared shape: a named, labelled family of series."""

    kind = "untyped"

    def __init__(self, name: str, help: str, label_names: tuple = ()):
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        self._lock = threading.Lock()

    def _key(self, labels: dict) -> tuple:
        return _label_key(self.label_names, labels)


class Counter(_Metric):
    """A monotonically increasing counter (per label set)."""

    kind = "counter"

    def __init__(self, name: str, help: str, label_names: tuple = ()):
        super().__init__(name, help, label_names)
        self._values: dict[tuple, float] = {}

    def inc(self, amount: float = 1, **labels) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels) -> float:
        with self._lock:
            return self._values.get(self._key(labels), 0)

    def samples(self) -> "list[tuple[str, tuple, float]]":
        with self._lock:
            return [(self.name, key, value)
                    for key, value in sorted(self._values.items())]


class Gauge(_Metric):
    """A value that can go up and down (per label set)."""

    kind = "gauge"

    def __init__(self, name: str, help: str, label_names: tuple = ()):
        super().__init__(name, help, label_names)
        self._values: dict[tuple, float] = {}

    def set(self, value: float, **labels) -> None:
        with self._lock:
            self._values[self._key(labels)] = value

    def inc(self, amount: float = 1, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels) -> float:
        with self._lock:
            return self._values.get(self._key(labels), 0)

    def samples(self) -> "list[tuple[str, tuple, float]]":
        with self._lock:
            return [(self.name, key, value)
                    for key, value in sorted(self._values.items())]


class _HistogramSeries:
    __slots__ = ("bucket_counts", "total", "count")

    def __init__(self, n_buckets: int):
        self.bucket_counts = [0] * (n_buckets + 1)  # + the +Inf bucket
        self.total = 0.0
        self.count = 0


class Histogram(_Metric):
    """A fixed-bucket histogram (per label set).

    ``observe(v)`` increments the first bucket whose upper bound is
    ≥ v (cumulative rendering happens at exposition time, matching the
    Prometheus convention), plus ``_sum`` and ``_count``.
    ``quantile(q)`` estimates by linear interpolation within the
    selected bucket — exact at bucket edges, monotone in ``q``.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str, label_names: tuple = (),
                 buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS):
        super().__init__(name, help, label_names)
        bounds = tuple(sorted(float(bound) for bound in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("bucket bounds must be strictly increasing")
        self.buckets = bounds
        self._series: dict[tuple, _HistogramSeries] = {}

    def _get_series(self, key: tuple) -> _HistogramSeries:
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _HistogramSeries(len(self.buckets))
        return series

    def _bucket_index(self, value: float) -> int:
        # Linear scan beats bisect for the ~15-bucket families here and
        # stays allocation-free.
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                return index
        return len(self.buckets)  # +Inf

    def observe(self, value: float, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            series = self._get_series(key)
            series.bucket_counts[self._bucket_index(value)] += 1
            series.total += value
            series.count += 1

    def count(self, **labels) -> int:
        with self._lock:
            series = self._series.get(self._key(labels))
            return series.count if series is not None else 0

    def sum(self, **labels) -> float:
        with self._lock:
            series = self._series.get(self._key(labels))
            return series.total if series is not None else 0.0

    def quantile(self, q: float, **labels) -> "float | None":
        """Estimated q-quantile (0 ≤ q ≤ 1); None with no observations.
        Values in the +Inf bucket clamp to the largest finite bound."""
        if not 0 <= q <= 1:
            raise ValueError("quantile must be in [0, 1]")
        with self._lock:
            series = self._series.get(self._key(labels))
            if series is None or series.count == 0:
                return None
            rank = q * series.count
            cumulative = 0
            for index, in_bucket in enumerate(series.bucket_counts):
                if in_bucket == 0:
                    continue
                # The bucket's true bounds — empty buckets in between
                # must not stretch the interpolation base.
                lower = self.buckets[index - 1] if index > 0 else 0.0
                upper = (self.buckets[index]
                         if index < len(self.buckets) else self.buckets[-1])
                if cumulative + in_bucket >= rank:
                    if index >= len(self.buckets):
                        return upper
                    fraction = (rank - cumulative) / in_bucket
                    return lower + (upper - lower) * min(max(fraction, 0), 1)
                cumulative += in_bucket
            return self.buckets[-1]

    def samples(self) -> "list[tuple[str, tuple, float]]":
        """Exposition samples: cumulative ``_bucket`` series with ``le``
        labels, then ``_sum`` and ``_count``, per label set."""
        rendered: list[tuple[str, tuple, float]] = []
        with self._lock:
            for key in sorted(self._series):
                series = self._series[key]
                cumulative = 0
                for index, bound in enumerate(self.buckets):
                    cumulative += series.bucket_counts[index]
                    rendered.append((f"{self.name}_bucket",
                                     key + (_format_bound(bound),),
                                     cumulative))
                cumulative += series.bucket_counts[-1]
                rendered.append((f"{self.name}_bucket", key + ("+Inf",),
                                 cumulative))
                rendered.append((f"{self.name}_sum", key, series.total))
                rendered.append((f"{self.name}_count", key, series.count))
        return rendered


def _format_bound(bound: float) -> str:
    if bound == int(bound) and abs(bound) < 1e15:
        return str(int(bound))
    return repr(bound)


def _format_value(value: float) -> str:
    if isinstance(value, float) and math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if isinstance(value, float) and value == int(value) \
            and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value)) if isinstance(value, float) else str(value)


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"') \
        .replace("\n", "\\n")


class MetricsRegistry:
    """A named collection of metrics with get-or-create semantics.

    ``counter`` / ``gauge`` / ``histogram`` are idempotent: asking for
    an existing name returns the registered instance (and raises if the
    kind or labels disagree — a catalogue name means one thing).
    """

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, cls, name: str, help: str,
                       label_names: tuple, **kwargs):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls) \
                        or existing.label_names != tuple(label_names):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind} with labels "
                        f"{existing.label_names}"
                    )
                return existing
            metric = cls(name, help, label_names, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "",
                label_names: tuple = ()) -> Counter:
        return self._get_or_create(Counter, name, help, label_names)

    def gauge(self, name: str, help: str = "",
              label_names: tuple = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, label_names)

    def histogram(self, name: str, help: str = "",
                  label_names: tuple = (),
                  buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
                  ) -> Histogram:
        return self._get_or_create(Histogram, name, help, label_names,
                                   buckets=buckets)

    def get(self, name: str) -> "_Metric | None":
        with self._lock:
            return self._metrics.get(name)

    def metrics(self) -> "list[_Metric]":
        with self._lock:
            return [self._metrics[name] for name in sorted(self._metrics)]

    def snapshot(self) -> dict:
        """Plain-JSON view: ``{name: {kind, samples: [[labels...],
        value]}}`` — the machine-readable twin of the Prometheus text."""
        payload: dict = {}
        for metric in self.metrics():
            payload[metric.name] = {
                "kind": metric.kind,
                "labels": list(metric.label_names),
                "samples": [
                    [name, list(key), value]
                    for name, key, value in metric.samples()
                ],
            }
        return payload


def render_prometheus(registry: "MetricsRegistry | None" = None) -> str:
    """The registry in Prometheus text exposition format (version 0.0.4
    — what a ``GET /metrics`` scrape expects)."""
    registry = registry if registry is not None else get_registry()
    lines: list[str] = []
    for metric in registry.metrics():
        lines.append(f"# HELP {metric.name} {metric.help}")
        lines.append(f"# TYPE {metric.name} {metric.kind}")
        for sample_name, key, value in metric.samples():
            label_names = metric.label_names
            if sample_name.endswith("_bucket") \
                    and metric.kind == "histogram":
                label_names = metric.label_names + ("le",)
            if label_names and key:
                rendered = ",".join(
                    f'{name}="{_escape_label(str(part))}"'
                    for name, part in zip(label_names, key)
                )
                lines.append(
                    f"{sample_name}{{{rendered}}} {_format_value(value)}"
                )
            else:
                lines.append(f"{sample_name} {_format_value(value)}")
    return "\n".join(lines) + "\n"


_DEFAULT_REGISTRY = MetricsRegistry()
_REGISTRY_LOCK = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry every layer publishes into."""
    return _DEFAULT_REGISTRY


def reset_metrics() -> MetricsRegistry:
    """Swap in a fresh default registry (tests isolate through this) and
    return it."""
    global _DEFAULT_REGISTRY
    with _REGISTRY_LOCK:
        _DEFAULT_REGISTRY = MetricsRegistry()
        return _DEFAULT_REGISTRY
