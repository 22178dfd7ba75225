"""Metrics registry: counters, gauges, histogram bucket math, the
Prometheus text exposition, and registry get-or-create semantics."""

from __future__ import annotations

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    render_prometheus,
    reset_metrics,
)


class TestCounter:
    def test_inc_and_value(self):
        counter = Counter("c", "help")
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == 3.5

    def test_labelled_series_are_independent(self):
        counter = Counter("c", "help", ("op",))
        counter.inc(op="query")
        counter.inc(3, op="update")
        assert counter.value(op="query") == 1
        assert counter.value(op="update") == 3
        assert counter.value(op="ping") == 0

    def test_counters_only_go_up(self):
        with pytest.raises(ValueError):
            Counter("c", "help").inc(-1)

    def test_label_mismatch_rejected(self):
        counter = Counter("c", "help", ("op",))
        with pytest.raises(ValueError):
            counter.inc(wrong="x")
        with pytest.raises(ValueError):
            counter.inc()


class TestGauge:
    def test_set_inc(self):
        gauge = Gauge("g", "help")
        gauge.set(10)
        gauge.inc(5)
        gauge.inc(-3)
        assert gauge.value() == 12


class TestHistogramBucketMath:
    def test_bucket_assignment_is_first_upper_bound_at_or_above(self):
        histogram = Histogram("h", "help", buckets=(1, 2, 4))
        for value in (0.5, 1.0, 1.5, 4.0, 99.0):
            histogram.observe(value)
        # Raw (non-cumulative) counts: le=1 gets 0.5 and 1.0; le=2 gets
        # 1.5; le=4 gets 4.0; +Inf gets 99.0.
        samples = dict(((name, key), value)
                       for name, key, value in histogram.samples())
        assert samples[("h_bucket", ("1",))] == 2           # cumulative
        assert samples[("h_bucket", ("2",))] == 3
        assert samples[("h_bucket", ("4",))] == 4
        assert samples[("h_bucket", ("+Inf",))] == 5
        assert samples[("h_count", ())] == 5
        assert samples[("h_sum", ())] == pytest.approx(106.0)

    def test_count_and_sum_accessors(self):
        histogram = Histogram("h", "help", ("k",), buckets=(1, 10))
        histogram.observe(0.5, k="a")
        histogram.observe(5, k="a")
        assert histogram.count(k="a") == 2
        assert histogram.sum(k="a") == pytest.approx(5.5)
        assert histogram.count(k="b") == 0

    def test_quantile_interpolates_within_bucket(self):
        histogram = Histogram("h", "help", buckets=(10, 20))
        for _ in range(10):
            histogram.observe(15)  # all land in the (10, 20] bucket
        # Rank q*10 observations into a bucket spanning 10..20: the
        # interpolated quantile moves linearly across the bucket.
        assert histogram.quantile(0.0) == pytest.approx(10.0)
        assert histogram.quantile(0.5) == pytest.approx(15.0)
        assert histogram.quantile(1.0) == pytest.approx(20.0)

    def test_quantile_clamps_inf_bucket_and_handles_empty(self):
        histogram = Histogram("h", "help", buckets=(1, 2))
        assert histogram.quantile(0.5) is None
        histogram.observe(1000)
        assert histogram.quantile(0.99) == pytest.approx(2.0)

    def test_quantile_range_checked(self):
        with pytest.raises(ValueError):
            Histogram("h", "help", buckets=(1,)).quantile(1.5)

    def test_bucket_bounds_must_increase(self):
        with pytest.raises(ValueError):
            Histogram("h", "help", buckets=(1, 1))
        with pytest.raises(ValueError):
            Histogram("h", "help", buckets=())


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("requests", "help", ("op",))
        again = registry.counter("requests", "different help", ("op",))
        assert first is again

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x", "help")
        with pytest.raises(ValueError):
            registry.gauge("x", "help")

    def test_label_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x", "help", ("a",))
        with pytest.raises(ValueError):
            registry.counter("x", "help", ("b",))

    def test_reset_swaps_default_registry(self):
        before = get_registry()
        before.counter("leftover", "x").inc()
        after = reset_metrics()
        assert get_registry() is after
        assert after is not before
        assert after.get("leftover") is None

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("c", "help", ("op",)).inc(op="query")
        snapshot = registry.snapshot()
        assert snapshot["c"]["kind"] == "counter"
        assert snapshot["c"]["samples"] == [["c", ["query"], 1]]


class TestPrometheusRendering:
    def test_golden_exposition(self):
        registry = MetricsRegistry()
        registry.counter("repro_requests_total", "Requests handled",
                         ("op",)).inc(3, op="query")
        registry.gauge("repro_lag", "Replay lag").set(2)
        histogram = registry.histogram("repro_seconds", "Latency",
                                       buckets=(0.5, 1))
        histogram.observe(0.25)
        histogram.observe(0.75)
        histogram.observe(5)
        assert render_prometheus(registry) == (
            "# HELP repro_lag Replay lag\n"
            "# TYPE repro_lag gauge\n"
            "repro_lag 2\n"
            "# HELP repro_requests_total Requests handled\n"
            "# TYPE repro_requests_total counter\n"
            'repro_requests_total{op="query"} 3\n'
            "# HELP repro_seconds Latency\n"
            "# TYPE repro_seconds histogram\n"
            'repro_seconds_bucket{le="0.5"} 1\n'
            'repro_seconds_bucket{le="1"} 2\n'
            'repro_seconds_bucket{le="+Inf"} 3\n'
            "repro_seconds_sum 6\n"
            "repro_seconds_count 3\n"
        )

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c", "h", ("v",)).inc(v='say "hi"\nplease\\now')
        text = render_prometheus(registry)
        assert 'v="say \\"hi\\"\\nplease\\\\now"' in text
