"""The metrics registry, one behaviour at a time.

Counters/gauges/histograms (thread-safe, typed, labelled), the
fixed-exponential bucket ladder builder, lossless Prometheus-style text
exposition with escaped label values, and the sampled
row-width estimator whose zero-sample behaviour reproduces the
``NOMINAL_ROW_BYTES`` constant bit-for-bit (the PR 9 budget gate's
differential pin).
"""

import sys
import threading

import pytest

from repro.kleisli.governance import NOMINAL_ROW_BYTES
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    RowWidthEstimator,
    exponential_buckets,
)


class TestBucketLadder:
    def test_ladder_is_start_times_powers_of_growth(self):
        assert exponential_buckets(1.0, 2.0, 4) == (1.0, 2.0, 4.0, 8.0)

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            exponential_buckets(0.0, 2.0, 4)
        with pytest.raises(ValueError):
            exponential_buckets(1.0, 1.0, 4)
        with pytest.raises(ValueError):
            exponential_buckets(1.0, 2.0, 0)


class TestCounterAndGauge:
    def test_counter_accumulates_and_rejects_negative(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_sets_and_adds(self):
        gauge = Gauge("g")
        gauge.set(10)
        gauge.add(-3)
        assert gauge.value == 7

    @pytest.mark.parametrize("labels", [(), ("driver",)])
    def test_counter_is_thread_safe(self, labels):
        # More threads than cores and a short switch interval: a lost
        # update, or a series created twice for one label value, shows up
        # as a short total.
        counter = Counter("c", labels=labels)

        def work(i):
            for j in range(1000):
                values = [f"d{(i + j) % 3}"] if labels else []
                counter.labels(*values).inc()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,))
                       for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert sum(counter.values().values()) == 8000


class TestHistogram:
    def test_observations_land_in_le_buckets(self):
        h = Histogram("h", (1.0, 2.0, 4.0))
        for value in (0.5, 1.0, 1.5, 3.0, 100.0):
            h.observe(value)
        snap = h.snapshot()
        # le semantics: 0.5 and 1.0 <= 1.0; 1.5 <= 2.0; 3.0 <= 4.0; 100 overflows
        assert snap["counts"] == [2, 1, 1, 1]
        assert snap["count"] == 5
        assert snap["sum"] == pytest.approx(106.0)

    def test_merge_requires_identical_bounds(self):
        a = Histogram("h", (1.0, 2.0))
        b = Histogram("h", (1.0, 2.0))
        c = Histogram("h", (1.0, 3.0))
        a.observe(0.5)
        b.observe(5.0)
        a.merge(b)
        assert a.count == 2
        with pytest.raises(ValueError):
            a.merge(c)


class TestRegistry:
    def test_get_or_create_is_idempotent_and_kind_checked(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests", "help")
        assert registry.counter("requests") is counter
        with pytest.raises(ValueError):
            registry.gauge("requests")
        with pytest.raises(ValueError):
            registry.histogram("requests", (1.0,))

    def test_histogram_bounds_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.histogram("lat", (1.0, 2.0))
        with pytest.raises(ValueError):
            registry.histogram("lat", (1.0, 3.0))

    def test_render_is_prometheus_text(self):
        registry = MetricsRegistry()
        registry.counter("reqs_total", "Requests").inc(3)
        registry.histogram("lat_seconds", (0.1, 1.0), "Latency").observe(0.05)
        text = registry.render()
        assert "# TYPE reqs_total counter" in text
        assert "reqs_total 3" in text
        # cumulative le buckets, +Inf, _sum/_count
        assert 'lat_seconds_bucket{le="0.1"} 1' in text
        assert 'lat_seconds_bucket{le="1"} 1' in text
        assert 'lat_seconds_bucket{le="+Inf"} 1' in text
        assert "lat_seconds_count 1" in text
        assert text.endswith("\n")

    def test_render_is_lossless_for_large_and_fractional_values(self):
        registry = MetricsRegistry()
        registry.counter("big_total").inc(1234567)
        registry.counter("frac_total").inc(0.1 + 0.2)
        registry.histogram("bytes", (1024.0, 1048576.0)).observe(1048576)
        text = registry.render()
        assert "big_total 1234567\n" in text
        assert "frac_total 0.30000000000000004\n" in text
        assert 'bytes_bucket{le="1048576"} 1\n' in text
        assert "bytes_sum 1048576\n" in text
        assert "e+" not in text

    def test_labelled_families_render_one_sample_per_series(self):
        registry = MetricsRegistry()
        requests = registry.counter("reqs_total", "Requests", ("driver",))
        requests.labels("GDB").inc(2)
        requests.labels("GenBank").inc()
        latency = registry.histogram("lat_seconds", (0.5,), "Latency",
                                     ("driver",))
        latency.labels("GDB").observe(0.25)
        text = registry.render()
        assert 'reqs_total{driver="GDB"} 2\n' in text
        assert 'reqs_total{driver="GenBank"} 1\n' in text
        assert 'lat_seconds_bucket{driver="GDB",le="0.5"} 1\n' in text
        assert 'lat_seconds_bucket{driver="GDB",le="+Inf"} 1\n' in text
        assert 'lat_seconds_count{driver="GDB"} 1\n' in text
        assert requests.values() == {("GDB",): 2, ("GenBank",): 1}
        with pytest.raises(ValueError):
            requests.inc()              # a labelled family needs its labels
        with pytest.raises(ValueError):
            registry.counter("reqs_total", labels=("outcome",))

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("reqs_total", labels=("driver",)) \
            .labels('a"b\\c\nd').inc()
        assert 'reqs_total{driver="a\\"b\\\\c\\nd"} 1\n' \
            in registry.render()

    def test_snapshot_lists_every_metric(self):
        registry = MetricsRegistry()
        registry.counter("a")
        registry.gauge("b")
        registry.histogram("c", (1.0,))
        snap = registry.snapshot()
        assert set(snap) == {"a", "b", "c"}
        assert snap["c"]["kind"] == "histogram"


class TestRowWidthEstimator:
    def test_zero_samples_reproduce_the_constant_bit_for_bit(self):
        estimator = RowWidthEstimator(NOMINAL_ROW_BYTES)
        # Identity, not approximate equality: the PR 9 spill gate multiplies
        # by this value, so the zero-sample engine must plan bit-identically.
        assert estimator.row_bytes() == NOMINAL_ROW_BYTES

    def test_samples_move_the_width(self):
        estimator = RowWidthEstimator(NOMINAL_ROW_BYTES)
        estimator.observe(nbytes=1000, rows=10)
        assert estimator.row_bytes() == pytest.approx(100.0)
        estimator.observe(nbytes=1000, rows=10)
        assert estimator.row_bytes() == pytest.approx(100.0)

    def test_degenerate_samples_are_ignored(self):
        estimator = RowWidthEstimator(NOMINAL_ROW_BYTES)
        estimator.observe(nbytes=100, rows=0)
        estimator.observe(nbytes=-5, rows=3)
        assert estimator.row_bytes() == NOMINAL_ROW_BYTES

    def test_width_never_collapses_below_one_byte(self):
        estimator = RowWidthEstimator(NOMINAL_ROW_BYTES)
        estimator.observe(nbytes=1, rows=1000)
        assert estimator.row_bytes() == 1.0
