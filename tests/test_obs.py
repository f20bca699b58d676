"""Unit tests for the telemetry layer (repro.obs).

Covers the satellite edge cases called out for the observability subsystem:
exact log-bucket boundary and percentile arithmetic, thread-safety of
counters under concurrent increments (the pool-shard fill path), span-tree
shape and parenting, tail-based sampling decisions, Prometheus text
exposition, and the honest-miss accounting API on the LRU cache.
"""

from __future__ import annotations

import json
import math
import threading

import pytest

from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    InMemoryTraceSink,
    JsonLinesTraceSink,
    LabeledFamily,
    MetricsRegistry,
    Telemetry,
    Tracer,
)


# =================================================================== counters
class TestCounter:
    def test_increments_accumulate(self):
        counter = Counter("c_total", "help")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_negative_increment_rejected(self):
        counter = Counter("c_total", "help")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_concurrent_increments_from_threads(self):
        """8 threads x 10k increments land exactly.

        Instruments may be updated from several threads at once, so the
        counter's lock must make `inc` atomic; a torn read-modify-write
        would lose increments.
        """
        counter = Counter("c_total", "help")
        threads_n, per_thread = 8, 10_000

        def work():
            for _ in range(per_thread):
                counter.inc()

        threads = [threading.Thread(target=work) for _ in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == threads_n * per_thread

    def test_gauge_set_and_add(self):
        gauge = Gauge("g", "help")
        gauge.set(5)
        gauge.add(-2)
        assert gauge.value == 3


# ================================================================= histograms
class TestHistogram:
    def test_boundaries_are_log_spaced(self):
        hist = Histogram("h_seconds", "help", lowest=1e-4, growth=2.0, buckets=4)
        assert hist.boundaries == (1e-4, 2e-4, 4e-4, 8e-4)

    def test_exact_percentiles_on_known_distribution(self):
        """Percentile = upper boundary of the bucket holding rank ceil(q*N)."""
        hist = Histogram("h_seconds", "help", lowest=1e-4, growth=2.0, buckets=4)
        for value in (0.5e-4, 1.5e-4, 3e-4, 6e-4):
            hist.observe(value)
        # Ranks over N=4: p50 -> rank 2 -> second bucket (le 2e-4);
        # p95/p99 -> rank 4 -> fourth bucket (le 8e-4).
        assert hist.percentile(0.50) == pytest.approx(2e-4)
        assert hist.percentile(0.95) == pytest.approx(8e-4)
        assert hist.percentile(0.99) == pytest.approx(8e-4)

    def test_overflow_bucket_reports_inf(self):
        hist = Histogram("h_seconds", "help", lowest=1e-4, growth=2.0, buckets=4)
        hist.observe(1.0)  # beyond the largest boundary
        assert hist.percentile(0.5) == math.inf

    def test_empty_histogram(self):
        hist = Histogram("h_seconds", "help")
        snap = hist.snapshot()
        assert snap["count"] == 0
        assert snap["p50"] == 0.0

    def test_snapshot_tracks_sum_and_mean(self):
        hist = Histogram("h_seconds", "help", lowest=1e-4, growth=2.0, buckets=4)
        hist.observe(1e-4)
        hist.observe(3e-4)
        snap = hist.snapshot()
        assert snap["count"] == 2
        assert snap["sum"] == pytest.approx(4e-4)
        assert snap["mean"] == pytest.approx(2e-4)

    def test_cumulative_bucket_counts_end_at_total(self):
        hist = Histogram("h_seconds", "help", lowest=1e-4, growth=2.0, buckets=2)
        for value in (0.5e-4, 1.5e-4, 99.0):
            hist.observe(value)
        pairs = hist.bucket_counts()
        assert pairs[-1] == (math.inf, 3)
        cumulative = [count for _le, count in pairs]
        assert cumulative == sorted(cumulative)


# ============================================================ labeled families
class TestLabeledFamily:
    def test_children_are_cached_per_label_values(self):
        family = LabeledFamily("f_total", "help", ("shard",), lambda n: Counter(n, ""))
        a = family.labels(shard="0")
        assert family.labels(shard="0") is a
        assert family.labels(shard="1") is not a

    def test_label_names_must_match_exactly(self):
        family = LabeledFamily("f_total", "help", ("shard",), lambda n: Counter(n, ""))
        with pytest.raises(ValueError):
            family.labels(wrong="0")

    def test_snapshot_keyed_by_label_pairs(self):
        family = LabeledFamily("f_total", "help", ("api",), lambda n: Counter(n, ""))
        family.labels(api="recommend").inc(2)
        assert family.snapshot() == {"api=recommend": 2.0}


# =================================================================== registry
class TestMetricsRegistry:
    def test_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        assert registry.counter("a_total", "help") is registry.counter("a_total", "x")

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("a_total", "help")
        with pytest.raises(ValueError):
            registry.gauge("a_total", "help")

    def test_labeled_unlabeled_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("a_total", "help")
        with pytest.raises(ValueError):
            registry.counter("a_total", "help", labels=("shard",))

    def test_prometheus_rendering(self):
        registry = MetricsRegistry()
        registry.counter("req_total", "Requests", labels=("api",)).labels(
            api="recommend"
        ).inc(3)
        registry.gauge("live", "Live sessions").set(7)
        hist = registry.histogram("lat_seconds", "Latency")
        hist.observe(1e-4)
        text = registry.render_prometheus()
        assert '# TYPE req_total counter' in text
        assert 'req_total{api="recommend"} 3.0' in text
        assert "live 7.0" in text
        assert "# TYPE lat_seconds histogram" in text
        assert 'lat_seconds_bucket{le="+Inf"} 1' in text
        assert "lat_seconds_count 1" in text

    def test_prometheus_escapes_label_values(self):
        registry = MetricsRegistry()
        registry.counter("e_total", "help", labels=("msg",)).labels(
            msg='quote " and \\ slash'
        ).inc()
        text = registry.render_prometheus()
        assert 'msg="quote \\" and \\\\ slash"' in text

    def test_invalid_metric_name_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("bad-name", "help")


# ===================================================================== tracer
class TestTracer:
    def make(self, **kwargs) -> Tracer:
        kwargs.setdefault("slow_ms", 0.0)  # keep everything by default
        kwargs.setdefault("sample_every", 1)
        return Tracer(InMemoryTraceSink(), **kwargs)

    def test_span_tree_parenting(self):
        tracer = self.make()
        with tracer.span("root"):
            with tracer.span("child"):
                with tracer.span("grandchild"):
                    pass
            with tracer.span("sibling"):
                pass
        (trace,) = tracer.sink.drain()
        by_name = {s["name"]: s for s in trace["spans"]}
        assert by_name["root"]["parent_id"] is None
        assert by_name["child"]["parent_id"] == by_name["root"]["span_id"]
        assert by_name["grandchild"]["parent_id"] == by_name["child"]["span_id"]
        assert by_name["sibling"]["parent_id"] == by_name["root"]["span_id"]

    def test_trace_and_span_ids_are_deterministic(self):
        tracer = self.make()
        for _ in range(2):
            with tracer.span("root"):
                with tracer.span("child"):
                    pass
        first, second = tracer.sink.drain()
        assert first["trace_id"] == "t-000001"
        assert second["trace_id"] == "t-000002"
        assert [s["span_id"] for s in first["spans"]] == ["s-0001", "s-0002"]

    def test_record_child_backdates(self):
        tracer = self.make()
        with tracer.span("root"):
            span = tracer.record_child("fill", 0.25, worker_pid=1234)
            assert span.duration_seconds == 0.25
        (trace,) = tracer.sink.drain()
        fill = next(s for s in trace["spans"] if s["name"] == "fill")
        assert fill["attrs"]["worker_pid"] == 1234
        assert fill["duration_ms"] == 250.0

    def test_record_child_without_open_trace_is_noop(self):
        tracer = self.make()
        assert tracer.record_child("orphan", 0.1) is None

    def test_end_span_out_of_order_raises(self):
        tracer = self.make()
        outer = tracer.start_span("outer")
        tracer.start_span("inner")
        with pytest.raises(RuntimeError):
            tracer.end_span(outer)

    def test_error_status_and_keep(self):
        tracer = Tracer(InMemoryTraceSink(), slow_ms=1e9, sample_every=1000)
        with pytest.raises(KeyError):
            with tracer.span("root"):
                raise KeyError("boom")
        (trace,) = tracer.sink.drain()
        assert trace["kept_because"] == "error"
        assert trace["spans"][0]["status"] == "error"

    def test_sampling_keeps_every_nth(self):
        tracer = Tracer(InMemoryTraceSink(), slow_ms=1e9, sample_every=3)
        for _ in range(9):
            with tracer.span("root"):
                pass
        kept = tracer.sink.drain()
        assert len(kept) == 3
        assert all(t["kept_because"] == "sampled" for t in kept)
        assert tracer.traces_sampled_out == 6

    def test_slow_traces_always_kept(self):
        tracer = Tracer(InMemoryTraceSink(), slow_ms=0.0, sample_every=1000)
        with tracer.span("root"):
            pass
        (trace,) = tracer.sink.drain()
        assert trace["kept_because"] == "slow"

    def test_mark_keep_wins_over_sampling(self):
        tracer = Tracer(InMemoryTraceSink(), slow_ms=1e9, sample_every=1000)
        with tracer.span("root"):
            tracer.mark_keep()
        (trace,) = tracer.sink.drain()
        assert trace["kept_because"] == "alarm"

    def test_jsonl_sink_round_trip(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        sink = JsonLinesTraceSink(str(path))
        tracer = Tracer(sink, slow_ms=0.0, sample_every=1)
        with tracer.span("root", session_id="s1"):
            with tracer.span("child"):
                pass
        sink.close()
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1
        trace = json.loads(lines[0])
        assert trace["root"] == "root"
        assert [s["name"] for s in trace["spans"]] == ["root", "child"]


# ================================================================== telemetry
class TestTelemetry:
    def test_disabled_instance_spans_are_noops(self):
        telemetry = Telemetry.disabled()
        with telemetry.span("anything") as span:
            assert span is None
        telemetry.annotate(ignored=1)
        assert telemetry.record_child("x", 0.1) is None
        assert telemetry.drain_traces() == []

    def test_disabled_spans_share_one_context(self):
        assert Telemetry.disabled().span("a") is Telemetry.disabled().span("b")

    def test_alarms_count_even_when_disabled(self):
        telemetry = Telemetry.disabled()
        telemetry.alarm("replay_divergence", session_id="s1")
        assert telemetry.alarm_count("replay_divergence") == 1
        assert telemetry.drain_traces() == []  # no trace when disabled

    def test_alarm_inside_trace_pins_it(self):
        telemetry = Telemetry(slow_ms=1e9, sample_every=1000)
        with telemetry.span("root"):
            telemetry.alarm("dispatcher_shed", pending=8)
        (trace,) = telemetry.drain_traces()
        assert trace["kept_because"] == "alarm"
        names = [s["name"] for s in trace["spans"]]
        assert "alarm.dispatcher_shed" in names

    def test_alarm_outside_trace_emits_single_span_trace(self):
        telemetry = Telemetry(slow_ms=1e9, sample_every=1000)
        telemetry.alarm("worker_restart", backend="process")
        (trace,) = telemetry.drain_traces()
        assert trace["root"] == "alarm.worker_restart"
        assert trace["kept_because"] == "alarm"

    def test_observables_are_folded_in_sorted_order(self):
        telemetry = Telemetry()
        telemetry.register_observable("b", lambda: 2)
        telemetry.register_observable("a", lambda: 1)
        assert list(telemetry.observables()) == ["a", "b"]
