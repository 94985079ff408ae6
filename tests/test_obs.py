"""Unit tests for the observability substrate (:mod:`repro.obs`)."""

import json

import pytest

from repro.obs import (
    NULL_OBSERVER,
    MetricsRegistry,
    NullObserver,
    Observer,
    TraceRecorder,
    detection_latencies,
    format_span_table,
    probe_spans,
    window_rates,
)
from repro.obs.metrics import family_name, series_key
from repro.sim.kernel import Simulator
from trace_helpers import read_jsonl


class TestTraceRecorder:
    def test_record_and_read_back(self):
        trace = TraceRecorder(capacity=8)
        trace.record(1.0, "probe.sent", "sw0", 1, {"nonce": 7})
        trace.record(1.5, "probe.confirmed", "sw0", 1, {})
        assert len(trace) == 2
        assert trace.emitted == 2
        assert trace.dropped == 0
        sent = trace.events("probe.sent")
        assert len(sent) == 1
        assert sent[0].ts == 1.0
        assert sent[0].args == {"nonce": 7}

    def test_ring_bound_evicts_oldest(self):
        trace = TraceRecorder(capacity=3)
        for i in range(10):
            trace.record(float(i), "tick", None, None, {"i": i})
        assert len(trace) == 3
        assert trace.emitted == 10
        assert trace.dropped == 7
        assert [e.args["i"] for e in trace] == [7, 8, 9]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            TraceRecorder(capacity=0)

    def test_jsonl_round_trip(self, tmp_path):
        trace = TraceRecorder()
        trace.record(0.5, "alarm.raised", "sw1", 3, {"kind": "missing"})
        trace.record(0.75, "failure.injected", None, None,
                     {"nodes": ["'sw1'"], "cookies": {9, 4}})
        path = str(tmp_path / "trace.jsonl")
        assert trace.export_jsonl(path) == 2
        rows = read_jsonl(path)
        assert rows == trace.to_dicts()
        assert rows[0]["type"] == "alarm.raised"
        assert rows[0]["node"] == "'sw1'"
        assert rows[0]["span"] == 3
        # Sets are serialized as sorted lists.
        assert rows[1]["args"]["cookies"] == [4, 9]

    def test_chrome_export_structure(self, tmp_path):
        trace = TraceRecorder()
        trace.record(0.001, "probe.sent", "sw0", 1, {})
        trace.record(0.003, "probe.confirmed", "sw0", 1, {})
        trace.record(0.004, "flowmod.observed", "sw0", None, {})
        path = str(tmp_path / "trace.json")
        assert trace.export_chrome(path) == 3
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        events = payload["traceEvents"]
        phases = [e["ph"] for e in events]
        # One process-name meta, three instants, one completed slice.
        assert phases.count("M") == 1
        assert phases.count("i") == 3
        slices = [e for e in events if e["ph"] == "X"]
        assert len(slices) == 1
        assert slices[0]["tid"] == 1
        assert slices[0]["dur"] == pytest.approx(2000.0)  # 2ms in us

    def test_non_jsonable_args_fall_back_to_repr(self, tmp_path):
        trace = TraceRecorder()
        trace.record(0.0, "x", None, None, {"obj": object()})
        path = str(tmp_path / "t.jsonl")
        trace.export_jsonl(path)
        (row,) = read_jsonl(path)
        assert row["args"]["obj"].startswith("<object object")


class TestMetricsRegistry:
    def test_counter_get_or_create(self):
        registry = MetricsRegistry()
        c1 = registry.counter("probes_total", node="sw0")
        c1.inc()
        c1.inc(2)
        assert registry.counter("probes_total", node="sw0") is c1
        assert c1.value == 3
        # Different labels are a different series.
        assert registry.counter("probes_total", node="sw1") is not c1

    def test_counter_rejects_decrease(self):
        with pytest.raises(ValueError, match="up"):
            MetricsRegistry().counter("c").inc(-1)

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("latency")
        with pytest.raises(ValueError, match="counter"):
            registry.gauge("latency")

    def test_gauge(self):
        gauge = MetricsRegistry().gauge("outstanding")
        gauge.set(4)
        assert gauge.value == 4
        gauge.set(3)
        assert gauge.value == 3

    def test_histogram_buckets(self):
        hist = MetricsRegistry().histogram("h", buckets=(0.01, 0.1, 1.0))
        for value in (0.005, 0.05, 0.05, 0.5):
            hist.observe(value)
        assert hist.count == 4
        assert hist.sum == pytest.approx(0.605)
        assert hist.cumulative() == [(0.01, 1), (0.1, 3), (1.0, 4)]

    def test_histogram_reset_forgets_observations(self):
        hist = MetricsRegistry().histogram("h", buckets=(0.01, 0.1))
        hist.observe(0.05)
        hist.reset()
        assert (hist.count, hist.sum) == (0, 0.0)
        assert hist.cumulative() == [(0.01, 0), (0.1, 0)]

    def test_snapshot_at_same_ts_supersedes(self):
        registry = MetricsRegistry()
        counter = registry.counter("probes_total")
        registry.snapshot(1.0)
        counter.inc()
        registry.snapshot(1.0)
        registry.snapshot(2.0)
        assert [
            (snap["ts"], snap["counters"]["probes_total"])
            for snap in registry.snapshots
        ] == [(1.0, 1.0), (2.0, 1.0)]

    def test_prometheus_text(self):
        registry = MetricsRegistry()
        registry.counter("probes_total", node="sw0").inc(5)
        registry.gauge("outstanding").set(2)
        registry.histogram("wire", buckets=(0.1,)).observe(0.05)
        text = registry.prometheus_text()
        assert "# TYPE probes_total counter" in text
        assert 'probes_total{node="sw0"} 5' in text
        assert "outstanding 2" in text
        assert 'wire_bucket{le="0.1"} 1' in text
        assert 'wire_bucket{le="+Inf"} 1' in text
        assert "wire_count 1" in text

    def test_collect_hook_runs_before_snapshot(self):
        registry = MetricsRegistry()
        state = {"value": 0}
        registry.add_collect_hook(
            lambda: registry.gauge("live").set(state["value"])
        )
        state["value"] = 7
        snap = registry.snapshot(1.0)
        assert snap["gauges"]["live"] == 7

    def test_snapshots_and_window_rates(self):
        registry = MetricsRegistry()
        counter = registry.counter("probes_total", node="sw0")
        registry.snapshot(0.0)
        counter.inc(10)
        registry.snapshot(1.0)
        counter.inc(30)
        registry.snapshot(2.0)
        rates = window_rates(registry.snapshots, "probes_total")
        assert rates == [(1.0, 10.0), (2.0, 30.0)]

    def test_series_key_helpers(self):
        key = series_key("m", (("node", "sw0"),))
        assert key == 'm{node="sw0"}'
        assert family_name(key) == "m"
        assert family_name("bare") == "bare"


class TestObserver:
    def test_spans_are_unique_and_monotonic(self):
        obs = Observer()
        assert obs.enabled
        assert [obs.next_span() for _ in range(3)] == [1, 2, 3]

    def test_emit_stamps_bound_clock(self):
        obs = Observer()
        now = {"t": 4.25}
        obs.bind_clock(lambda: now["t"])
        obs.emit("probe.sent", node="sw0", span=1, nonce=9)
        (event,) = obs.trace.events()
        assert event.ts == 4.25
        assert event.args == {"nonce": 9}

    def test_install_paces_snapshots_by_sim_time(self):
        sim = Simulator()
        obs = Observer(snapshot_interval=0.5)
        obs.install(sim)
        counter = obs.metrics.counter("ticks")
        for i in range(10):
            sim.schedule(0.2 * (i + 1), counter.inc)
        sim.run(until=2.0)
        # Snapshots at 0.0, 0.5, 1.0, 1.5, 2.0 boundaries.
        times = [snap["ts"] for snap in obs.metrics.snapshots]
        assert times == [0.0, 0.5, 1.0, 1.5, 2.0]

    def test_negative_snapshot_interval_rejected(self):
        with pytest.raises(ValueError, match="snapshot_interval"):
            Observer(snapshot_interval=-1.0)

    def test_null_observer_is_inert(self):
        null = NullObserver()
        assert not null.enabled
        assert null.next_span() == 0
        null.emit("probe.sent", node="sw0", span=1)
        assert len(null.trace) == 0
        null.metrics.counter("x").inc()
        null.metrics.histogram("h").observe(1.0)
        assert null.metrics.prometheus_text() == ""
        null.install(object())
        assert null.snapshot_now()["counters"] == {}
        assert NULL_OBSERVER.enabled is False


def _event(ts, etype, node=None, span=None, **args):
    return {"ts": ts, "type": etype, "node": node, "span": span,
            "args": args}


class TestAnalyze:
    def test_probe_span_stitching(self):
        events = [
            _event(1.0, "probe.generated", "'sw0'", 1, priority=100,
                   match="Match()", cookie=7, source="solve",
                   solve_seconds=0.002, wait_seconds=0.01),
            _event(1.001, "probe.sent", "'sw0'", 1, nonce=5),
            _event(1.05, "probe.sent", "'sw0'", 1, nonce=5),  # retry
            _event(1.2, "probe.timeout", "'sw0'", 1, nonce=5),
            _event(1.2, "alarm.raised", "'sw0'", 1, kind="missing",
                   cookie=7),
        ]
        spans = probe_spans(events)
        assert set(spans) == {1}
        span = spans[1]
        assert span.source == "solve"
        assert span.solve_seconds == 0.002
        assert span.wait_seconds == 0.01
        assert span.injections == 2
        assert span.first_sent_at == 1.001
        assert span.wire_seconds == pytest.approx(0.199)
        assert span.outcome == "alarm:missing"
        assert span.cookie == 7

    def test_in_flight_and_confirmed_outcomes(self):
        confirmed = probe_spans(
            [
                _event(0.0, "probe.sent", "'a'", 1),
                _event(0.1, "probe.confirmed", "'a'", 1),
                _event(0.2, "probe.sent", "'a'", 2),
            ]
        )
        assert confirmed[1].outcome == "confirmed"
        assert confirmed[1].wire_seconds == pytest.approx(0.1)
        assert confirmed[2].outcome == "in-flight"
        assert confirmed[2].wire_seconds is None

    def test_detection_latency_takes_earliest_matching_alarm(self):
        events = [
            _event(1.0, "failure.injected", kind="rule_drop",
                   nodes=["'sw0'"], cookies=[7]),
            # Wrong node, wrong cookie, too early: all ignored.
            _event(1.1, "alarm.raised", "'sw1'", 10, kind="missing",
                   cookie=7),
            _event(1.2, "alarm.raised", "'sw0'", 11, kind="missing",
                   cookie=8),
            _event(0.5, "alarm.raised", "'sw0'", 12, kind="missing",
                   cookie=7),
            # The detection, then a later duplicate that must not win.
            _event(1.4, "alarm.raised", "'sw0'", 13, kind="missing",
                   cookie=7),
            _event(1.9, "alarm.raised", "'sw0'", 14, kind="missing",
                   cookie=7),
        ]
        (record,) = detection_latencies(events)
        assert record.detected_at == 1.4
        assert record.latency == pytest.approx(0.4)
        assert record.detected_on == "'sw0'"
        assert record.alarm_kind == "missing"

    def test_undetected_injection(self):
        (record,) = detection_latencies(
            [_event(1.0, "failure.injected", kind="link_down",
                    nodes=["'sw0'"], cookies=[1])]
        )
        assert record.detected_at is None
        assert record.latency is None

    def test_span_table_renders(self):
        spans = probe_spans(
            [
                _event(0.0, "probe.generated", "'sw0'", 1, source="cache"),
                _event(0.001, "probe.sent", "'sw0'", 1),
                _event(0.002, "probe.confirmed", "'sw0'", 1),
            ]
        )
        table = format_span_table(spans.values())
        assert "solve ms" in table
        assert "cache" in table
        assert "confirmed" in table
        assert format_span_table([], limit=3).count("\n") == 1
