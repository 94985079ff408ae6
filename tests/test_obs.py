"""Unit tests for the observability substrate (:mod:`repro.obs`)."""

import json

import pytest

from repro.obs import (
    NULL_OBSERVER,
    Histogram,
    NullObserver,
    Observer,
    TraceRecorder,
    detection_latencies,
    format_span_table,
    probe_spans,
    window_rates,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    family_name,
    prometheus_text,
    series_key,
    snapshot,
)
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
    """The histogram instrument and the two renderings of a series
    list: snapshots and the Prometheus text exposition."""

    def test_histogram_buckets(self):
        hist = Histogram()
        for value in (0.005, 0.05, 0.05, 0.5, 20.0):
            hist.observe(value)
        assert hist.count == 5
        assert hist.sum == pytest.approx(20.605)
        cumulative = dict(hist.cumulative())
        assert [cumulative[b] for b in (0.005, 0.05, 0.5, 10)] == [1, 3, 4, 4]
        # Value equality, so a metrics row holding one compares too.
        assert Histogram() == Histogram()
        assert hist != Histogram()

    def test_snapshot_at_same_ts_supersedes(self):
        obs = Observer()
        state = {"probes": 0}
        obs.install(
            Simulator(),
            lambda: [("counter", "probes_total", (), state["probes"])],
        )
        now = {"t": 1.0}
        obs.bind_clock(lambda: now["t"])
        obs.snapshot_now()
        state["probes"] = 1
        obs.snapshot_now()
        now["t"] = 2.0
        obs.snapshot_now()
        assert [
            (snap["ts"], snap["counters"]["probes_total"])
            for snap in obs.snapshots
        ] == [(1.0, 1.0), (2.0, 1.0)]

    def test_prometheus_text(self):
        wire = Histogram()
        wire.observe(0.05)
        wire.observe(0.0002)
        series = [
            ("gauge", "outstanding", (), 2.0),
            ("counter", "probes_total", (("node", "sw0"),), 5),
            ("counter", "probes_total", (("node", "sw1"),), 0),
            ("histogram", "wire", (("node", "sw0"),), wire),
        ]
        lines = prometheus_text(series).splitlines()
        assert lines[:5] == [
            "# TYPE outstanding gauge",
            "outstanding 2",
            "# TYPE probes_total counter",
            'probes_total{node="sw0"} 5',
            'probes_total{node="sw1"} 0',
        ]
        assert lines[5] == "# TYPE wire histogram"
        buckets = lines[6 : 6 + len(DEFAULT_BUCKETS) + 1]
        assert buckets[0] == 'wire_bucket{node="sw0",le="0.0001"} 0'
        assert buckets[1] == 'wire_bucket{node="sw0",le="0.00025"} 1'
        assert 'wire_bucket{node="sw0",le="0.05"} 2' in buckets
        assert buckets[-2] == 'wire_bucket{node="sw0",le="10"} 2'
        assert buckets[-1] == 'wire_bucket{node="sw0",le="+Inf"} 2'
        assert lines[-2:] == [
            'wire_sum{node="sw0"} 0.0502',
            'wire_count{node="sw0"} 2',
        ]
        assert prometheus_text([]) == ""

    def test_snapshots_and_window_rates(self):
        def probes(count):
            return [("counter", "probes_total", (("node", "sw0"),), count)]

        snapshots = [snapshot(0.0, probes(0)), snapshot(1.0, probes(10))]
        snapshots.append(snapshot(2.0, probes(40)))
        assert snapshots[1]["counters"] == {'probes_total{node="sw0"}': 10.0}
        rates = window_rates(snapshots, "probes_total")
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
        """A snapshot stamped t counts exactly the events at or before
        t: each is taken before the first event past it runs."""
        sim = Simulator()
        obs = Observer(snapshot_interval=0.5)
        ticks = []
        obs.install(sim, lambda: [("counter", "ticks", (), len(ticks))])
        for i in range(10):
            sim.schedule(0.2 * (i + 1), lambda: ticks.append(sim.now))
        sim.run(until=2.0)
        obs.snapshot_now()  # the run's end, as a fleet collect takes it
        assert [s["ts"] for s in obs.snapshots] == [0.0, 0.5, 1.0, 1.5, 2.0]
        ticks_at = [s["counters"]["ticks"] for s in obs.snapshots]
        assert ticks_at == [0, 2, 5, 7, 10]

    def test_negative_snapshot_interval_rejected(self):
        with pytest.raises(ValueError, match="snapshot_interval"):
            Observer(snapshot_interval=-1.0)

    def test_null_observer_is_inert(self):
        null = NullObserver()
        assert not null.enabled
        assert null.next_span() == 0
        null.emit("probe.sent", node="sw0", span=1)
        assert len(null.trace) == 0
        null.install(object(), tuple)
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
