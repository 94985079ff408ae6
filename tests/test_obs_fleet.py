"""End-to-end observability on a live fleet.

The load-bearing property: the trace is *complete* — detection
latencies reconstructed purely from trace events (``failure.injected``
-> first attributable ``alarm.raised``) must equal the metrics layer's
:class:`~repro.fleet.metrics.DetectionRecord` latencies exactly, on a
fig4-style blackhole scenario with churn.  Plus: observability must
not perturb the simulation, the NullObserver default must stay inert,
and ``repro-fleet --json-out`` must round-trip the report's numbers.
"""

import dataclasses
import json
import re

import pytest

from repro.fleet import (
    ChannelDegradation,
    FlowModBlackhole,
    RuleChurn,
    RuleDrop,
    ScenarioSpec,
    collect_fleet_metrics,
    run_scenario,
)
from repro.fleet.metrics import (
    ShardMetrics,
    SwitchMetrics,
    merge_fleet_metrics,
    merge_obs_snapshots,
)
from repro.fleet.runner import main
from repro.obs.metrics import family_name
from repro.obs import (
    NULL_OBSERVER,
    detection_latencies,
    probe_spans,
)
from trace_helpers import read_jsonl


def _fig4_spec(**overrides):
    """Fig4-style: blackholed FlowMod amid healthy churn, dynamic mode."""
    base = dict(
        topology="ring",
        size=5,
        duration=2.0,
        seed=2015,
        rules_per_switch=10,
        probe_rate=200.0,
        dynamic=True,
        workloads=(RuleChurn(rate=15.0),),
        failures=(
            RuleDrop(at=0.5, node="sw0", rule_index=1),
            FlowModBlackhole(at=0.8, node="sw2"),
        ),
    )
    base.update(overrides)
    return ScenarioSpec(**base)


@pytest.fixture(scope="module")
def observed_run(tmp_path_factory):
    """One observed fig4-style run, trace exported to disk."""
    out = tmp_path_factory.mktemp("obs")
    spec = _fig4_spec(
        trace_out=str(out / "trace.jsonl"),
        trace_chrome=str(out / "trace.json"),
        metrics_out=str(out / "metrics.prom"),
        obs_snapshot_interval=0.25,
    )
    return run_scenario(spec)


class TestTraceMetricsConsistency:
    def test_scenario_detects_everything(self, observed_run):
        assert observed_run.metrics.all_detected
        assert not observed_run.metrics.false_alarms

    def test_trace_detections_equal_metrics_exactly(self, observed_run):
        """Trace-only replay == metrics path, byte for byte."""
        traced = detection_latencies(observed_run.observer.trace)
        records = observed_run.metrics.detections
        assert len(traced) == len(records) == 2
        for trace_det, record in zip(traced, records):
            assert trace_det.kind == record.injection.kind
            assert trace_det.injected_at == record.injection.time
            assert trace_det.detected_at == record.detected_at
            assert trace_det.latency == record.latency
            assert trace_det.detected_on == repr(record.detected_on)
            assert trace_det.alarm_kind == record.alarm_kind

    def test_jsonl_trace_replays_identically(self, observed_run):
        """The exported file carries the same completeness guarantee."""
        events = read_jsonl(observed_run.spec.trace_out)
        from_file = detection_latencies(events)
        in_memory = detection_latencies(observed_run.observer.trace)
        assert [d.latency for d in from_file] == [
            d.latency for d in in_memory
        ]
        assert probe_spans(events).keys() == probe_spans(
            observed_run.observer.trace
        ).keys()

    def test_trace_covers_every_probe(self, observed_run):
        """Span/event counts reconcile with the monitors' own counters."""
        trace = observed_run.observer.trace
        assert trace.dropped == 0, "ring bound must not truncate this run"
        metrics = observed_run.metrics
        sent = trace.events("probe.sent")
        assert len(sent) == metrics.probes_sent
        spans = probe_spans(trace)
        confirmed = sum(
            1 for s in spans.values() if s.confirmed_at is not None
        )
        assert confirmed == metrics.probes_confirmed
        timed_out = sum(
            1 for s in spans.values() if s.timed_out_at is not None
        )
        assert timed_out == sum(
            m.probes_timed_out for m in metrics.per_switch
        )
        # Alarms on probe spans reconcile with the alarm timeline.
        alarmed = sum(1 for s in spans.values() if s.alarm_at is not None)
        assert alarmed == len(metrics.alarm_timeline)

    def test_snapshots_feed_report_timeline(self, observed_run):
        assert len(observed_run.metrics.obs_snapshots) >= 3
        assert "timeline (sim-time windowed rates" in observed_run.report()

    def test_exports_written(self, observed_run):
        spec = observed_run.spec
        assert read_jsonl(spec.trace_out)
        with open(spec.trace_chrome, encoding="utf-8") as handle:
            assert json.load(handle)["traceEvents"]
        with open(spec.metrics_out, encoding="utf-8") as handle:
            text = handle.read()
        assert "# TYPE monocle_probes_sent_total counter" in text
        assert len(observed_run.exported) == 3

    def test_final_snapshot_carries_detection_latency(self, observed_run):
        """The final snapshot carries the detection latencies, and a
        repeated collect supersedes it instead of observing twice."""
        last = observed_run.metrics.obs_snapshots[-1]
        assert last["histograms"]["monocle_detection_latency_seconds"] == {
            "count": 2.0,
            "sum": sum(observed_run.metrics.detection_latencies),
        }
        again = collect_fleet_metrics(
            observed_run.deployment, injections=observed_run.injections
        )
        assert again.obs_snapshots[-1]["histograms"] == last["histograms"]
        # Same sim time: the re-taken snapshot superseded the first.
        assert len(again.obs_snapshots) == len(
            observed_run.metrics.obs_snapshots
        )


def _row_fields():
    """Every scraped field: (rows attribute, dataclass field)."""
    for rows, row_type in (
        ("per_switch", SwitchMetrics),
        ("per_shard", ShardMetrics),
    ):
        for f in dataclasses.fields(row_type):
            yield rows, f


def _column_total(metrics, rows, f):
    """A column's sum; for a latency histogram (a field defaulting to
    ``None``), the sum of its observation counts."""
    values = [getattr(row, f.name) for row in getattr(metrics, rows)]
    if f.default is None:
        return sum(hist.count for hist in values if hist is not None)
    return sum(values)


def _exposition_totals(text):
    """Family -> summed value over the exposition's series lines."""
    totals = {}
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        key, value = line.rsplit(" ", 1)
        family = family_name(key)
        totals[family] = totals.get(family, 0.0) + float(value)
    return totals


#: ``to_json()["aggregates"]`` keys and ``--metrics-out`` families, as
#: literals: ``bench/`` diffs the former key by key and dashboards read
#: the latter, so a derived view must not rename or drop one silently.
AGGREGATE_KEYS = {
    "alarms_suppressed", "alarms_total", "all_detected",
    "contexts_deduped", "cut_links", "cycle_rebuilds",
    "detection_latencies", "false_alarms", "packetin_total",
    "packetout_total", "probe_cache_hits", "probe_revalidations",
    "probe_window", "probegen_seconds", "probes_confirmed",
    "probes_generated", "probes_routed", "probes_sent",
    "probes_unroutable", "scheduler_promotions",
    "shard_status", "shards_failed",
    "true_alarms", "updates_confirmed",
    "updates_given_up", "window_peak", "worker_restarts", "workers",
}
PER_SWITCH_KEYS = {
    "alarms", "alarms_suppressed",
    "cycle_rebuilds", "flowmods_processed", "node", "packetins_sent",
    "packetouts_processed", "probe_cache_hits",
    "probe_rate", "probe_revalidations", "probe_window",
    "probegen_seconds", "probes_alarmed", "probes_confirmed",
    "probes_generated", "probes_invalidated", "probes_launched",
    "probes_sent", "probes_timed_out",
    "rules_installed", "scheduler_promotions", "window_peak",
}
EXPOSITION_FAMILIES = {
    "monocle_alarms_suppressed_total", "monocle_alarms_total",
    "monocle_cycle_keys",
    "monocle_detection_latency_seconds", "monocle_outstanding_probes",
    "monocle_probe_cache_hits_total", "monocle_probe_revalidations_total",
    "monocle_probe_window", "monocle_probe_wire_seconds",
    "monocle_probegen_solve_seconds", "monocle_probegen_solves_total",
    "monocle_probes_alarmed_total", "monocle_probes_confirmed_total",
    "monocle_probes_invalidated_total", "monocle_probes_launched_total",
    "monocle_probes_sent_total", "monocle_probes_timed_out_total",
    "monocle_scheduler_wait_seconds",
    "monocle_update_confirmation_seconds",
    "monocle_updates_confirmed_total", "monocle_updates_given_up_total",
    "monocle_window_depth",
}


def _lossy_islands_spec(**overrides):
    """Two islands, one lossy control channel in each, no hysteresis:
    loss-caused false alarms on both sides of the workers=2 cut."""
    base = dict(
        topology="islands",
        size=16,
        duration=1.5,
        seed=11,
        rules_per_switch=6,
        probe_rate=200.0,
        workloads=(RuleChurn(rate=15.0),),
        failures=(
            ChannelDegradation(at=0.1, node="isl00_sw1", loss=0.2),
            ChannelDegradation(at=0.1, node="isl01_sw2", loss=0.2),
            RuleDrop(at=0.4, node="isl01_sw0", rule_index=1),
        ),
        observe=True,
        obs_snapshot_interval=0.25,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestOneSetOfBooks:
    """Every view of a scraped field derives from its one declaration."""

    def test_key_sets_are_pinned(self, observed_run):
        payload = observed_run.metrics.to_json()
        assert set(payload["aggregates"]) == AGGREGATE_KEYS
        for row in payload["per_switch"]:
            assert set(row) == PER_SWITCH_KEYS
        with open(observed_run.spec.metrics_out, encoding="utf-8") as handle:
            assert set(_exposition_totals(handle.read())) == {
                family + suffix
                for family in EXPOSITION_FAMILIES
                for suffix in (
                    ("_bucket", "_sum", "_count")
                    if family.endswith("_seconds")
                    else ("",)
                )
            }

    def test_every_field_reaches_every_view(self, observed_run):
        """A new counter needs its field (and scrape line), nothing
        else: each one is in the aggregates under its declared name and
        in the exposition under its declared family."""
        metrics = observed_run.metrics
        aggregates = metrics.to_json()["aggregates"]
        with open(observed_run.spec.metrics_out, encoding="utf-8") as handle:
            exposed = _exposition_totals(handle.read())
        counter_families = set()
        for rows, f in _row_fields():
            if not f.metadata:
                continue  # identity / label columns, not counters
            total = _column_total(metrics, rows, f)
            if f.metadata["agg"] == "sum":
                name = f.metadata["name"] or f.name
                assert aggregates[name] == getattr(metrics, name) == total
            elif f.metadata["agg"] == "max":
                assert aggregates[f.name] == max(
                    getattr(row, f.name) for row in getattr(metrics, rows)
                )
            family = f.metadata["family"]
            if family is not None:
                suffix = "_count" if f.default is None else ""
                assert exposed[family + suffix] == total, family
                if family.endswith("_total"):
                    counter_families.add(family)
        assert len(counter_families) == 13
        assert metrics.probes_sent > 0 and metrics.updates_confirmed > 0

    def test_merged_bundle_folds_every_field(self, observed_run):
        """Sharded merge concatenates rows, so no field can be dropped:
        two copies of a bundle double every sum and keep every max."""
        one = observed_run.metrics
        two = merge_fleet_metrics(
            [one, one], detections=one.detections, duration=one.duration
        )
        for rows, f in _row_fields():
            agg = f.metadata.get("agg")
            if agg is None:
                continue
            name = f.metadata["name"] or f.name
            expected = getattr(one, name) * (2 if agg == "sum" else 1)
            assert getattr(two, name) == pytest.approx(expected), name

    def test_one_shard_bundle_is_a_merge_fixed_point(self):
        result = run_scenario(_lossy_islands_spec())
        metrics = result.metrics
        assert len({repr(node) for node, _ in metrics.false_alarms}) > 1
        assert metrics.obs_snapshots
        assert merge_obs_snapshots([metrics.obs_snapshots]) == (
            metrics.obs_snapshots
        )
        assert (
            merge_fleet_metrics(
                [metrics],
                detections=metrics.detections,
                duration=metrics.duration,
            )
            == metrics
        )

    def test_workers2_agrees_with_workers1(self):
        """False alarms come out in one order at every worker count,
        and the merged final snapshot carries the merged aggregates."""
        one = run_scenario(_lossy_islands_spec()).metrics
        two = run_scenario(_lossy_islands_spec(workers=2)).metrics
        assert one.false_alarms and (
            one.to_json()["false_alarms"] == two.to_json()["false_alarms"]
        )
        final = two.obs_snapshots[-1]
        assert final["ts"] == two.duration
        for rows, f in _row_fields():
            family = f.metadata.get("family")
            if family is None:
                continue
            series = {**final["counters"], **final["gauges"]}
            if f.default is None:  # a latency histogram: its count
                series = {
                    key: hist["count"]
                    for key, hist in final["histograms"].items()
                }
            snapshot_total = sum(
                value
                for key, value in series.items()
                if family_name(key) == family
            )
            assert snapshot_total == _column_total(two, rows, f), family
            if rows == "per_switch" and family.endswith("_total"):
                # Per-switch counters are shard-independent.
                assert _column_total(one, rows, f) == snapshot_total


class TestObservabilityIsNonIntrusive:
    def test_traced_run_matches_untraced_run(self):
        """Observability must never perturb the simulation itself."""
        untraced = run_scenario(_fig4_spec())
        traced = run_scenario(_fig4_spec(observe=True))
        assert (
            traced.metrics.alarm_timeline
            == untraced.metrics.alarm_timeline
        )
        assert [m.probes_sent for m in traced.metrics.per_switch] == [
            m.probes_sent for m in untraced.metrics.per_switch
        ]
        assert (
            traced.metrics.detection_latencies
            == untraced.metrics.detection_latencies
        )

    def test_null_observer_default_is_inert(self):
        result = run_scenario(_fig4_spec())
        assert result.observer is NULL_OBSERVER
        assert result.deployment.obs is NULL_OBSERVER
        assert result.metrics.obs_snapshots == []
        assert "timeline" not in result.report()
        assert result.exported == []


class TestJsonOut:
    def test_json_out_round_trips_report_numbers(self, tmp_path, capsys):
        path = tmp_path / "fleet.json"
        rv = main(
            [
                "--topology", "ring", "--size", "4",
                "--duration", "1.5", "--seed", "2015",
                "--rules-per-switch", "8", "--probe-rate", "150",
                "--churn", "10", "--drops", "1",
                "--json-out", str(path),
            ]
        )
        assert rv == 0
        report = capsys.readouterr().out
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        aggregates = payload["aggregates"]

        match = re.search(r"aggregate: (\d+) probes .* (\d+) confirmed",
                          report)
        assert match is not None
        assert aggregates["probes_sent"] == int(match.group(1))
        assert aggregates["probes_confirmed"] == int(match.group(2))

        match = re.search(r"detection: (\d+)/(\d+) injected", report)
        assert match is not None
        detected = sum(1 for d in payload["detections"] if d["detected"])
        assert detected == int(match.group(1))
        assert len(payload["detections"]) == int(match.group(2))
        assert aggregates["all_detected"] is True

        match = re.search(
            r"probe generation: (\d+) generated, "
            r"(\d+) cache hits",
            report,
        )
        assert match is not None
        assert aggregates["probes_generated"] == int(match.group(1))
        assert aggregates["probe_cache_hits"] == int(match.group(2))

        # Per-switch rows carry the same counters the table printed.
        for row in payload["per_switch"]:
            assert re.search(
                rf"{re.escape(row['node'])}\s+{row['rules_installed']}"
                rf"\s+{row['probes_sent']}\s+",
                report,
            ), f"per-switch row for {row['node']} diverges from report"

    def test_json_out_matches_metrics_object(self, tmp_path):
        result = run_scenario(_fig4_spec())
        payload = result.metrics.to_json()
        # to_json is JSON-clean as written (no repr fallbacks needed).
        round_tripped = json.loads(json.dumps(payload))
        assert round_tripped == payload
        assert payload["aggregates"]["probes_sent"] == (
            result.metrics.probes_sent
        )
        assert [d["latency"] for d in payload["detections"]] == [
            d.latency for d in result.metrics.detections
        ]
