"""Fleet-wide metric aggregation.

Collects, from a finished :class:`~repro.fleet.deployment.FleetDeployment`:

* per-switch monitoring counters (probes/s, confirmations, timeouts,
  alarms, PacketOut/PacketIn overhead),
* one detection record per injected failure (first attributable alarm,
  detection latency),
* false alarms — alarms no injection explains, per healthy switch,
* update-confirmation latency distribution from churn records
  (reusing :mod:`repro.analysis.stats`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Hashable

from repro.analysis.stats import Summary, summarize
from repro.core.monitor import MonitorAlarm
from repro.fleet.deployment import FleetDeployment
from repro.fleet.failures import Injection
from repro.fleet.workloads import RuleChurn, Workload


@dataclass(frozen=True)
class SwitchMetrics:
    """Monitoring counters for one switch over the scenario."""

    node: Hashable
    rules_installed: int
    probes_sent: int
    probes_confirmed: int
    probes_timed_out: int
    alarms: int
    packetouts_processed: int
    packetins_sent: int
    flowmods_processed: int
    #: Incremental probe-generation engine counters: SAT solves actually
    #: run vs probes served from cache / cheap revalidation.
    probes_generated: int = 0
    probe_cache_hits: int = 0
    probe_revalidations: int = 0
    probegen_seconds: float = 0.0
    #: Cross-switch context sharing: is this switch currently deduped
    #: into a shared solver context, and did it fork off one
    #: (copy-on-churn) during the scenario?
    context_shared: bool = False
    context_forked: bool = False
    #: Probe-cycle scheduling: which policy served this switch, how
    #: many full cycle builds it paid (exactly 1 however much the
    #: scenario churned — the delta-maintenance invariant) and how many
    #: probes a priority-aware policy served ahead of the base cycle.
    probe_policy: str = "round_robin"
    cycle_rebuilds: int = 0
    scheduler_promotions: int = 0
    #: Alarm hysteresis: ``missing`` alarms swallowed by the suspicion
    #: state machine (below the strike threshold, or quarantined), how
    #: many times the switch entered quarantine, and whether it was
    #: still quarantined when the scenario ended.
    alarms_suppressed: int = 0
    quarantines: int = 0
    quarantined: bool = False
    #: Probe pipelining: the window this switch ran (1 = the paper's
    #: rate-paced cycle) and the deepest concurrent steady occupancy
    #: reached.
    probe_window: int = 1
    window_peak: int = 0

    def probe_rate(self, duration: float) -> float:
        """Achieved probes/s over the scenario."""
        if duration <= 0:
            return 0.0
        return self.probes_sent / duration


@dataclass
class DetectionRecord:
    """How one injected failure fared."""

    injection: Injection
    detected_at: float | None = None
    detected_on: Hashable | None = None
    alarm_kind: str | None = None

    @property
    def detected(self) -> bool:
        return self.detected_at is not None

    @property
    def latency(self) -> float | None:
        if self.detected_at is None:
            return None
        return self.detected_at - self.injection.time


@dataclass
class FleetMetrics:
    """Everything a fleet report needs, in one bundle."""

    duration: float
    per_switch: list[SwitchMetrics]
    detections: list[DetectionRecord]
    #: (node, alarm) pairs that no injection explains.
    false_alarms: list[tuple[Hashable, MonitorAlarm]]
    confirmation_latency: Summary | None
    updates_confirmed: int
    updates_given_up: int
    probes_routed: int
    probes_unroutable: int
    #: Cross-switch shared-context registry counters (zero when the
    #: deployment runs with per-switch independent contexts).
    tables_fingerprinted: int = 0
    contexts_created: int = 0
    contexts_deduped: int = 0
    contexts_forked: int = 0
    contexts_remerged: int = 0
    #: Sharded-runtime shape: worker count, links cut by the shard
    #: boundary, and conservative-time barrier windows the coordinator
    #: ran (0 for one-shard runs and pure partitions).
    workers: int = 1
    cut_links: int = 0
    barriers: int = 0
    #: Always 0, and in neither ``to_json()`` nor the report: nothing
    #: sets it, but ``bench/workloads.py`` (``fleet_facts``) reads the
    #: attribute and ``bench/`` only changes in a ``benchmark`` PR, which
    #: should drop both (see ROADMAP).
    gossip_entries_imported: int = 0
    #: Self-healing shard runtime: worker re-spawns the coordinator
    #: performed, shards abandoned after the restart budget ran out,
    #: and one status string per shard (``"ok"``, ``"restarted(n)"``,
    #: ``"failed"``) in shard order.
    worker_restarts: int = 0
    shards_failed: int = 0
    shard_status: list[str] = field(default_factory=list)
    #: Stable (time, node, kind, match) tuples for determinism checks.
    alarm_timeline: list[tuple[float, str, str, str]] = field(
        default_factory=list
    )
    #: Periodic sim-time metric snapshots from the deployment's
    #: observer (empty when observability is disabled); consecutive
    #: deltas are the probes/s / alarms/s time series the report's
    #: timeline section renders.
    obs_snapshots: list[dict[str, Any]] = field(default_factory=list)

    # ----- aggregates -----------------------------------------------------

    @property
    def probes_sent(self) -> int:
        return sum(m.probes_sent for m in self.per_switch)

    @property
    def probes_confirmed(self) -> int:
        return sum(m.probes_confirmed for m in self.per_switch)

    @property
    def packetout_total(self) -> int:
        return sum(m.packetouts_processed for m in self.per_switch)

    @property
    def packetin_total(self) -> int:
        return sum(m.packetins_sent for m in self.per_switch)

    @property
    def probes_generated(self) -> int:
        """Incremental SAT solves across the fleet."""
        return sum(m.probes_generated for m in self.per_switch)

    @property
    def probe_cache_hits(self) -> int:
        return sum(m.probe_cache_hits for m in self.per_switch)

    @property
    def probe_revalidations(self) -> int:
        return sum(m.probe_revalidations for m in self.per_switch)

    @property
    def probegen_seconds(self) -> float:
        return sum(m.probegen_seconds for m in self.per_switch)

    @property
    def cycle_rebuilds(self) -> int:
        """Full probe-cycle builds across the fleet (== switch count)."""
        return sum(m.cycle_rebuilds for m in self.per_switch)

    @property
    def scheduler_promotions(self) -> int:
        return sum(m.scheduler_promotions for m in self.per_switch)

    @property
    def all_detected(self) -> bool:
        """Every injected *fault* produced an attributable alarm.

        Chaos injections (channel degradation, control-plane flaps)
        perturb the substrate, not the data plane — there is nothing to
        detect, so they are excluded from coverage.
        """
        return all(
            d.detected for d in self.detections if not d.injection.chaos
        )

    @property
    def alarms_total(self) -> int:
        """Alarms raised across the fleet (true + false)."""
        return sum(m.alarms for m in self.per_switch)

    @property
    def true_alarms(self) -> int:
        """Raised alarms some injection explains."""
        return self.alarms_total - len(self.false_alarms)

    @property
    def alarms_suppressed(self) -> int:
        """``missing`` alarms swallowed by hysteresis across the fleet."""
        return sum(m.alarms_suppressed for m in self.per_switch)

    @property
    def quarantines(self) -> int:
        return sum(m.quarantines for m in self.per_switch)

    @property
    def switches_quarantined(self) -> int:
        """Switches still quarantined when the scenario ended."""
        return sum(1 for m in self.per_switch if m.quarantined)

    @property
    def probe_window(self) -> int:
        """Deepest effective probe window across the fleet."""
        return max((m.probe_window for m in self.per_switch), default=1)

    @property
    def window_peak(self) -> int:
        """Deepest concurrent steady occupancy any switch reached."""
        return max((m.window_peak for m in self.per_switch), default=0)

    @property
    def detection_latencies(self) -> list[float]:
        return [
            latency
            for d in self.detections
            if (latency := d.latency) is not None
        ]

    # ----- machine-readable export ----------------------------------------

    def to_json(self) -> dict[str, Any]:
        """The full metrics bundle as a JSON-ready dict.

        Everything the prose report renders (per-switch rows, detection
        records, aggregates) plus the raw material it summarizes, so
        downstream tooling consumes ``repro-fleet --json-out`` instead
        of parsing report text.  Nodes are ``repr()``-encoded, exactly
        as in the trace JSONL schema.
        """
        per_switch = []
        for m in self.per_switch:
            row = dataclasses.asdict(m)
            row["node"] = repr(m.node)
            row["probe_rate"] = m.probe_rate(self.duration)
            per_switch.append(row)
        detections = []
        for d in self.detections:
            injection = d.injection
            detections.append(
                {
                    "kind": injection.kind,
                    "injected_at": injection.time,
                    "nodes": sorted(repr(n) for n in injection.nodes),
                    "cookies": sorted(injection.cookies),
                    "broad": injection.broad,
                    "chaos": injection.chaos,
                    "description": injection.description,
                    "error": injection.error,
                    "detected": d.detected,
                    "detected_at": d.detected_at,
                    "detected_on": (
                        None
                        if d.detected_on is None
                        else repr(d.detected_on)
                    ),
                    "alarm_kind": d.alarm_kind,
                    "latency": d.latency,
                }
            )
        return {
            "duration": self.duration,
            "per_switch": per_switch,
            "detections": detections,
            "false_alarms": [
                {
                    "node": repr(node),
                    "time": alarm.time,
                    "kind": alarm.kind,
                    "match": repr(alarm.rule.match),
                    "priority": alarm.rule.priority,
                }
                for node, alarm in self.false_alarms
            ],
            "confirmation_latency": (
                None
                if self.confirmation_latency is None
                else dataclasses.asdict(self.confirmation_latency)
            ),
            "alarm_timeline": [list(row) for row in self.alarm_timeline],
            "obs_snapshots": self.obs_snapshots,
            "aggregates": {
                "probes_sent": self.probes_sent,
                "probes_confirmed": self.probes_confirmed,
                "packetout_total": self.packetout_total,
                "packetin_total": self.packetin_total,
                "probes_generated": self.probes_generated,
                "probe_cache_hits": self.probe_cache_hits,
                "probe_revalidations": self.probe_revalidations,
                "probegen_seconds": self.probegen_seconds,
                "cycle_rebuilds": self.cycle_rebuilds,
                "scheduler_promotions": self.scheduler_promotions,
                "probes_routed": self.probes_routed,
                "probes_unroutable": self.probes_unroutable,
                "updates_confirmed": self.updates_confirmed,
                "updates_given_up": self.updates_given_up,
                "tables_fingerprinted": self.tables_fingerprinted,
                "contexts_created": self.contexts_created,
                "contexts_deduped": self.contexts_deduped,
                "contexts_forked": self.contexts_forked,
                "contexts_remerged": self.contexts_remerged,
                "workers": self.workers,
                "cut_links": self.cut_links,
                "barriers": self.barriers,
                "alarms_total": self.alarms_total,
                "true_alarms": self.true_alarms,
                "false_alarms": len(self.false_alarms),
                "alarms_suppressed": self.alarms_suppressed,
                "probe_window": self.probe_window,
                "window_peak": self.window_peak,
                "quarantines": self.quarantines,
                "switches_quarantined": self.switches_quarantined,
                "worker_restarts": self.worker_restarts,
                "shards_failed": self.shards_failed,
                "shard_status": list(self.shard_status),
                "all_detected": self.all_detected,
                "detection_latencies": self.detection_latencies,
            },
        }


def collect_fleet_metrics(
    deployment: FleetDeployment,
    injections: list[Injection] | None = None,
    workloads: list[Workload] | tuple[Workload, ...] = (),
    duration: float | None = None,
) -> FleetMetrics:
    """Aggregate a finished deployment into a :class:`FleetMetrics`."""
    injections = injections or []
    if duration is None:
        duration = deployment.sim.now

    per_switch: list[SwitchMetrics] = []
    for node in deployment.monitored_nodes:
        monitor = deployment.monitor(node)
        stats = deployment.switch(node).stats
        context = monitor.probe_context
        genstats = context.stats
        per_switch.append(
            SwitchMetrics(
                node=node,
                rules_installed=len(deployment.production_rules[node]),
                probes_sent=monitor.probes_sent,
                probes_confirmed=monitor.probes_confirmed,
                probes_timed_out=monitor.probes_timed_out,
                alarms=len(monitor.alarms),
                packetouts_processed=stats.packetouts_processed,
                packetins_sent=stats.packetins_sent,
                flowmods_processed=stats.flowmods_processed,
                probes_generated=genstats.probes_generated,
                probe_cache_hits=genstats.cache_hits,
                probe_revalidations=genstats.revalidations,
                probegen_seconds=genstats.generation_seconds,
                context_shared=getattr(context, "is_shared", False),
                context_forked=getattr(context, "forked", False),
                probe_policy=monitor.scheduler.policy.name,
                cycle_rebuilds=monitor.scheduler.stats.cycle_rebuilds,
                scheduler_promotions=(
                    monitor.scheduler.stats.scheduler_promotions
                ),
                alarms_suppressed=monitor.alarms_suppressed,
                quarantines=monitor.quarantines,
                quarantined=monitor.quarantined,
                probe_window=monitor.window,
                window_peak=monitor.window_peak,
            )
        )

    detections = [DetectionRecord(injection=inj) for inj in injections]
    false_alarms: list[tuple[Hashable, MonitorAlarm]] = []
    timeline: list[tuple[float, str, str, str]] = []
    for node in deployment.monitored_nodes:
        for alarm in deployment.monitor(node).alarms:
            timeline.append(
                (alarm.time, repr(node), alarm.kind, repr(alarm.rule.match))
            )
            explained = False
            for record in detections:
                if record.injection.is_detection(node, alarm):
                    explained = True
                    if (
                        record.detected_at is None
                        or alarm.time < record.detected_at
                    ):
                        record.detected_at = alarm.time
                        record.detected_on = node
                        record.alarm_kind = alarm.kind
                elif record.injection.explains(node, alarm):
                    explained = True
            if not explained:
                false_alarms.append((node, alarm))
    timeline.sort()

    latencies: list[float] = []
    for workload in workloads:
        if isinstance(workload, RuleChurn):
            latencies.extend(workload.confirmation_latencies())
    confirmation = summarize(latencies) if latencies else None

    updates_confirmed = sum(
        d.updates_confirmed for d in deployment.system.dynamics.values()
    )
    updates_given_up = sum(
        d.updates_given_up for d in deployment.system.dynamics.values()
    )

    obs_snapshots: list[dict[str, Any]] = []
    if deployment.obs.enabled:
        # Final snapshot at collection time (runs the collect hooks, so
        # the registry is sync'd with the stats aggregated above), then
        # check that every scraped family made it into the registry.
        deployment.obs.snapshot_now()
        obs_snapshots = list(deployment.obs.metrics.snapshots)
        h = deployment.obs.metrics.histogram(
            "monocle_detection_latency_seconds"
        )
        for record in detections:
            if (latency := record.latency) is not None:
                h.observe(latency)
        _crosscheck_registry(deployment, per_switch)

    shared = deployment.shared_context_stats()
    return FleetMetrics(
        duration=duration,
        per_switch=per_switch,
        detections=detections,
        false_alarms=false_alarms,
        confirmation_latency=confirmation,
        updates_confirmed=updates_confirmed,
        updates_given_up=updates_given_up,
        probes_routed=deployment.system.multiplexer.probes_routed,
        probes_unroutable=deployment.system.multiplexer.probes_unroutable,
        tables_fingerprinted=shared.tables_fingerprinted,
        contexts_created=shared.contexts_created,
        contexts_deduped=shared.contexts_deduped,
        contexts_forked=shared.contexts_forked,
        contexts_remerged=shared.contexts_remerged,
        alarm_timeline=timeline,
        obs_snapshots=obs_snapshots,
    )


def merge_fleet_metrics(
    parts: list[FleetMetrics],
    *,
    detections: list[DetectionRecord],
    confirmation_latencies: list[float],
    duration: float,
) -> FleetMetrics:
    """Fuse per-shard :class:`FleetMetrics` into one fleet-wide bundle.

    Each worker collected over a disjoint shard, so per-switch rows,
    false alarms, and counters combine by concatenation/summation;
    the alarm timeline re-sorts into global sim-time order, matching a
    single-process run byte for byte on partitionable scenarios.
    ``detections`` arrive pre-merged (the coordinator matches shard
    records by global failure-spec index — a cut-crossing link failure
    yields one record per adjacent shard) and confirmation latencies
    arrive raw because :class:`~repro.analysis.stats.Summary` objects
    cannot be combined after the fact.
    """
    timeline = sorted(row for part in parts for row in part.alarm_timeline)
    false_alarms = sorted(
        ((node, alarm) for part in parts for node, alarm in part.false_alarms),
        key=lambda pair: (pair[1].time, repr(pair[0])),
    )
    per_switch = sorted(
        (row for part in parts for row in part.per_switch),
        key=lambda row: repr(row.node),
    )
    confirmation = (
        summarize(confirmation_latencies) if confirmation_latencies else None
    )
    return FleetMetrics(
        duration=duration,
        per_switch=per_switch,
        detections=detections,
        false_alarms=false_alarms,
        confirmation_latency=confirmation,
        updates_confirmed=sum(p.updates_confirmed for p in parts),
        updates_given_up=sum(p.updates_given_up for p in parts),
        probes_routed=sum(p.probes_routed for p in parts),
        probes_unroutable=sum(p.probes_unroutable for p in parts),
        tables_fingerprinted=sum(p.tables_fingerprinted for p in parts),
        contexts_created=sum(p.contexts_created for p in parts),
        contexts_deduped=sum(p.contexts_deduped for p in parts),
        contexts_forked=sum(p.contexts_forked for p in parts),
        contexts_remerged=sum(p.contexts_remerged for p in parts),
        alarm_timeline=timeline,
        obs_snapshots=merge_obs_snapshots([p.obs_snapshots for p in parts]),
    )


def merge_obs_snapshots(
    parts: list[list[dict[str, Any]]],
) -> list[dict[str, Any]]:
    """Sum per-shard observer snapshots on their common time grid.

    Snapshots ride each worker's dispatch hook, so shards may cross
    different grid points (an idle shard snapshots less often); only
    timestamps every shard captured are merged — on those, counters and
    gauges sum across shards (label sets are disjoint per shard except
    fleet-level series, which sum correctly too) and histograms sum
    their ``count``/``sum`` fields.
    """
    populated = [p for p in parts if p]
    if not populated:
        return []
    common = set(snap["ts"] for snap in populated[0])
    for part in populated[1:]:
        common &= {snap["ts"] for snap in part}
    merged: list[dict[str, Any]] = []
    for ts in sorted(common):
        counters: dict[str, float] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, dict[str, float]] = {}
        for part in populated:
            snap = next(s for s in part if s["ts"] == ts)
            for key, value in snap["counters"].items():
                counters[key] = counters.get(key, 0.0) + value
            for key, value in snap["gauges"].items():
                gauges[key] = gauges.get(key, 0.0) + value
            for key, hist in snap["histograms"].items():
                into = histograms.setdefault(key, {"count": 0.0, "sum": 0.0})
                into["count"] += hist["count"]
                into["sum"] += hist["sum"]
        merged.append(
            {
                "ts": ts,
                "counters": counters,
                "gauges": gauges,
                "histograms": histograms,
            }
        )
    return merged


def _crosscheck_registry(
    deployment: FleetDeployment, per_switch: list[SwitchMetrics]
) -> None:
    """Assert the live registry agrees with the post-mortem counters.

    The two are not independent accounting paths:
    ``FleetDeployment._sync_obs_metrics`` copies the registry counters
    *from* the very monitor/context attributes this module scrapes.
    The check can therefore only fail when a family scraped here is
    missing from (or mislabelled in) the sync hook — it guards the
    hook's coverage, not the counters' correctness.
    """
    registry = deployment.obs.metrics
    expected = {
        "monocle_probes_sent_total": sum(
            m.probes_sent for m in per_switch
        ),
        "monocle_probes_confirmed_total": sum(
            m.probes_confirmed for m in per_switch
        ),
        "monocle_probes_timed_out_total": sum(
            m.probes_timed_out for m in per_switch
        ),
        "monocle_alarms_total": sum(m.alarms for m in per_switch),
        "monocle_alarms_suppressed_total": sum(
            m.alarms_suppressed for m in per_switch
        ),
        "monocle_probegen_solves_total": sum(
            m.probes_generated for m in per_switch
        ),
        "monocle_probe_cache_hits_total": sum(
            m.probe_cache_hits for m in per_switch
        ),
        "monocle_updates_confirmed_total": sum(
            d.updates_confirmed
            for d in deployment.system.dynamics.values()
        ),
    }
    for family, total in expected.items():
        live = registry.family_total(family)
        if live != total:
            raise AssertionError(
                f"observability registry diverged from fleet metrics: "
                f"{family} is {live} live vs {total} scraped"
            )
