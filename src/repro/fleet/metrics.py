"""Fleet-wide metrics: one scrape, every other number a declared view.

The layers keep plain ``int`` attributes (``Monitor.probes_sent``,
``SchedulerStats.cycle_rebuilds``, ``SwitchStats.packetins_sent``, ...)
and, when observed, four latency histograms
(:class:`~repro.obs.metrics.Histogram`); nothing on the probe path
publishes anywhere.  At collect time :func:`scrape_switch` /
:func:`scrape_shard` read them into one :class:`SwitchMetrics` row per
switch and one :class:`ShardMetrics` row per deployment, and each
field's declaration (:func:`_stat`) names its views once:

* the fleet-wide fold (``FleetMetrics.probes_sent``,
  ``to_json()["aggregates"]``, the merged sharded bundle),
* the Prometheus family :func:`metric_series` exposes it under — in
  the observer's sim-time snapshots and in ``--metrics-out``, which is
  rendered from the merged bundle, so it works at every worker count.

So a new counter is one field plus its line in the scrape.  Beside the
counters a bundle carries one detection record per injected failure
(first attributable alarm, detection latency), the false alarms no
injection explains, and the churn workloads' raw update-confirmation
latencies (summarized by :mod:`repro.analysis.stats`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Hashable, Iterable

from repro.analysis.stats import Summary, summarize
from repro.obs.metrics import Histogram, Series

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.monitor import MonitorAlarm
    from repro.fleet.deployment import FleetDeployment
    from repro.fleet.failures import Injection
    from repro.fleet.workloads import Workload


def _stat(
    default: Any = 0,
    *,
    agg: str | None = None,
    name: str | None = None,
    family: str | None = None,
    json_row: bool = True,
) -> Any:
    """Declare one scraped field and, once, every view of it.

    Args:
        default: the field default; also what a ``max`` fold returns
            over no rows.
        agg: how :class:`FleetMetrics` folds the column fleet-wide —
            ``"sum"`` or ``"max"``;
            ``None`` keeps the field per-row only.
        name: the fleet-level attribute and ``aggregates`` key, where it
            differs from the field name.
        family: the Prometheus family :func:`metric_series` exposes a
            :class:`SwitchMetrics` field under — a histogram when the
            value is a :class:`~repro.obs.metrics.Histogram`, else a
            counter when it ends in ``_total`` and a gauge otherwise;
            ``None`` (or a ``None`` value) keeps it out.
        json_row: ``False`` keeps the field out of the ``--json-out``
            per-switch rows, whose key set downstream tooling reads.
    """
    return field(
        default=default,
        metadata={
            "agg": agg,
            "name": name,
            "family": family,
            "json_row": json_row,
        },
    )


@dataclass(frozen=True)
class SwitchMetrics:
    """Monitoring counters for one switch over the scenario."""

    node: Hashable
    rules_installed: int
    probes_sent: int = _stat(agg="sum", family="monocle_probes_sent_total")
    probes_confirmed: int = _stat(
        agg="sum", family="monocle_probes_confirmed_total"
    )
    probes_timed_out: int = _stat(family="monocle_probes_timed_out_total")
    #: Launches (retries are in ``probes_sent``) and the other two
    #: ``ProbeEnd``s: launched = ended + outstanding.
    probes_launched: int = _stat(family="monocle_probes_launched_total")
    probes_alarmed: int = _stat(family="monocle_probes_alarmed_total")
    probes_invalidated: int = _stat(family="monocle_probes_invalidated_total")
    alarms: int = _stat(
        agg="sum", name="alarms_total", family="monocle_alarms_total"
    )
    packetouts_processed: int = _stat(agg="sum", name="packetout_total")
    packetins_sent: int = _stat(agg="sum", name="packetin_total")
    flowmods_processed: int = 0
    #: Incremental probe-generation engine counters: generations (one
    #: SAT solve each, save a chain folded to the constant false) vs
    #: probes served from cache / cheap revalidation.
    probes_generated: int = _stat(
        agg="sum", family="monocle_probegen_solves_total"
    )
    probe_cache_hits: int = _stat(
        agg="sum", family="monocle_probe_cache_hits_total"
    )
    probe_revalidations: int = _stat(
        agg="sum", family="monocle_probe_revalidations_total"
    )
    probegen_seconds: float = _stat(0.0, agg="sum")
    #: Probe-cycle scheduling: how many full cycle builds this switch
    #: paid (exactly 1 however much the scenario churned — the
    #: delta-maintenance invariant).
    cycle_rebuilds: int = _stat(agg="sum")
    #: Always 0: ``bench/workloads.py`` reads it; the next
    #: ``benchmark`` PR drops both (see ROADMAP).
    scheduler_promotions: int = _stat(agg="sum")
    #: Alarm hysteresis: ``missing`` alarms swallowed below the strike
    #: threshold.
    alarms_suppressed: int = _stat(
        agg="sum", family="monocle_alarms_suppressed_total"
    )
    #: Probe pipelining: the window this switch ran (1 = the paper's
    #: rate-paced cycle) and the deepest concurrent steady occupancy
    #: reached.
    probe_window: int = _stat(1, agg="max", family="monocle_probe_window")
    window_peak: int = _stat(agg="max")
    #: Dynamic monitoring (§4): FlowMods this switch's DynamicMonitor
    #: confirmed in the data plane / gave up on at the update deadline
    #: (both 0 on a static deployment).
    updates_confirmed: int = _stat(
        agg="sum", family="monocle_updates_confirmed_total", json_row=False
    )
    updates_given_up: int = _stat(
        agg="sum", family="monocle_updates_given_up_total", json_row=False
    )
    #: Levels at collect time (the exposition's gauges): probes in
    #: flight, probe-cycle length and steady window occupancy.
    outstanding_probes: int = _stat(
        family="monocle_outstanding_probes", json_row=False
    )
    cycle_keys: int = _stat(family="monocle_cycle_keys", json_row=False)
    window_depth: int = _stat(family="monocle_window_depth", json_row=False)
    #: Latency distributions the layers observe live (``None`` unless
    #: the deployment is observed; no update confirmations on a static
    #: one): schedule wait, a confirmed probe's wire time, SAT solve
    #: time (wall clock), update confirmation.
    scheduler_wait: Histogram | None = _stat(
        None, family="monocle_scheduler_wait_seconds", json_row=False
    )
    probe_wire: Histogram | None = _stat(
        None, family="monocle_probe_wire_seconds", json_row=False
    )
    probegen_solve: Histogram | None = _stat(
        None, family="monocle_probegen_solve_seconds", json_row=False
    )
    update_confirmation: Histogram | None = _stat(
        None, family="monocle_update_confirmation_seconds", json_row=False
    )

    def probe_rate(self, duration: float) -> float:
        """Achieved probes/s over the scenario."""
        if duration <= 0:
            return 0.0
        return self.probes_sent / duration


@dataclass(frozen=True)
class ShardMetrics:
    """Counters one deployment keeps once, not per switch.

    One row per shard: the multiplexer's routing totals.
    """

    probes_routed: int = _stat(agg="sum")
    probes_unroutable: int = _stat(agg="sum")
    #: Always 0: ``bench/workloads.py`` reads it; the next
    #: ``benchmark`` PR drops both (see ROADMAP).
    contexts_deduped: int = _stat(agg="sum")


#: Fleet-level attribute / ``aggregates`` key -> (the FleetMetrics row
#: list it folds, the declaring field).
_VIEWS: dict[str, tuple[str, dataclasses.Field[Any]]] = {
    (f.metadata["name"] or f.name): (rows, f)
    for rows, row_type in (
        ("per_switch", SwitchMetrics),
        ("per_shard", ShardMetrics),
    )
    for f in dataclasses.fields(row_type)
    if f.metadata.get("agg")
}

#: Scraped field name -> the Prometheus family it is exposed under.
FAMILY: dict[str, str] = {
    f.name: f.metadata["family"]
    for f in dataclasses.fields(SwitchMetrics)
    if f.metadata.get("family")
}


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
    """Everything a fleet report needs, in one bundle.

    Every :class:`SwitchMetrics` / :class:`ShardMetrics` field declared
    with an ``agg`` also reads as a fleet-level attribute under its
    declared name (``metrics.probes_sent``, ``metrics.packetout_total``,
    ``metrics.contexts_deduped``, ...), folded over the rows on access.
    """

    duration: float
    per_switch: list[SwitchMetrics]
    #: One row per deployment the bundle covers (one per shard).
    per_shard: list[ShardMetrics]
    detections: list[DetectionRecord]
    #: (node, alarm) pairs that no injection explains, in
    #: ``(time, repr(node))`` order.
    false_alarms: list[tuple[Hashable, MonitorAlarm]]
    #: Raw update-confirmation latencies of the churn workloads.
    confirmation_latencies: list[float] = field(default_factory=list)
    #: Sharded-runtime shape: worker count and links cut by the shard
    #: boundary.
    workers: int = 1
    cut_links: int = 0
    #: Always 0, and in neither ``to_json()`` nor the report: nothing
    #: sets them, but ``bench/workloads.py`` (``fleet_facts``) reads the
    #: attributes and ``bench/`` only changes in a ``benchmark`` PR,
    #: which should drop both (see ROADMAP).
    barriers: int = 0
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

    def __getattr__(self, name: str) -> Any:
        """The declared fleet-wide fold of a row field (see ``_VIEWS``)."""
        view = _VIEWS.get(name)
        if view is None:
            raise AttributeError(name)
        rows, f = view
        values = [getattr(row, f.name) for row in getattr(self, rows)]
        if f.metadata["agg"] == "max":
            return max(values, default=f.default)
        return sum(values)

    @property
    def confirmation_latency(self) -> Summary | None:
        """Update-confirmation latency distribution (None: no churn)."""
        if not self.confirmation_latencies:
            return None
        return summarize(self.confirmation_latencies)

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
    def true_alarms(self) -> int:
        """Raised alarms some injection explains."""
        return self.alarms_total - len(self.false_alarms)

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
            row = {
                f.name: getattr(m, f.name)
                for f in dataclasses.fields(m)
                if f.metadata.get("json_row", True)
            }
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
        confirmation = self.confirmation_latency
        aggregates = {name: getattr(self, name) for name in _VIEWS}
        aggregates.update(
            workers=self.workers,
            cut_links=self.cut_links,
            true_alarms=self.true_alarms,
            false_alarms=len(self.false_alarms),
            worker_restarts=self.worker_restarts,
            shards_failed=self.shards_failed,
            shard_status=list(self.shard_status),
            all_detected=self.all_detected,
            detection_latencies=self.detection_latencies,
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
                if confirmation is None
                else dataclasses.asdict(confirmation)
            ),
            "alarm_timeline": [list(row) for row in self.alarm_timeline],
            "obs_snapshots": self.obs_snapshots,
            "aggregates": aggregates,
        }


# ----- the one scrape -------------------------------------------------------


def scrape_switch(
    deployment: FleetDeployment, node: Hashable
) -> SwitchMetrics:
    """Read one switch's layer counters into its :class:`SwitchMetrics`."""
    monitor = deployment.monitor(node)
    switch = deployment.switch(node).stats
    context = monitor.probe_context
    generation = context.stats
    scheduling = monitor.scheduler.stats
    dynamic = deployment.system.dynamics.get(node)
    return SwitchMetrics(
        node=node,
        rules_installed=len(deployment.production_rules[node]),
        probes_sent=monitor.probes_sent,
        probes_confirmed=monitor.probes_confirmed,
        probes_timed_out=monitor.probes_timed_out,
        probes_launched=monitor.probes_launched,
        probes_alarmed=monitor.probes_alarmed,
        probes_invalidated=monitor.probes_invalidated,
        alarms=len(monitor.alarms),
        packetouts_processed=switch.packetouts_processed,
        packetins_sent=switch.packetins_sent,
        flowmods_processed=switch.flowmods_processed,
        probes_generated=generation.probes_generated,
        probe_cache_hits=generation.cache_hits,
        probe_revalidations=generation.revalidations,
        probegen_seconds=generation.generation_seconds,
        cycle_rebuilds=scheduling.cycle_rebuilds,
        alarms_suppressed=monitor.alarms_suppressed,
        probe_window=monitor.config.probe_window,
        window_peak=monitor.window_peak,
        updates_confirmed=dynamic.updates_confirmed if dynamic else 0,
        updates_given_up=dynamic.updates_given_up if dynamic else 0,
        outstanding_probes=len(monitor.outstanding),
        cycle_keys=len(monitor.scheduler),
        window_depth=monitor.window_depth,
        scheduler_wait=monitor.wait_histogram,
        probe_wire=monitor.wire_histogram,
        probegen_solve=context.solve_histogram,
        update_confirmation=dynamic.confirm_histogram if dynamic else None,
    )


def scrape_shard(deployment: FleetDeployment) -> ShardMetrics:
    """Read the deployment-wide counters into its :class:`ShardMetrics`."""
    multiplexer = deployment.system.multiplexer
    return ShardMetrics(
        probes_routed=multiplexer.probes_routed,
        probes_unroutable=multiplexer.probes_unroutable,
    )


def metric_series(
    per_switch: Iterable[SwitchMetrics],
    detections: Iterable[DetectionRecord] | None = None,
) -> list[Series]:
    """The exposed series of some switch rows, sorted by family then
    labels: every family-tagged field, labelled with its row's node —
    a :class:`~repro.obs.metrics.Histogram` field is a histogram, a
    family ending in ``_total`` a counter, any other a gauge.

    Given ``detections``, the series also carry their latencies as the
    ``monocle_detection_latency_seconds`` histogram.
    """
    series: list[Series] = []
    for row in per_switch:
        labels = (("node", repr(row.node)),)
        for f in dataclasses.fields(row):
            family = f.metadata.get("family")
            value = getattr(row, f.name)
            if family is None or value is None:
                continue
            if isinstance(value, Histogram):
                kind = "histogram"
            elif family.endswith("_total"):
                kind = "counter"
            else:
                kind = "gauge"
            series.append((kind, family, labels, value))
    if detections is not None:
        latency = Histogram()
        for record in detections:
            if (seconds := record.latency) is not None:
                latency.observe(seconds)
        series.append(
            ("histogram", "monocle_detection_latency_seconds", (), latency)
        )
    series.sort(key=lambda s: (s[1], s[2]))
    return series


def live_series(deployment: FleetDeployment) -> list[Series]:
    """The series of a running deployment's scrape: what its observer
    snapshots each interval."""
    return metric_series(
        scrape_switch(deployment, node) for node in deployment.monitored_nodes
    )


# ----- collection and merge -------------------------------------------------


def _false_alarm_order(pair: tuple[Hashable, MonitorAlarm]) -> tuple:
    node, alarm = pair
    return (alarm.time, repr(node))


def collect_fleet_metrics(
    deployment: FleetDeployment,
    injections: list[Injection] | None = None,
    workloads: Iterable[Workload] = (),
    duration: float | None = None,
) -> FleetMetrics:
    """Aggregate a finished deployment into a :class:`FleetMetrics`."""
    injections = injections or []
    if duration is None:
        duration = deployment.sim.now

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
    false_alarms.sort(key=_false_alarm_order)
    per_switch = [
        scrape_switch(deployment, node) for node in deployment.monitored_nodes
    ]

    obs = deployment.obs
    obs_snapshots: list[dict[str, Any]] = []
    if obs.enabled:
        # The final snapshot also carries this collect's detection
        # latencies; a repeated collect supersedes it.
        obs.snapshot_now(metric_series(per_switch, detections))
        obs_snapshots = list(obs.snapshots)

    return FleetMetrics(
        duration=duration,
        per_switch=per_switch,
        per_shard=[scrape_shard(deployment)],
        detections=detections,
        false_alarms=false_alarms,
        confirmation_latencies=[
            latency
            for workload in workloads
            for latency in workload.confirmation_latencies()
        ],
        alarm_timeline=timeline,
        obs_snapshots=obs_snapshots,
    )


def merge_fleet_metrics(
    parts: list[FleetMetrics],
    *,
    detections: list[DetectionRecord],
    duration: float,
) -> FleetMetrics:
    """Fuse per-shard :class:`FleetMetrics` into one fleet-wide bundle.

    Each worker collected over a disjoint shard, so rows, false alarms
    and raw latencies concatenate (every aggregate folds the rows on
    read) and the alarm timeline re-sorts into global sim-time order,
    matching a single-process run byte for byte on partitionable
    scenarios; a one-shard bundle merges to itself.  ``detections``
    arrive pre-merged (the coordinator matches shard records by global
    failure-spec index — a cut-crossing link failure yields one record
    per adjacent shard).  The run-shape fields keep their defaults; the
    caller fills them from its shard plan.
    """
    return FleetMetrics(
        duration=duration,
        per_switch=sorted(
            (row for part in parts for row in part.per_switch),
            key=lambda row: repr(row.node),
        ),
        per_shard=[row for part in parts for row in part.per_shard],
        detections=detections,
        false_alarms=sorted(
            (pair for part in parts for pair in part.false_alarms),
            key=_false_alarm_order,
        ),
        confirmation_latencies=[
            latency
            for part in parts
            for latency in part.confirmation_latencies
        ],
        alarm_timeline=sorted(
            row for part in parts for row in part.alarm_timeline
        ),
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
    by_ts = [{snap["ts"]: snap for snap in part} for part in parts if part]
    if not by_ts:
        return []
    merged: list[dict[str, Any]] = []
    for ts in sorted(set.intersection(*map(set, by_ts))):
        out: dict[str, Any] = {
            "ts": ts, "counters": {}, "gauges": {}, "histograms": {}
        }
        for part in by_ts:
            for kind in ("counters", "gauges"):
                into = out[kind]
                for key, value in part[ts][kind].items():
                    into[key] = into.get(key, 0.0) + value
            for key, hist in part[ts]["histograms"].items():
                into = out["histograms"].setdefault(
                    key, {"count": 0.0, "sum": 0.0}
                )
                into["count"] += hist["count"]
                into["sum"] += hist["sum"]
        merged.append(out)
    return merged
