"""Declarative fleet scenarios: spec in, metrics out.

:class:`ScenarioSpec` names a topology, a switch profile, a workload
mix, and a failure schedule; :func:`run_scenario` plans the shards,
runs one :class:`~repro.fleet.shardworker.ShardWorker` per shard (in
this process for a one-shard plan, in worker processes otherwise) —
each start to finish on its own kernel, with no clock shared between
them — and returns a :class:`ScenarioResult` with aggregated metrics, so
examples and benchmarks stop hand-rolling orchestration.

The module doubles as the ``repro-fleet`` console entry point::

    repro-fleet --topology ring --size 12 --duration 3 --drops 2 --churn 40

Environment: ``REPRO_BENCH_SCALE`` scales ``rules_per_switch`` (CI
smoke runs use 0.1), ``REPRO_BENCH_SEED`` overrides the default seed.
"""

from __future__ import annotations

import argparse
import json
import os
import time as _time
from dataclasses import dataclass, field, replace
from typing import Any, Callable

import networkx as nx

from repro.core.catching import ColoringAlgorithm
from repro.core.monitor import MonitorConfig
from repro.core.schedule import POLICIES as SCHEDULE_POLICIES
from repro.fleet.coordinator import drive_shards, merge_detections
from repro.fleet.deployment import FleetDeployment
from repro.fleet.failures import (
    FailureSpec,
    Injection,
    LinkFailure,
    RuleCorruption,
    RuleDrop,
)
from repro.fleet.metrics import FleetMetrics, merge_fleet_metrics
from repro.fleet.report import format_fleet_report
from repro.fleet.sharding import plan_shards
from repro.fleet.shardworker import (
    ScenarioError,
    ShardWorker,
    WorkerCrash,
    WorkerHang,
)
from repro.obs import NullObserver, Observer
from repro.fleet.workloads import (
    BackgroundTraffic,
    RuleChurn,
    Workload,
)
from repro.switches.profiles import (
    DELL_8132F,
    DELL_S4810,
    HP_5406ZL,
    IDEAL,
    OVS,
    PICA8,
    SwitchProfile,
)
from repro.topology.corpus import topology_zoo_like_corpus
from repro.topology.generators import (
    fat_tree,
    islands,
    linear,
    ring,
    star,
    triangle,
)


def _zoo_topology(size: int) -> nx.Graph:
    """The first corpus graph with at least ``size`` nodes."""
    for graph in topology_zoo_like_corpus():
        if graph.number_of_nodes() >= size:
            return graph
    raise ScenarioError(f"no zoo-like graph with >= {size} nodes")


TOPOLOGIES: dict[str, Callable[[int], nx.Graph]] = {
    "ring": ring,
    "linear": linear,
    "star": star,
    "triangle": lambda size: triangle(),
    "fat_tree": fat_tree,
    "islands": islands,
    "zoo": _zoo_topology,
}

PROFILES: dict[str, SwitchProfile] = {
    "ovs": OVS,
    "hp5406zl": HP_5406ZL,
    "dell_s4810": DELL_S4810,
    "dell_8132f": DELL_8132F,
    "pica8": PICA8,
    "ideal": IDEAL,
}

ALGORITHMS = {a.value: a for a in ColoringAlgorithm}


def _check_output_path(option: str, path: str | None) -> None:
    """Refuse, before the run, an output file it could not write after."""
    if not path:
        return
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ScenarioError(f"{option}: no such directory: {parent!r}")
    if os.path.isdir(path) or not os.access(parent, os.W_OK):
        raise ScenarioError(f"{option}: cannot write {path!r}")


@dataclass(frozen=True)
class ScenarioSpec:
    """One fleet scenario, fully determined by its fields + seed."""

    topology: str = "ring"
    size: int = 12
    profile: str = "ovs"
    duration: float = 3.0
    seed: int = 2015
    rules_per_switch: int = 20
    probe_rate: float = 500.0
    probe_timeout: float = 0.150
    #: Steady-state probe pipelining: ``1`` keeps the paper's
    #: rate-paced cycle (one launch per tick, no depth cap); ``W > 1``
    #: tops the steady probes in flight up to W each tick, cutting
    #: cycle-bound detection latency toward 1/W.  Probes in flight
    #: share the switch's reserved value; the nonce tells them apart.
    probe_window: int = 1
    update_deadline: float = 1.0
    dynamic: bool = True
    strategy: int = 1
    algorithm: str = "exact"
    workloads: tuple[Workload, ...] = ()
    failures: tuple[FailureSpec, ...] = ()
    #: Probe order, fleet-wide: ``round_robin`` (§3 baseline) or
    #: ``churn_first`` (recently-churned rules jump the queue).
    probe_policy: str = "round_robin"
    #: Observability (:mod:`repro.obs`).  Tracing + live metrics turn
    #: on when ``observe`` is True or any output/interval below is
    #: set; the default leaves the NullObserver's no-op path in place.
    observe: bool = False
    #: Write the trace as JSONL / Chrome ``trace_event`` after the run.
    trace_out: str | None = None
    trace_chrome: str | None = None
    #: Write the Prometheus text exposition after the run.
    metrics_out: str | None = None
    #: Sim seconds between metric snapshots (the report's timeline
    #: granularity); None picks duration/10 when observing.
    obs_snapshot_interval: float | None = None
    #: Sharded runtime (:mod:`repro.fleet.coordinator`): split the
    #: fleet across this many worker processes, each with its own sim
    #: kernel.  ``1`` runs the one shard in this process; ``"auto"``
    #: sizes the fleet to this host's usable CPUs (affinity mask).
    workers: int | str = 1
    #: Alarm hysteresis (:class:`~repro.core.monitor.MonitorConfig`):
    #: consecutive missing-probe strikes before a steady-state
    #: ``missing`` alarm fires.  ``1`` keeps the paper baseline
    #: (alarm on first timeout); ``2``+ rides out lossy control
    #: channels at the cost of one suspicion re-probe per strike.
    alarm_confirmations: int = 1
    #: Worker chaos hooks (:class:`~repro.fleet.shardworker.
    #: WorkerCrash` / :class:`~repro.fleet.shardworker.WorkerHang`)
    #: exercising the self-healing coordinator; requires a sharded run.
    chaos: tuple = ()
    #: Per-shard respawn budget for the self-healing coordinator; a
    #: shard that dies more often than this is marked failed and the
    #: scenario completes degraded on the survivors.
    max_worker_restarts: int = 2
    #: Wall-clock seconds the coordinator waits for a worker's reply —
    #: so for one shard's whole run — before treating it as hung;
    #: ``None`` uses the coordinator default (60s).
    worker_timeout: float | None = None

    # ----- validation -----------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`ScenarioError` on any inconsistency."""
        if self.topology not in TOPOLOGIES:
            raise ScenarioError(
                f"unknown topology {self.topology!r}; "
                f"choose from {sorted(TOPOLOGIES)}"
            )
        if self.profile not in PROFILES:
            raise ScenarioError(
                f"unknown profile {self.profile!r}; "
                f"choose from {sorted(PROFILES)}"
            )
        if self.algorithm not in ALGORITHMS:
            raise ScenarioError(
                f"unknown coloring algorithm {self.algorithm!r}; "
                f"choose from {sorted(ALGORITHMS)}"
            )
        if self.strategy not in (1, 2):
            raise ScenarioError(
                f"strategy must be 1 or 2, not {self.strategy}"
            )
        if self.probe_policy not in SCHEDULE_POLICIES:
            raise ScenarioError(
                f"unknown probe policy {self.probe_policy!r}; "
                f"choose from {sorted(SCHEDULE_POLICIES)}"
            )
        for option in ("trace_out", "trace_chrome", "metrics_out"):
            _check_output_path(option, getattr(self, option))
        if self.duration <= 0:
            raise ScenarioError(f"duration must be positive: {self.duration}")
        if self.probe_rate <= 0:
            raise ScenarioError(
                f"probe_rate must be positive: {self.probe_rate}"
            )
        if self.probe_window < 1:
            raise ScenarioError(
                f"probe_window must be >= 1: {self.probe_window}"
            )
        if self.probe_timeout <= 0 or self.update_deadline <= 0:
            raise ScenarioError("timeouts must be positive")
        if self.rules_per_switch < 0:
            raise ScenarioError(
                f"rules_per_switch must be >= 0: {self.rules_per_switch}"
            )
        if (
            self.obs_snapshot_interval is not None
            and self.obs_snapshot_interval < 0
        ):
            raise ScenarioError(
                f"obs_snapshot_interval must be >= 0: "
                f"{self.obs_snapshot_interval}"
            )
        if self.size < 1:
            raise ScenarioError(f"size must be >= 1: {self.size}")
        if isinstance(self.workers, str):
            if self.workers != "auto":
                raise ScenarioError(
                    f"workers must be an int >= 1 or 'auto', "
                    f"not {self.workers!r}"
                )
        elif self.workers < 1:
            raise ScenarioError(f"workers must be >= 1: {self.workers}")
        if self.alarm_confirmations < 1:
            raise ScenarioError(
                f"alarm_confirmations must be >= 1: "
                f"{self.alarm_confirmations}"
            )
        if self.max_worker_restarts < 0:
            raise ScenarioError(
                f"max_worker_restarts must be >= 0: "
                f"{self.max_worker_restarts}"
            )
        if self.worker_timeout is not None and self.worker_timeout <= 0:
            raise ScenarioError(
                f"worker_timeout must be positive: {self.worker_timeout}"
            )
        if self.chaos:
            if self.workers == 1:
                raise ScenarioError(
                    "chaos hooks target shard workers; they require "
                    "workers > 1 (or 'auto')"
                )
            for hook in self.chaos:
                kind = getattr(hook, "kind", None)
                if kind not in ("kill", "hang"):
                    raise ScenarioError(
                        f"unknown chaos hook kind {kind!r} "
                        f"(expected WorkerCrash or WorkerHang)"
                    )
                if hook.shard < 0 or not 0 <= hook.at < self.duration:
                    raise ScenarioError(
                        f"chaos hook needs shard >= 0 and 0 <= at < "
                        f"{self.duration} (the duration): {hook}"
                    )
        if self.resolved_workers() > 1 and self.metrics_out:
            raise ScenarioError(
                "metrics_out is incompatible with workers > 1: the "
                "Prometheus registry lives per worker process and its "
                "expositions cannot be merged (use --json-out, whose "
                "snapshots the coordinator does merge)"
            )
        for item in self.workloads + self.failures:
            try:
                item.check()
            except ValueError as exc:
                raise ScenarioError(str(exc)) from exc
        graph = self.build_topology()
        nodes = set(graph.nodes)
        for spec in self.failures:
            if spec.at < 0 or spec.at >= self.duration:
                raise ScenarioError(
                    f"failure at t={spec.at} outside the scenario "
                    f"duration {self.duration}"
                )
            for attr in ("node", "u", "v"):
                if not hasattr(spec, attr):
                    continue
                value = getattr(spec, attr)
                if value is None:
                    # The None defaults exist only to satisfy dataclass
                    # inheritance; a spec without its switch is invalid.
                    raise ScenarioError(
                        f"{type(spec).__name__} at t={spec.at} is missing "
                        f"its {attr!r} switch"
                    )
                if value not in nodes:
                    raise ScenarioError(
                        f"failure references unknown switch {value!r} "
                        f"(topology {self.topology}-{self.size})"
                    )

    def build_topology(self) -> nx.Graph:
        """Instantiate the named topology at the requested size."""
        try:
            return TOPOLOGIES[self.topology](self.size)
        except ValueError as exc:
            raise ScenarioError(str(exc)) from exc

    def resolved_workers(self) -> int:
        """``workers`` with ``"auto"`` resolved to this host's usable
        CPU count (the scheduling-affinity mask where available, which
        respects cgroup/taskset limits; raw ``cpu_count`` otherwise).
        """
        if self.workers == "auto":
            try:
                return len(os.sched_getaffinity(0))
            except (AttributeError, OSError):  # pragma: no cover
                return os.cpu_count() or 1
        return self.workers

    def monitor_config(self) -> MonitorConfig:
        """The MonitorConfig all fleet Monitors share."""
        return MonitorConfig(
            probe_rate=self.probe_rate,
            probe_timeout=self.probe_timeout,
            probe_window=self.probe_window,
            update_deadline=self.update_deadline,
            alarm_confirmations=self.alarm_confirmations,
        )

    @property
    def wants_observer(self) -> bool:
        """Does this spec need live tracing + metrics?"""
        return bool(
            self.observe
            or self.trace_out
            or self.trace_chrome
            or self.metrics_out
            or self.obs_snapshot_interval
        )

    def build_observer(self) -> "Observer | None":
        """The spec's observer, or None for the NullObserver default."""
        if not self.wants_observer:
            return None
        interval = self.obs_snapshot_interval
        if interval is None:
            interval = self.duration / 10.0
        return Observer(snapshot_interval=interval or None)


@dataclass
class ScenarioResult:
    """Everything a scenario run produced."""

    spec: ScenarioSpec
    #: The live deployment of a one-shard run; ``None`` after a
    #: sharded run (the deployments lived in the worker processes).
    deployment: FleetDeployment | None
    injections: list[Injection]
    metrics: FleetMetrics
    #: The live deployment's observer; after a sharded run, a recorder
    #: holding the merged trace (``None`` unless the spec observes).
    observer: "Observer | NullObserver | None" = None
    #: Human-readable lines describing the artifacts :meth:`export`
    #: wrote (run_scenario exports once, right after collection).
    exported: list[str] = field(default_factory=list)
    #: Wall-clock phase timings (``run_seconds``: the simulation run,
    #: excluding deployment build).  Deliberately kept out of
    #: :meth:`FleetMetrics.to_json` and the report — those stay pure
    #: functions of the spec + seed; benchmarks read this field.
    timings: dict[str, float] = field(default_factory=dict)
    #: Self-healing summary for sharded runs: total worker respawns
    #: the coordinator performed (0 for in-process runs).
    restarts: int = 0
    #: True when a shard exhausted its restart budget: the result
    #: covers only the surviving shards — partial, but not an abort.
    degraded: bool = False

    def report(self) -> str:
        """The formatted fleet report."""
        return format_fleet_report(self.metrics)

    def export(self) -> list[str]:
        """Write the spec's requested artifacts; returns what was written."""
        written: list[str] = []
        spec = self.spec
        obs = self.observer
        if obs is None or not obs.enabled:
            return written
        if spec.trace_out:
            count = obs.trace.export_jsonl(spec.trace_out)
            written.append(f"{spec.trace_out} ({count} trace events)")
        if spec.trace_chrome:
            count = obs.trace.export_chrome(spec.trace_chrome)
            written.append(
                f"{spec.trace_chrome} (chrome trace, {count} events)"
            )
        if spec.metrics_out:
            text = obs.metrics.prometheus_text()
            with open(spec.metrics_out, "w", encoding="utf-8") as handle:
                handle.write(text)
            written.append(f"{spec.metrics_out} (prometheus exposition)")
        self.exported = written
        return written


def run_scenario(spec: ScenarioSpec) -> ScenarioResult:
    """Plan, deploy, inject, detect, report — one call.

    One pipeline at every worker count: validate the spec, cut the
    topology into shards, run one :class:`~repro.fleet.shardworker.
    ShardWorker` per shard — each computes the catching plan, builds its
    monitored switches, installs the workload mix, arms the failure
    schedule and runs its kernel for ``spec.duration`` simulated
    seconds — and merge the shard results into fleet metrics (a
    one-shard bundle merges to itself).  Only the transport differs: a
    one-shard plan runs its worker by direct call and keeps the live
    ``deployment`` / ``observer`` on the result; a larger plan runs
    worker processes driven over pipes
    (:func:`~repro.fleet.coordinator.drive_shards`) and gets a recorder
    holding the merged trace.
    """
    spec.validate()
    plan = plan_shards(spec.build_topology(), spec.resolved_workers())
    if spec.workers != plan.workers:
        # "auto", or more workers than switches: the result names the
        # shard count that actually ran.
        spec = replace(spec, workers=plan.workers)
    for hook in spec.chaos:
        if hook.shard >= plan.workers:
            raise ScenarioError(
                f"chaos hook names shard {hook.shard}, but the plan has "
                f"shards 0..{plan.workers - 1}: {hook}"
            )
    deployment: FleetDeployment | None = None
    # FleetMetrics fields only a coordinator fills (the defaults
    # describe a run without one).
    health: dict[str, Any] = {}
    if plan.workers == 1:
        worker = ShardWorker(spec, plan, 0)
        run_started = _time.perf_counter()
        worker.run()
        run_seconds = _time.perf_counter() - run_started
        results = [worker.result()]
        deployment = worker.deployment
    else:
        results, run_seconds, health = drive_shards(spec, plan)

    detections = merge_detections(results)
    metrics = replace(
        merge_fleet_metrics(
            [res.metrics for res in results],
            detections=detections,
            duration=spec.duration,
        ),
        workers=plan.workers,
        cut_links=len(plan.cut_edges),
        **health,
    )
    observer: Observer | NullObserver | None
    if deployment is not None:
        observer = deployment.obs
    else:
        observer = spec.build_observer()
        if observer is not None:
            rows = sorted(
                (row for res in results for row in res.trace_rows),
                # Sort on the timestamp alone: later tuple fields hold
                # dicts, which do not compare.  The sort is stable, so
                # same-timestamp rows keep shard order.
                key=lambda row: row[0],
            )
            observer.trace.extend_raw(rows)
            observer.trace.emitted = sum(
                res.trace_emitted for res in results
            )

    result = ScenarioResult(
        spec=spec,
        deployment=deployment,
        injections=[record.injection for record in detections],
        metrics=metrics,
        observer=observer,
        timings={"run_seconds": run_seconds},
        restarts=metrics.worker_restarts,
        degraded=metrics.shards_failed > 0,
    )
    result.export()
    return result


# ----- command-line entry point -------------------------------------------


def _default_failures(
    spec: ScenarioSpec, drops: int, corruptions: int, link_failures: int
) -> tuple[FailureSpec, ...]:
    """Spread the requested failures over distinct switches and times."""
    graph = spec.build_topology()
    nodes = sorted(graph.nodes, key=repr)
    edges = sorted(graph.edges, key=lambda e: (repr(e[0]), repr(e[1])))
    total = drops + corruptions + link_failures
    if total == 0:
        return ()
    window = spec.duration / 2.0
    step = window / total
    failures: list[FailureSpec] = []
    when = spec.duration / 4.0
    for i in range(drops):
        failures.append(
            RuleDrop(at=when, node=nodes[i % len(nodes)], rule_index=i)
        )
        when += step
    for i in range(corruptions):
        failures.append(
            RuleCorruption(
                at=when,
                node=nodes[(drops + i) % len(nodes)],
                # Offset past the drop indices so a drop and a
                # corruption landing on the same switch never pick the
                # same victim rule.
                rule_index=drops + i,
            )
        )
        when += step
    for i in range(link_failures):
        u, v = edges[i % len(edges)]
        failures.append(LinkFailure(at=when, u=u, v=v))
        when += step
    return tuple(failures)


def _workers_arg(text: str) -> int | str:
    """``--workers``: a positive int or the literal ``auto``."""
    if text == "auto":
        return "auto"
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or 'auto', got {text!r}"
        ) from None


def _chaos_arg(text: str) -> WorkerCrash | WorkerHang:
    """``--chaos kill:SHARD[@SECONDS]`` / ``hang:SHARD[@SECONDS]``."""
    kind, _, rest = text.partition(":")
    shard_text, _, at_text = rest.partition("@")
    try:
        shard = int(shard_text)
        at = float(at_text) if at_text else 0.0
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected kill:SHARD[@SECONDS] or hang:SHARD[@SECONDS], "
            f"got {text!r}"
        ) from None
    if kind == "kill":
        return WorkerCrash(shard=shard, at=at)
    if kind == "hang":
        return WorkerHang(shard=shard, at=at)
    raise argparse.ArgumentTypeError(
        f"unknown chaos kind {kind!r} (kill or hang)"
    )


def main(argv: list[str] | None = None) -> int:
    """``repro-fleet``: run one scenario and print the fleet report.

    Returns a non-zero exit code when an injected failure went
    undetected or any healthy switch raised a false alarm, so CI smoke
    runs fail loudly in both directions.
    """
    parser = argparse.ArgumentParser(
        prog="repro-fleet",
        description="Run a network-wide Monocle monitoring scenario.",
    )
    parser.add_argument(
        "--topology", default="ring", choices=sorted(TOPOLOGIES)
    )
    parser.add_argument("--size", type=int, default=12)
    parser.add_argument("--profile", default="ovs", choices=sorted(PROFILES))
    parser.add_argument("--duration", type=float, default=3.0)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--rules", type=int, default=20,
                        help="production rules per switch")
    parser.add_argument("--probe-rate", type=float, default=500.0)
    parser.add_argument("--probe-window", type=int, default=1,
                        metavar="W",
                        help="concurrent in-flight probes per switch "
                             "(pipelining; 1 = paper baseline, W cuts "
                             "cycle-bound detection latency toward "
                             "1/W)")
    parser.add_argument("--strategy", type=int, default=1, choices=(1, 2))
    parser.add_argument("--algorithm", default="exact",
                        choices=sorted(ALGORITHMS))
    parser.add_argument("--static", action="store_true",
                        help="disable dynamic update confirmation")
    parser.add_argument("--probe-policy", default="round_robin",
                        choices=sorted(SCHEDULE_POLICIES),
                        help="probe-cycle scheduling policy")
    parser.add_argument("--workers", type=_workers_arg, default=1,
                        metavar="N|auto",
                        help="shard the fleet across this many worker "
                             "processes (1 = in this process, auto = "
                             "usable CPU count)")
    parser.add_argument("--alarm-confirmations", type=int, default=1,
                        metavar="K",
                        help="missing-probe strikes before a steady "
                             "alarm fires (hysteresis; 1 = paper "
                             "baseline)")
    parser.add_argument("--chaos", type=_chaos_arg, action="append",
                        default=None, metavar="KIND:SHARD[@SECONDS]",
                        help="kill or hang a shard worker at that "
                             "simulated second of its run (kill:0@0.5 / "
                             "hang:2); repeatable, needs --workers > 1")
    parser.add_argument("--max-worker-restarts", type=int, default=2,
                        metavar="N",
                        help="per-shard respawn budget for the "
                             "self-healing coordinator")
    parser.add_argument("--worker-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="wall-clock deadline for one shard's whole "
                             "run before its worker counts as hung "
                             "(default 60)")
    parser.add_argument("--churn", type=float, default=0.0,
                        help="rule-churn FlowMods/s across the fleet")
    parser.add_argument("--traffic", type=int, default=0,
                        help="background data-plane flows")
    parser.add_argument("--drops", type=int, default=1,
                        help="rule-drop failures to inject")
    parser.add_argument("--corruptions", type=int, default=0,
                        help="rule-corruption failures to inject")
    parser.add_argument("--link-failures", type=int, default=0,
                        help="link failures to inject")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="write the sim-time event trace as JSONL")
    parser.add_argument("--trace-chrome", default=None, metavar="PATH",
                        help="write a Chrome trace_event file "
                             "(chrome://tracing / ui.perfetto.dev)")
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="write the Prometheus text exposition")
    parser.add_argument("--obs-snapshot-interval", type=float,
                        default=None, metavar="SECONDS",
                        help="sim seconds between metric snapshots "
                             "(default: duration/10 when observing)")
    parser.add_argument("--json-out", default=None, metavar="PATH",
                        help="dump the full FleetMetrics as JSON")
    args = parser.parse_args(argv)

    scale = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
    seed = (
        args.seed
        if args.seed is not None
        else int(os.environ.get("REPRO_BENCH_SEED", "2015"))
    )
    spec = ScenarioSpec(
        topology=args.topology,
        size=args.size,
        profile=args.profile,
        duration=args.duration,
        seed=seed,
        rules_per_switch=max(4, int(args.rules * scale)),
        probe_rate=args.probe_rate,
        probe_window=args.probe_window,
        dynamic=not args.static,
        strategy=args.strategy,
        algorithm=args.algorithm,
        probe_policy=args.probe_policy,
        workers=args.workers,
        alarm_confirmations=args.alarm_confirmations,
        chaos=tuple(args.chaos or ()),
        max_worker_restarts=args.max_worker_restarts,
        worker_timeout=args.worker_timeout,
        trace_out=args.trace_out,
        trace_chrome=args.trace_chrome,
        metrics_out=args.metrics_out,
        obs_snapshot_interval=args.obs_snapshot_interval,
    )
    workloads: list[Workload] = []
    if args.churn > 0:
        workloads.append(RuleChurn(rate=args.churn))
    if args.traffic > 0:
        workloads.append(BackgroundTraffic(flows=args.traffic))

    try:
        _check_output_path("json_out", args.json_out)
        for option in (
            "churn", "traffic", "drops", "corruptions", "link_failures"
        ):
            value = getattr(args, option)
            if value < 0:
                raise ScenarioError(f"{option} must be >= 0: {value}")
        spec = replace(
            spec,
            workloads=tuple(workloads),
            failures=_default_failures(
                spec, args.drops, args.corruptions, args.link_failures
            ),
        )
        result = run_scenario(spec)
    except ScenarioError as exc:
        parser.error(str(exc))
        return 2  # pragma: no cover - parser.error raises SystemExit

    if result.deployment is not None:
        plan = result.deployment.plan
        reserved = f"{plan.num_reserved_values} reserved values"
    else:
        reserved = f"{result.spec.workers} shard workers"
    print(
        f"fleet scenario: {spec.topology}-{spec.size} x {spec.profile}, "
        f"{spec.rules_per_switch} rules/switch, strategy {spec.strategy} "
        f"({reserved}), "
        f"{spec.duration:.1f}s @ seed {spec.seed}"
    )
    print()
    print(result.report())
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(
                result.metrics.to_json(), handle, indent=2, sort_keys=True
            )
            handle.write("\n")
        result.exported.append(f"{args.json_out} (fleet metrics JSON)")
    for line in result.exported:
        print(f"wrote {line}")
    if (
        result.degraded
        or not result.metrics.all_detected
        or result.metrics.false_alarms
    ):
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
