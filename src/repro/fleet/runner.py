"""Declarative fleet scenarios: spec in, metrics out.

:class:`ScenarioSpec`, a :class:`~repro.core.monitor.MonitorConfig` with
the fleet's own fields added, names a topology, a switch profile, a
workload mix, and a failure schedule; :func:`run_scenario` plans the
shards, runs one :class:`~repro.fleet.shardworker.ShardWorker` per shard
(in this process for a one-shard plan, in worker processes otherwise) —
each start to finish on its own kernel, with no clock shared between
them — and returns a :class:`ScenarioResult` with aggregated metrics, so
examples, tests and ``bench`` stop hand-rolling orchestration.

The module doubles as the ``repro-fleet`` console entry point, whose
flags :func:`build_parser` generates from the spec's fields::

    repro-fleet --topology ring --size 12 --duration 3 --drops 2 --churn 40
"""

from __future__ import annotations

import argparse
import json
import os
import time as _time
from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable

import networkx as nx

from repro.core.catching import ColoringAlgorithm
from repro.core.monitor import MonitorConfig, knob
from repro.fleet.coordinator import drive_shards, merge_detections
from repro.fleet.deployment import FleetDeployment
from repro.fleet.failures import (
    FailureSpec,
    Injection,
    LinkFailure,
    RuleCorruption,
    RuleDrop,
)
from repro.fleet.metrics import (
    FleetMetrics,
    merge_fleet_metrics,
    metric_series,
)
from repro.fleet.report import format_fleet_report
from repro.fleet.sharding import plan_shards
from repro.fleet.shardworker import (
    ScenarioError,
    ShardWorker,
    WorkerCrash,
    WorkerHang,
)
from repro.obs import NullObserver, Observer
from repro.obs.metrics import prometheus_text
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
class ScenarioSpec(MonitorConfig):
    """One fleet scenario, fully determined by its fields + seed.

    The monitoring knobs are :class:`MonitorConfig`'s fields, inherited;
    ``repro-fleet`` has one flag per scalar field, those included.
    """

    topology: str = knob("ring", f"one of {', '.join(sorted(TOPOLOGIES))}")
    size: int = knob(12, "switches in the topology")
    profile: str = knob("ovs", f"one of {', '.join(sorted(PROFILES))}")
    duration: float = knob(3.0, "simulated seconds to run")
    seed: int = knob(2015, "seed of every random draw in the run")
    rules_per_switch: int = knob(20, "production rules per switch")
    #: The one redeclared MonitorConfig field: the fleet gives up on an
    #: update after 1 s, not 10 s, and every fleet result was taken so.
    update_deadline: float = knob(
        1.0, "give up confirming an update after this long"
    )
    dynamic: bool = knob(True, "confirm every FlowMod in the data plane")
    strategy: int = knob(1, "catching-rule strategy (§6), 1 or 2")
    algorithm: str = knob("exact", f"one of {', '.join(sorted(ALGORITHMS))}")
    workloads: tuple[Workload, ...] = ()
    failures: tuple[FailureSpec, ...] = ()
    observe: bool = knob(
        False,
        "trace and take metric snapshots (repro.obs); any output or "
        "interval below turns this on too, and off leaves the "
        "NullObserver's no-op path in place",
    )
    trace_out: str | None = knob(
        None, "write the sim-time event trace as JSONL after the run"
    )
    trace_chrome: str | None = knob(
        None,
        "write a Chrome trace_event file after the run (chrome://tracing "
        "/ ui.perfetto.dev)",
    )
    metrics_out: str | None = knob(
        None,
        "write the Prometheus text exposition of the merged metrics after "
        "the run",
    )
    obs_snapshot_interval: float | None = knob(
        None,
        "sim seconds between metric snapshots (the report's timeline "
        "granularity); unset picks duration/10 when observing",
    )
    workers: int | str = knob(
        1,
        "split the fleet across this many worker processes, each with its "
        "own sim kernel: 1 runs the one shard in this process, auto sizes "
        "the fleet to this host's usable CPUs (affinity mask)",
    )
    #: Worker chaos hooks (:class:`~repro.fleet.shardworker.
    #: WorkerCrash` / :class:`~repro.fleet.shardworker.WorkerHang`)
    #: exercising the self-healing coordinator; requires a sharded run.
    chaos: tuple = ()
    max_worker_restarts: int = knob(
        2,
        "per-shard respawn budget for the self-healing coordinator; a "
        "shard that dies more often is marked failed and the scenario "
        "completes degraded on the survivors",
    )
    worker_timeout: float = knob(
        60.0,
        "wall-clock seconds the coordinator waits for a worker's reply, "
        "so for one shard's whole run, before treating it as hung",
    )

    #: :meth:`~MonitorConfig.check`'s bounds, the scenario's added.
    POSITIVE = MonitorConfig.POSITIVE + ("duration", "worker_timeout")
    AT_LEAST = MonitorConfig.AT_LEAST + (
        ("size", 1),
        ("rules_per_switch", 0),
        ("max_worker_restarts", 0),
        ("obs_snapshot_interval", 0),
    )

    # ----- validation -----------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`ScenarioError` on any inconsistency, the bounds
        :meth:`~MonitorConfig.check` holds included."""
        for name, allowed in (
            ("topology", TOPOLOGIES),
            ("profile", PROFILES),
            ("algorithm", ALGORITHMS),
            ("strategy", (1, 2)),
        ):
            if getattr(self, name) not in allowed:
                raise ScenarioError(
                    f"unknown {name} {getattr(self, name)!r}; "
                    f"choose from {sorted(allowed)}"
                )
        for option in ("trace_out", "trace_chrome", "metrics_out"):
            _check_output_path(option, getattr(self, option))
        try:
            self.check()
            for item in self.workloads + self.failures:
                item.check()
        except ValueError as exc:
            raise ScenarioError(str(exc)) from exc
        if isinstance(self.workers, str):
            if self.workers != "auto":
                raise ScenarioError(
                    f"workers must be an int >= 1 or 'auto', "
                    f"not {self.workers!r}"
                )
        elif self.workers < 1:
            raise ScenarioError(f"workers must be >= 1: {self.workers}")
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
        """The MonitorConfig all fleet Monitors share: this spec's
        :class:`MonitorConfig` fields."""
        return MonitorConfig(
            **{f.name: getattr(self, f.name) for f in fields(MonitorConfig)}
        )

    def build_observer(self) -> "Observer | None":
        """The spec's observer (tracing, metric snapshots and the
        latency histograms), or None for the NullObserver default when
        nothing asks for one."""
        if not (
            self.observe
            or self.trace_out
            or self.trace_chrome
            or self.metrics_out
            or self.obs_snapshot_interval
        ):
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
    #: functions of the spec + seed; ``bench`` reads this field.
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
            text = prometheus_text(
                metric_series(self.metrics.per_switch, self.metrics.detections)
            )
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


#: How ``repro-fleet`` parses a flag, by its field's annotation.
_PARSERS: dict[str, Callable[[str], Any]] = {
    "int": int,
    "float": float,
    "str": str,
    "int | str": _workers_arg,
}
#: The fields with a flag: all but the tuples the hand-written ones make.
FLAG_FIELDS = tuple(
    f for f in fields(ScenarioSpec) if not str(f.type).startswith("tuple")
)


def build_parser() -> argparse.ArgumentParser:
    """``repro-fleet``'s flags: one per :data:`FLAG_FIELDS` entry, named
    (``--rules-per-switch``), parsed, defaulted and explained by its
    field — a bool is one switch away from its default (``--observe``,
    ``--no-dynamic``) — and the hand-written ones that assemble
    workloads, failures and chaos or write output."""
    parser = argparse.ArgumentParser(
        prog="repro-fleet",
        description="Run a network-wide Monocle monitoring scenario.",
    )
    for spec_field in FLAG_FIELDS:
        name, doc = spec_field.name, spec_field.metadata["help"]
        flag = "--" + name.replace("_", "-")
        if spec_field.type == "bool":
            on = spec_field.default
            parser.add_argument(
                "--no-" + flag[2:] if on else flag,
                dest=name,
                action="store_false" if on else "store_true",
                help=f"do not {doc}" if on else doc,
            )
        else:
            parser.add_argument(
                flag,
                type=_PARSERS[str(spec_field.type).removesuffix(" | None")],
                default=spec_field.default,
                help=f"{doc} (default: %(default)s)",
            )
    parser.add_argument("--chaos", type=_chaos_arg, action="append",
                        default=None, metavar="KIND:SHARD[@SECONDS]",
                        help="kill or hang a shard worker at that "
                             "simulated second of its run (kill:0@0.5 / "
                             "hang:2); repeatable, needs --workers > 1")
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
    parser.add_argument("--json-out", default=None, metavar="PATH",
                        help="dump the full FleetMetrics as JSON")
    return parser


def main(argv: list[str] | None = None) -> int:
    """``repro-fleet``: run one scenario and print the fleet report.

    Returns a non-zero exit code when an injected failure went
    undetected or any healthy switch raised a false alarm, so CI smoke
    runs fail loudly in both directions.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    spec = ScenarioSpec(**{f.name: getattr(args, f.name) for f in FLAG_FIELDS})
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
            chaos=tuple(args.chaos or ()),
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
