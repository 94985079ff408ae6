"""The five workloads.  Each is a client of the public API only.

A workload does one *repetition* at a time (:meth:`Workload.rep`):
turn ``(--seed, repetition index)`` into inputs (fault placements, rule
samples, the deployment seed that drives the FlowMod stream), set up
from scratch (build, install, fill caches), collect garbage, run a
fixed amount of timed work, check the outputs.  The runner repeats it to
fill ``--seconds`` and takes medians of the host times.  Fresh inputs
per repetition matter: the cost of an update depends on the FlowMod
stream by +-5 %, and a run that averages over several streams is that
much steadier from seed to seed.  A repetition's simulated results and
counts (``Rep.facts``) are a pure function of (seed, index).

Every workload is a closed loop: the simulator paces probes and
FlowMods on its own clock and host time is how long the simulation
takes; ``acl_probegen`` is one caller asking for one probe at a time.
"""

from __future__ import annotations

import gc
import hashlib
import math
import os
import random
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable

from repro.core.monitor import MonitorConfig
from repro.core.probegen import (
    ProbeGenContext,
    ProbeGenerator,
    verify_probe,
)
from repro.analysis.stats import Cdf
from repro.datasets import campus_table, stanford_table
from repro.fleet.deployment import FleetDeployment
from repro.fleet.failures import (
    ChannelDegradation,
    FailureSpec,
    RuleCorruption,
    RuleDrop,
    schedule_failures,
)
from repro.fleet.metrics import FleetMetrics, collect_fleet_metrics
from repro.fleet.runner import ScenarioSpec, run_scenario
from repro.fleet.workloads import RuleChurn, SteadyRules
from repro.openflow.actions import output
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod, FlowModCommand
from repro.topology.generators import fat_tree, star

from bench.calibrate import HostClock, usable_cores
from bench.trace import Tracer, timed


@dataclass
class Rep:
    """What one repetition measured."""

    #: Normalised host seconds: building the deployment/tables, and
    #: filling the caches (first probe cycle / first probes).
    build_s: float
    warm_s: float
    #: Timed work: (normalised s, raw s, operations completed).
    slices: list[tuple[float, float, int]]
    attempted: int
    failed: int
    problems: list[str]
    #: Simulated-time metrics and counts, keyed by per-layer metric
    #: name.  Exactly repeatable for a seed.
    facts: dict[str, Any]
    #: Host-time per-layer extras (noisy, unlike ``facts``).
    extra: dict[str, float] = field(default_factory=dict)


class Workload:
    """One named workload; subclasses fill in :meth:`rep`."""

    name = "workload"
    #: What one operation of the headline ``op_us`` is.
    op = "operation"

    #: Repetitions a run makes at least (each has its own set-up).
    MIN_REPS = 3

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.seed = seed
        #: Host seconds spent turning seeds into inputs.
        self.generator_s = 0.0

    def rep_seed(self, index: int) -> int:
        """The seed of repetition ``index`` (a run makes far fewer
        than 64, so no two (seed, index) pairs collide)."""
        return self.seed * 64 + index

    def traceable(self) -> bool:
        """Does the timed work run in this process, within the
        tracer's reach?"""
        return True

    def rep(self, clock: HostClock, tracer: Tracer | None, index: int) -> Rep:
        raise NotImplementedError


def _digest(value: Any) -> str:
    return hashlib.sha1(repr(value).encode()).hexdigest()[:16]


def _aggregates(metrics: FleetMetrics) -> dict[str, float]:
    """The numeric fleet-wide counters of a metrics bundle."""
    return {
        key: value
        for key, value in metrics.to_json()["aggregates"].items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }


def fleet_facts(
    metrics: FleetMetrics,
    counts: dict[str, float],
    ops: int,
    sim_seconds: float,
) -> dict[str, Any]:
    """Per-layer facts every simulated workload reports.

    ``counts`` are the aggregate counters of the timed phase alone
    (end minus start of phase); latencies and alarm verdicts come from
    ``metrics`` directly.
    """
    faults = [d for d in metrics.detections if not d.injection.chaos]
    detect = Cdf(metrics.detection_latencies)
    confirm = metrics.confirmation_latency
    switches = max(1, len(metrics.per_switch))
    served = (
        counts["probes_generated"]
        + counts["probe_cache_hits"]
        + counts["probe_revalidations"]
    )
    return {
        "core.monitor.detect_p50_s": detect.percentile(50) if detect else 0.0,
        "core.monitor.detect_p75_s": detect.percentile(75) if detect else 0.0,
        "core.monitor.detected_share": (
            sum(d.detected for d in faults) / len(faults) if faults else 1.0
        ),
        "core.monitor.false_alarms": len(metrics.false_alarms),
        "core.monitor.probes_sent": counts["probes_sent"],
        "core.monitor.probes_timed_out": sum(
            m.probes_timed_out for m in metrics.per_switch
        ),
        "core.monitor.window_peak": metrics.window_peak,
        "core.monitor.alarms_suppressed": counts["alarms_suppressed"],
        "core.monitor.sustained_probe_rate": (
            counts["probes_sent"] / sim_seconds / switches
        ),
        "core.multiplexer.probes_routed": counts["probes_routed"],
        "core.multiplexer.probes_unroutable": counts["probes_unroutable"],
        "core.schedule.promotions": counts["scheduler_promotions"],
        "core.schedule.cycle_rebuilds": metrics.cycle_rebuilds,
        "core.dynamic.updates_confirmed": counts["updates_confirmed"],
        "core.dynamic.updates_given_up": counts["updates_given_up"],
        "core.dynamic.confirm_p50_s": confirm.median if confirm else 0.0,
        "core.dynamic.confirm_p95_s": confirm.p95 if confirm else 0.0,
        "core.probegen.generated": counts["probes_generated"],
        "core.probegen.revalidations": counts["probe_revalidations"],
        "core.probegen.cache_hit_share": (
            counts["probe_cache_hits"] / served if served else 0.0
        ),
        "core.shared.contexts_deduped": metrics.contexts_deduped,
        "switches.packetouts": counts["packetout_total"],
        "switches.packetins": counts["packetin_total"],
        "switches.flowmods": sum(
            m.flowmods_processed for m in metrics.per_switch
        ),
        "fleet.barriers": metrics.barriers,
        "fleet.gossip_entries_imported": metrics.gossip_entries_imported,
        "fleet.worker_restarts": metrics.worker_restarts,
        "bench.ops_per_rep": ops,
        "bench.alarm_timeline": _digest(metrics.alarm_timeline),
    }


def _fleet_problems(metrics: FleetMetrics) -> tuple[int, list[str]]:
    """Operations that failed, with one line each kind."""
    undetected = [
        d.injection.description or d.injection.kind
        for d in metrics.detections
        if not d.injection.chaos and not d.detected
    ]
    problems = []
    if undetected:
        problems.append(f"{len(undetected)} undetected faults: {undetected[:3]}")
    if metrics.false_alarms:
        problems.append(f"{len(metrics.false_alarms)} false alarms")
    if metrics.probes_unroutable:
        problems.append(f"{metrics.probes_unroutable} unroutable probes")
    if metrics.updates_given_up:
        problems.append(f"{metrics.updates_given_up} updates given up")
    failed = (
        len(undetected)
        + len(metrics.false_alarms)
        + metrics.probes_unroutable
        + metrics.updates_given_up
    )
    return failed, problems


# --------------------------------------------------------------------------
# steady_fleet, window_lossy: hand-built deployments probed in steady state
# --------------------------------------------------------------------------


class ProbingFleet(Workload):
    """A static rule set under the steady-state probing cycle, with
    seed-placed data-plane faults to detect."""

    op = "probe confirmed"
    RULES = 64
    FAULTS = 40
    #: Faults land in the first ``FAULT_WINDOW * scale`` sim seconds of
    #: the timed phase; the phase then runs on for the detection
    #: allowance, so an undetected fault is a failed operation.
    FAULT_WINDOW = 0.5
    SLICE_SIM = 0.04
    DYNAMIC = True
    #: Two-way control-channel loss on every switch (0 = clean channel).
    LOSS = 0.0
    FAULT_KINDS: tuple[type, ...] = (RuleDrop, RuleCorruption)

    def topology(self):
        raise NotImplementedError

    def config(self) -> MonitorConfig:
        raise NotImplementedError

    def cycle_seconds(self, config: MonitorConfig) -> float:
        """Sim seconds for one pass over a switch's rules."""
        window = max(1, config.probe_window)
        if window == 1:
            return self.rules / config.probe_rate
        # One refill per tick: W*r / (1 + RTT*r), RTT ~ 5 ms in the sim.
        sustained = window * config.probe_rate / (1 + 0.005 * config.probe_rate)
        return self.rules / sustained

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        super().__init__(seed, scale)
        self.rules = max(8, round(self.RULES * scale))
        config = self.config()
        self.allowance = (
            self.cycle_seconds(config)
            + config.alarm_confirmations * (config.probe_timeout + 0.05)
            + 0.1
        )
        self.fault_window = max(0.05, self.FAULT_WINDOW * scale)
        self.fault_count = max(4, round(self.FAULTS * scale))

    def _faults(self, seed: int) -> list[tuple[float, type, Any, int]]:
        """(offset into the timed phase, kind, node, rule index); a rule
        is hit at most once, so no injection can fail."""
        started = perf_counter()
        rng = random.Random(seed)
        nodes = sorted(self.topology().nodes, key=repr)
        targets = rng.sample(
            [(node, index) for node in nodes for index in range(self.rules)],
            self.fault_count,
        )
        faults = [
            (
                rng.uniform(0.0, self.fault_window),
                self.FAULT_KINDS[i % len(self.FAULT_KINDS)],
                node,
                index,
            )
            for i, (node, index) in enumerate(targets)
        ]
        self.generator_s += perf_counter() - started
        return faults

    def _build(self, seed: int) -> FleetDeployment:
        deployment = FleetDeployment(
            self.topology(),
            config=self.config(),
            dynamic=self.DYNAMIC,
            seed=seed,
        )
        SteadyRules(self.rules).setup(deployment)
        if self.LOSS:
            schedule_failures(
                deployment,
                [
                    ChannelDegradation(at=0.0, node=node, loss=self.LOSS)
                    for node in deployment.nodes
                ],
            )
        deployment.start_monitoring()
        return deployment

    def _first_cycle(self, deployment: FleetDeployment) -> bool:
        """Run until every rule has had its first probe generated, then
        let the probes in flight resolve."""
        total = self.rules * len(deployment.nodes)
        config = deployment.config
        limit = 10 * self.cycle_seconds(config) + 1.0
        while deployment.probegen_stats().probes_generated < total:
            if deployment.sim.now > limit:
                return False
            deployment.run(0.02)
        deployment.run(config.probe_timeout + 0.05)
        return True

    def rep(self, clock: HostClock, tracer: Tracer | None, index: int) -> Rep:
        seed = self.rep_seed(index)
        faults = self._faults(seed)
        clock.resync()
        deployment, build_s, _ = clock.time(lambda: self._build(seed))
        cycled, warm_s, _ = clock.time(lambda: self._first_cycle(deployment))
        nodes = deployment.nodes
        sim = deployment.sim

        start = sim.now
        specs: list[FailureSpec] = [
            kind(at=start + offset, node=node, rule_index=index)
            for offset, kind, node, index in faults
        ]
        injections = schedule_failures(deployment, specs)
        before = _aggregates(collect_fleet_metrics(deployment))
        events_before = sim.events_dispatched
        duration = self.fault_window + self.allowance
        steps = math.ceil(duration / self.SLICE_SIM)

        def confirmed() -> int:
            return sum(deployment.monitor(n).probes_confirmed for n in nodes)

        def one_slice() -> None:
            with timed(tracer):
                deployment.run(self.SLICE_SIM)

        gc.collect()
        clock.resync()
        slices = []
        done = confirmed()
        for _ in range(steps):
            _, norm, raw = clock.time(one_slice)
            now_done = confirmed()
            slices.append((norm, raw, now_done - done))
            done = now_done

        metrics = collect_fleet_metrics(
            deployment, injections=injections, duration=sim.now - start
        )
        after = _aggregates(metrics)
        counts = {key: after[key] - before.get(key, 0) for key in after}
        ops = sum(s[2] for s in slices)
        facts = fleet_facts(metrics, counts, ops, sim.now - start)
        genstats = deployment.probegen_stats()
        dropped = sum(
            direction["dropped"]
            for node in nodes
            for direction in deployment.network.conditioner(node)
            .stats_summary()
            .values()
        )
        facts["sat.conflicts"] = genstats.solver_conflicts
        facts["network.msgs_dropped"] = dropped
        facts["sim.events_per_op"] = (
            (sim.events_dispatched - events_before) / ops if ops else 0.0
        )
        unmonitorable = sum(
            deployment.monitor(n).rules_unmonitorable for n in nodes
        )
        served = unmonitorable + after["probes_sent"]
        facts["core.probegen.found_share"] = (
            after["probes_sent"] / served if served else 0.0
        )

        failed, problems = _fleet_problems(metrics)
        if not cycled:
            problems.append("first probe cycle never completed")
        errors = [i.error for i in injections if i.error]
        if errors:
            failed += len(errors)
            problems.append(f"{len(errors)} injections failed: {errors[:2]}")
        suppressed = int(after["alarms_suppressed"])
        if self.LOSS and not (suppressed and dropped):
            problems.append(
                "the chaos never bit: "
                f"{suppressed} suppressed strikes, {dropped} dropped messages"
            )
        if not self.LOSS and (suppressed or dropped):
            problems.append(
                "the channel was not clean: "
                f"{suppressed} suppressed strikes, {dropped} dropped messages"
            )
        return Rep(
            build_s=build_s,
            warm_s=warm_s,
            slices=slices,
            attempted=int(counts["probes_sent"]) + len(faults),
            failed=failed,
            problems=problems,
            facts=facts,
            extra={
                "core.probegen.ms_per_generation": (
                    1e3 * genstats.generation_seconds
                    / max(1, genstats.probes_generated)
                ),
            },
        )


class SteadyFleet(ProbingFleet):
    """The paper's section-3 steady state at its default configuration:
    FatTree k=4 (20 switches) x 64 rules, 500 probes/s per switch, one
    probe in flight, 40 rule drops and corruptions."""

    name = "steady_fleet"

    def topology(self):
        return fat_tree(4)

    def config(self) -> MonitorConfig:
        return MonitorConfig()


class WindowLossy(ProbingFleet):
    """The three non-default paths steady_fleet bypasses: an 8-deep
    probe window, 3-strike alarm hysteresis and an active channel
    conditioner (5 % loss each way on every switch), on a star of 5
    switches x 256 rules with 40 silent drops, static mode."""

    name = "window_lossy"
    RULES = 256
    SLICE_SIM = 0.1
    DYNAMIC = False
    LOSS = 0.05
    FAULT_KINDS = (RuleDrop,)

    def topology(self):
        return star(4)

    def config(self) -> MonitorConfig:
        return MonitorConfig(
            probe_rate=250.0, probe_window=8, alarm_confirmations=3
        )


# --------------------------------------------------------------------------
# churn_fleet, churn_sharded: one ScenarioSpec through run_scenario
# --------------------------------------------------------------------------


class ChurnFleet(Workload):
    """The write path: 64 switches in 8 islands x 32 rules, 20 probes/s,
    a 1500 FlowMods/s add/modify/delete stream with dynamic
    confirmation of every update.

    The deployment is built from the workload's :class:`ScenarioSpec`
    the way ``run_scenario`` builds it, but stepped in slices so host
    time can be normalised slice by slice; ``churn_sharded`` hands the
    same spec to ``run_scenario`` and must reproduce these facts.
    """

    name = "churn_fleet"
    op = "update confirmed"
    SWITCHES = 64
    RULES = 32
    RATE = 1500.0
    #: Sim seconds of churn at scale 1, after ``START``; the scenario
    #: runs a further ``TAIL`` so every update sent is confirmed (a
    #: delete is confirmed by silence: a probe timeout or two).
    START = 0.1
    CHURN = 1.0
    TAIL = 0.5
    SLICE_SIM = 0.05

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        super().__init__(seed, scale)
        self.rules = max(4, round(self.RULES * scale))
        self.churn = max(0.02, self.CHURN * scale)

    def spec(self, index: int, workers: int = 1) -> ScenarioSpec:
        return ScenarioSpec(
            topology="islands",
            size=self.SWITCHES,
            duration=self.START + self.churn + self.TAIL,
            seed=self.rep_seed(index),
            rules_per_switch=self.rules,
            probe_rate=20.0,
            workloads=(
                RuleChurn(
                    rate=self.RATE,
                    start=self.START,
                    stop=self.START + self.churn,
                ),
            ),
            workers=workers,
        )

    def _build(self, spec: ScenarioSpec) -> tuple[FleetDeployment, RuleChurn]:
        deployment = FleetDeployment(
            spec.build_topology(),
            config=spec.monitor_config(),
            dynamic=spec.dynamic,
            seed=spec.seed,
        )
        SteadyRules(spec.rules_per_switch).setup(deployment)
        (churn,) = spec.workloads
        churn.setup(deployment)
        deployment.start_monitoring()
        return deployment, churn

    def _facts(
        self, metrics: FleetMetrics, spec: ScenarioSpec
    ) -> tuple[dict[str, Any], int, list[str]]:
        """Facts, failed operations and problems of one scenario run."""
        ops = metrics.updates_confirmed
        facts = fleet_facts(metrics, _aggregates(metrics), ops, spec.duration)
        latencies = metrics.confirmation_latency
        recorded = latencies.count if latencies else 0
        facts["bench.confirm_latencies"] = recorded
        failed, problems = _fleet_problems(metrics)
        if recorded != ops:
            failed += abs(recorded - ops)
            problems.append(
                f"{recorded} churn records confirmed, {ops} updates confirmed"
            )
        return facts, failed, problems

    def rep(self, clock: HostClock, tracer: Tracer | None, index: int) -> Rep:
        spec = self.spec(index)
        clock.resync()
        (deployment, churn), build_s, _ = clock.time(lambda: self._build(spec))
        sim = deployment.sim

        def one_slice(until: float) -> Callable[[], None]:
            def run() -> None:
                with timed(tracer):
                    sim.run(until=until)

            return run

        gc.collect()
        clock.resync()
        slices = []
        done = 0
        steps = math.ceil(spec.duration / self.SLICE_SIM)
        for step in range(1, steps + 1):
            until = min(spec.duration, step * self.SLICE_SIM)
            _, norm, raw = clock.time(one_slice(until))
            now_done = len(churn.confirmation_latencies())
            slices.append((norm, raw, now_done - done))
            done = now_done

        metrics = collect_fleet_metrics(
            deployment, workloads=[churn], duration=spec.duration
        )
        facts, failed, problems = self._facts(metrics, spec)
        genstats = deployment.probegen_stats()
        facts["sat.conflicts"] = genstats.solver_conflicts
        facts["sim.events_per_op"] = sim.events_dispatched / max(1, done)
        unconfirmed = len(churn.records) - done
        if unconfirmed:
            problems.append(f"{unconfirmed} updates sent but never confirmed")
        return Rep(
            build_s=build_s,
            warm_s=0.0,
            slices=slices,
            attempted=len(churn.records),
            failed=failed + unconfirmed,
            problems=problems,
            facts=facts,
            extra={
                "core.probegen.ms_per_generation": (
                    1e3 * genstats.generation_seconds
                    / max(1, genstats.probes_generated)
                ),
            },
        )


def _cpu_seconds() -> float:
    """CPU seconds of this process and its reaped children."""
    times = os.times()
    return (
        times.user + times.system + times.children_user
        + times.children_system
    )


class ChurnSharded(ChurnFleet):
    """churn_fleet's exact spec through ``run_scenario`` on
    ``min(2, usable cores)`` worker processes: same inputs, same
    simulated outputs, different runtime."""

    name = "churn_sharded"
    #: Facts that must not depend on who ran the scenario.
    WORKER_INVARIANT = (
        "core.dynamic.updates_confirmed",
        "core.dynamic.updates_given_up",
        "core.dynamic.confirm_p50_s",
        "core.dynamic.confirm_p95_s",
        "core.monitor.probes_sent",
        "core.monitor.false_alarms",
        "core.probegen.generated",
        "switches.flowmods",
        "bench.alarm_timeline",
        "bench.confirm_latencies",
    )

    #: A repetition here is one unsliced ~1 s run on both cores, which
    #: no single-core reference sample tracks well: more repetitions
    #: are what steadies the median.
    MIN_REPS = 8

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        super().__init__(seed, scale)
        self.workers = min(2, usable_cores())
        #: churn_fleet's own repetition 0 on this seed, made once per
        #: process: what sharded repetition 0 must reproduce, and the
        #: base of ``fleet.shard_speedup_x``.
        self._reference: Rep | None = None

    def traceable(self) -> bool:
        return False  # the work happens in the worker processes

    def rep(self, clock: HostClock, tracer: Tracer | None, index: int) -> Rep:
        if self._reference is None:
            self._reference = super().rep(clock, None, 0)
        reference = self._reference
        spec = self.spec(index, self.workers)
        gc.collect()
        clock.resync()
        cpu_before = _cpu_seconds()
        result, norm_total, raw_total = clock.time(lambda: run_scenario(spec))
        cpu = _cpu_seconds() - cpu_before
        run_raw = result.timings["run_seconds"]
        per_raw = norm_total / raw_total
        facts, failed, problems = self._facts(result.metrics, spec)
        ops = result.metrics.updates_confirmed
        if result.degraded:
            problems.append("a shard exhausted its restart budget")
        diverged = [
            key
            for key in self.WORKER_INVARIANT
            if index == 0 and facts[key] != reference.facts[key]
        ]
        if diverged:
            failed += len(diverged)
            problems.append(f"diverges from churn_fleet on {diverged}")
        reference_us = 1e6 * sum(s[0] for s in reference.slices) / max(
            1, sum(s[2] for s in reference.slices)
        )
        return Rep(
            # Everything run_scenario does outside the run phase:
            # plan shards, spawn and build workers, collect and merge.
            build_s=(raw_total - run_raw) * per_raw,
            warm_s=0.0,
            slices=[(run_raw * per_raw, run_raw, ops)],
            attempted=ops + result.metrics.updates_given_up,
            failed=failed,
            problems=problems,
            facts=facts,
            extra={
                "core.probegen.ms_per_generation": (
                    1e3 * result.metrics.probegen_seconds
                    / max(1, result.metrics.probes_generated)
                ),
                "fleet.cpu_us_per_op": 1e6 * cpu * per_raw / max(1, ops),
                "fleet.shard_speedup_x": reference_us
                / (1e6 * run_raw * per_raw / max(1, ops)),
            },
        )


# --------------------------------------------------------------------------
# acl_probegen: Table 2, no simulator
# --------------------------------------------------------------------------

CATCH = Match.build(dl_vlan=0xF03)


class AclProbegen(Workload):
    """Cold ``ProbeGenerator.generate`` over seeded samples of the
    Stanford-like (2755 rules) and Campus-like (10958 rules) ACL
    tables — the paper's Table 2 — after a ``ProbeGenContext`` has
    served first probes and a block of FlowMod -> re-probe steps on
    copies of the same tables."""

    name = "acl_probegen"
    op = "probe generated cold"
    COLD = 1500
    FIRST = 150
    CHURN = 60
    SLICE = 100
    #: verify_probe copies and re-indexes the table (10-45 ms a call),
    #: so each repetition verifies only this many probes per table and
    #: path (cold, churn), outside the timed phase.
    VERIFY = 6

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        super().__init__(seed, scale)
        self.cold = max(50, round(self.COLD * scale))
        self.first = max(10, round(self.FIRST * scale))
        self.churn = max(10, round(self.CHURN * scale))
        self.verify = max(2, round(self.VERIFY * scale))

    def _build(self, seed: int) -> dict[str, Any]:
        started = perf_counter()
        tables = {
            "stanford": stanford_table(seed=seed),
            "campus": campus_table(seed=seed),
        }
        rng = random.Random(seed)
        # The table-miss default (priority 0) overlaps every rule: its
        # probe alone takes seconds and ~280 MB on the Campus table, so
        # drawing it or not would decide time and memory for the seed.
        samples = {
            name: rng.sample(
                [rule for rule in table.rules() if rule.priority > 0],
                self.cold // 2 + self.first,
            )
            for name, table in tables.items()
        }
        cold = [
            (name, rule)
            for name in tables
            for rule in samples[name][: self.cold // 2]
        ]
        rng.shuffle(cold)
        self.generator_s += perf_counter() - started
        return {"tables": tables, "samples": samples, "cold": cold}

    def _first_probes(self, inputs: dict[str, Any]) -> dict[str, Any]:
        contexts = {}
        for name, table in inputs["tables"].items():
            context = ProbeGenContext(
                ProbeGenerator(catch_match=CATCH), table=table.copy()
            )
            for rule in inputs["samples"][name][-self.first:]:
                context.probe_for(rule)
            contexts[name] = context
        return contexts

    def _churn_steps(
        self, contexts: dict[str, Any], steps: list, check: bool
    ) -> tuple[list[tuple[str, Any]], list[str]]:
        """FlowMod -> re-probe: rewire a rule's output, ask again.

        With ``check`` every probe goes through ``verify_probe`` right
        away, against the table as it stands at that step (later steps
        change it again); returns the probes and what failed the check.
        """
        results, invalid = [], []
        for name, rule in steps:
            context = contexts[name]
            ports = rule.forwarding_set()
            affected = context.apply_flowmod(
                FlowMod(
                    command=FlowModCommand.MODIFY_STRICT,
                    match=rule.match,
                    priority=rule.priority,
                    actions=output(1 + (min(ports) if ports else 0) % 4),
                )
            )
            for touched in affected:
                result = context.probe_for(touched)
                results.append((name, result))
                if not (check and result.ok):
                    continue
                valid, why = verify_probe(
                    context.table, result.rule, result.header, CATCH
                )
                if not valid:
                    invalid.append(f"churn probe on {name}: {why}")
        return results, invalid

    def rep(self, clock: HostClock, tracer: Tracer | None, index: int) -> Rep:
        seed = self.rep_seed(index)
        clock.resync()
        inputs, build_s, _ = clock.time(lambda: self._build(seed))
        contexts, warm_s, _ = clock.time(lambda: self._first_probes(inputs))
        # The last few churn steps per table are the verified ones and
        # stay out of the timing (a verification costs 10-45 ms).
        steps = {
            name: [(name, rule) for rule in inputs["samples"][name][-self.churn:]]
            for name in contexts
        }
        unchecked = [s for name in steps for s in steps[name][: -self.verify]]
        checked = [s for name in steps for s in steps[name][-self.verify:]]
        (churned, _), churn_s, _ = clock.time(
            lambda: self._churn_steps(contexts, unchecked, False)
        )
        verified, problems = self._churn_steps(contexts, checked, True)
        tables = inputs["tables"]
        generator = ProbeGenerator(catch_match=CATCH)
        results: list[tuple[str, Any]] = []

        def one_slice(batch: list) -> Callable[[], None]:
            def run() -> None:
                with timed(tracer):
                    for name, rule in batch:
                        results.append(
                            (name, generator.generate(tables[name], rule))
                        )

            return run

        gc.collect()
        clock.resync()
        slices = []
        cold = inputs["cold"]
        for at in range(0, len(cold), self.SLICE):
            batch = cold[at: at + self.SLICE]
            _, norm, raw = clock.time(one_slice(batch))
            slices.append((norm, raw, len(batch)))

        failed = len(problems)
        checked_cold: dict[str, int] = {}
        for name, result in results:
            if not result.ok or checked_cold.get(name, 0) >= self.verify:
                continue
            checked_cold[name] = checked_cold.get(name, 0) + 1
            valid, why = verify_probe(
                tables[name], result.rule, result.header, CATCH
            )
            if not valid:
                failed += 1
                problems.append(f"cold probe on {name}: {why}")

        found = {
            name: [r.ok for n, r in results if n == name] for name in tables
        }
        times = [r.generation_time for _, r in results]
        stats = [context.stats for context in contexts.values()]
        facts = {
            "core.probegen.generated": len(results)
            + sum(s.probes_generated for s in stats),
            "core.probegen.revalidations": sum(s.revalidations for s in stats),
            "core.probegen.cache_hit_share": 0.0,
            "core.probegen.found_share": (
                sum(r.ok for _, r in results) / len(results)
            ),
            "core.probegen.found_share_stanford": (
                sum(found["stanford"]) / len(found["stanford"])
            ),
            "core.probegen.found_share_campus": (
                sum(found["campus"]) / len(found["campus"])
            ),
            "sat.conflicts": sum(r.solver_conflicts for _, r in results)
            + sum(s.solver_conflicts for s in stats),
            "bench.ops_per_rep": len(results),
            "bench.probe_headers": _digest(
                [sorted(r.header.items()) if r.ok else None for _, r in results]
            ),
        }
        return Rep(
            build_s=build_s,
            warm_s=warm_s,
            slices=slices,
            attempted=len(results) + len(churned) + len(verified),
            failed=failed,
            problems=problems,
            facts=facts,
            extra={
                "core.probegen.ms_per_generation": 1e3 * statistics.fmean(times),
                "core.probegen.cold_ms_p99": 1e3 * Cdf(times).percentile(99),
                "core.probegen.churn_ms_per_step": (
                    1e3 * churn_s / max(1, len(churned))
                ),
            },
        )


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (SteadyFleet, ChurnFleet, WindowLossy, AclProbegen, ChurnSharded)
}
