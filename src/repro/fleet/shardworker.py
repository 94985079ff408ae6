"""One shard of a fleet scenario: the engine every run goes through.

A :class:`ShardWorker` owns one shard of the topology and its own
discrete-event kernel, switches and Monitors; it is the one place that
builds a deployment from a :class:`~repro.fleet.runner.ScenarioSpec`,
arms its failures and collects its metrics.  A one-shard
plan runs its worker in the calling process; a larger plan runs each
worker in its own process (:func:`worker_main`), driven over pipes by
:mod:`repro.fleet.coordinator`.

The worker builds the **full** topology — identical port numbers,
switch numbers, catching plan, and per-switch RNG streams on every
worker, whatever the worker count — but only its owned switches get
Monitors, production rules, and workload activity.  Unowned switches
exist as passive mirrors holding just their catching rules, which is
exactly what an owned switch's probes need from an unowned downstream
neighbor: probe transit never crosses the process boundary.

What *does* cross: envelopes announcing cut-crossing failure
injections, applied by the peer shard at the next barrier with the
announcer's fire time.
"""

from __future__ import annotations

import os
import time as _time
import traceback
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Hashable

from repro.core.catching import CapacityError
from repro.fleet.deployment import FleetDeployment
from repro.fleet.failures import (
    FailureSpec,
    Injection,
    arm_failure,
    failure_rng,
    inject_now,
)
from repro.fleet.metrics import FleetMetrics, collect_fleet_metrics
from repro.fleet.sharding import ShardPlan, spec_nodes
from repro.fleet.workloads import SteadyRules, Workload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from multiprocessing.connection import Connection

    from repro.fleet.runner import ScenarioSpec


class ScenarioError(ValueError):
    """The scenario spec is inconsistent or unbuildable.

    Lives here, not in the runner that re-exports it, so a worker and
    ``python -m repro.fleet.runner`` (which runs the runner module a
    second time, as ``__main__``) raise and catch one class.
    """


@dataclass(frozen=True)
class WorkerCrash:
    """Chaos hook: kill one shard's worker process mid-scenario.

    Fires just before the worker executes its ``window``-th ``run``
    command (0-indexed), exiting the process without ceremony — the
    coordinator sees a pipe EOF, exactly like a real crash.  By
    default only ``incarnation`` 0 (the original process) dies, so the
    respawned replacement replays cleanly; ``incarnation=None`` kills
    every incarnation, which exhausts the restart budget and exercises
    the degraded-result path.
    """

    shard: int
    window: int = 0
    incarnation: int | None = 0

    kind = "kill"


@dataclass(frozen=True)
class WorkerHang:
    """Chaos hook: wedge one shard's worker instead of killing it.

    Sleeps ``sleep`` wall-clock seconds before the ``window``-th run
    command, so the coordinator's reply deadline expires and the
    missed-heartbeat path (terminate + respawn) runs instead of the
    pipe-EOF path.
    """

    shard: int
    window: int = 0
    incarnation: int | None = 0
    sleep: float = 3600.0

    kind = "hang"


def _maybe_chaos(
    hooks: "list[WorkerCrash | WorkerHang]", window: int, incarnation: int
) -> None:
    for hook in hooks:
        if hook.window != window:
            continue
        if hook.incarnation is not None and hook.incarnation != incarnation:
            continue
        if hook.kind == "kill":
            # A real crash, not an exception: no "error" message, no
            # atexit, just a dead pipe for the coordinator to find.
            os._exit(13)
        else:
            _time.sleep(hook.sleep)


@dataclass
class ShardResult:
    """Everything one worker ships home after its final window."""

    shard: int
    metrics: FleetMetrics
    #: Global failure-spec index of each entry in ``metrics.detections``
    #: (a cut-crossing spec yields one record per adjacent shard; the
    #: coordinator merges them by this index).
    injection_indices: list[int] = field(default_factory=list)
    #: Raw trace-ring rows (``TraceRecorder.raw_events`` format) and
    #: the ring's lifetime emit count, for the merged recorder.
    trace_rows: list[tuple] = field(default_factory=list)
    trace_emitted: int = 0


def _announcer(plan: ShardPlan, nodes: list[Hashable]) -> int:
    """The shard that fires a cut-crossing spec: owner of the
    smallest-``repr`` referenced node (deterministic on every worker).
    """
    return plan.owner(min(nodes, key=repr))


class ShardWorker:
    """One shard's deployment plus its barrier-window state machine."""

    def __init__(
        self, spec: "ScenarioSpec", plan: ShardPlan, shard: int
    ) -> None:
        from repro.fleet.runner import ALGORITHMS, PROFILES

        self.spec = spec
        self.plan = plan
        self.shard = shard
        try:
            self.deployment = FleetDeployment(
                spec.build_topology(),
                profiles=PROFILES[spec.profile],
                config=spec.monitor_config(),
                dynamic=spec.dynamic,
                seed=spec.seed,
                strategy=spec.strategy,
                algorithm=ALGORITHMS[spec.algorithm],
                probe_policy=spec.probe_policy,
                obs=spec.build_observer(),
                monitored_nodes=plan.shards[shard],
            )
        except CapacityError as exc:
            raise ScenarioError(str(exc)) from exc
        self.workloads: list[Workload] = [
            SteadyRules(spec.rules_per_switch)
        ]
        self.workloads.extend(spec.workloads)
        for workload in self.workloads:
            workload.setup(self.deployment)
        #: Global spec index -> live Injection record on this shard.
        self.injections: dict[int, Injection] = {}
        #: Cut-crossing specs announced elsewhere, applied on delivery.
        self.pending_remote: dict[int, FailureSpec] = {}
        #: Envelopes fired this window: ``(fire time, spec index)``.
        self.outbox: list[tuple[float, int]] = []
        self._arm_failures()
        self.deployment.start_monitoring()

    def _arm_failures(self) -> None:
        for index, fspec in enumerate(self.spec.failures):
            nodes = spec_nodes(fspec)
            owners = {self.plan.owner(node) for node in nodes}
            if self.shard not in owners:
                continue
            if len(owners) == 1 or _announcer(self.plan, nodes) == self.shard:
                self.injections[index] = arm_failure(
                    self.deployment,
                    fspec,
                    index,
                    fired=self.outbox if len(owners) > 1 else None,
                )
            else:
                # A peer shard announces; we apply our half when the
                # envelope lands at the next barrier.
                self.injections[index] = Injection(
                    kind=fspec.kind, time=fspec.at, chaos=fspec.chaos
                )
                self.pending_remote[index] = fspec

    # ----- barrier windows ----------------------------------------------

    def run_window(
        self, until: float, deliveries: dict[str, Any]
    ) -> dict[str, Any]:
        """Apply deliveries, advance to ``until``, report the window.

        Deliveries land at the window *start* (one barrier quantum
        after announcement at worst — the latency bound the sharding
        tests pin); the reply carries this window's envelopes and the
        next pending event time so the coordinator can fast-forward
        idle stretches.
        """
        for time, index in sorted(deliveries.get("envelopes", [])):
            fspec = self.pending_remote.pop(index, None)
            if fspec is None:
                continue
            inject_now(
                self.deployment,
                fspec,
                self.injections[index],
                time=time,
                rng=failure_rng(self.deployment, index),
            )
        self.deployment.sim.run(until)
        emitted = list(self.outbox)
        self.outbox.clear()
        return {
            "emitted": emitted,
            "next_event": self.deployment.sim.next_event_time(),
        }

    # ----- final collection ---------------------------------------------

    def result(self) -> ShardResult:
        """Collect this shard's metrics bundle after the last window."""
        indices = sorted(self.injections)
        metrics = collect_fleet_metrics(
            self.deployment,
            injections=[self.injections[i] for i in indices],
            workloads=self.workloads,
            duration=self.spec.duration,
        )
        # The disabled observer's recorder is simply empty.
        trace = self.deployment.obs.trace
        return ShardResult(
            shard=self.shard,
            metrics=metrics,
            injection_indices=indices,
            trace_rows=trace.raw_events(),
            trace_emitted=trace.emitted,
        )


def worker_main(
    conn: "Connection",
    spec: "ScenarioSpec",
    plan: ShardPlan,
    shard: int,
    incarnation: int = 0,
) -> None:
    """Process entry point: build, handshake, serve barrier windows.

    Protocol (coordinator side in :mod:`repro.fleet.coordinator`):

    * -> ``("ready",)`` once the shard deployment is built;
    * <- ``("run", until, deliveries)`` / -> ``("window", payload)``;
    * <- ``("finish",)`` / -> ``("result", ShardResult)``;
    * -> ``("invalid", message)`` when the spec cannot be built (a
      :class:`ScenarioError` the coordinator re-raises as such), or
      ``("error", traceback)`` on any other exception, then exit.

    ``incarnation`` counts respawns: the coordinator passes 0 for the
    original process and N for the Nth replacement, so chaos hooks can
    target (or spare) replays deterministically.
    """
    try:
        chaos = [hook for hook in spec.chaos if hook.shard == shard]
        worker = ShardWorker(spec, plan, shard)
        conn.send(("ready",))
        windows = 0
        while True:
            command = conn.recv()
            if command[0] == "run":
                _, until, deliveries = command
                _maybe_chaos(chaos, windows, incarnation)
                windows += 1
                conn.send(("window", worker.run_window(until, deliveries)))
            elif command[0] == "finish":
                conn.send(("result", worker.result()))
                return
            else:  # pragma: no cover - protocol misuse is a bug
                raise RuntimeError(f"unknown command {command[0]!r}")
    except BaseException as exc:
        if isinstance(exc, ScenarioError):
            failure = ("invalid", str(exc))
        else:
            failure = ("error", traceback.format_exc())
        try:
            conn.send(failure)
        except (BrokenPipeError, OSError):  # pragma: no cover
            pass
    finally:
        conn.close()
