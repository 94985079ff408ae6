"""One shard of a fleet scenario: the engine every run goes through.

A :class:`ShardWorker` owns one shard of the topology and its own
discrete-event kernel, switches and Monitors; it is the one place that
builds a deployment from a :class:`~repro.fleet.runner.ScenarioSpec`,
arms its failures, runs its kernel for the scenario's duration and
collects its metrics.  A one-shard plan runs its worker in the calling
process; a larger plan runs each worker in its own process
(:func:`worker_main`), started and awaited over pipes by
:mod:`repro.fleet.coordinator`.

The worker builds the **full** topology — identical port numbers,
switch numbers, catching plan, and per-switch RNG streams on every
worker, whatever the worker count — but only its owned switches get
Monitors, production rules, and workload activity.  Unowned switches
exist as passive mirrors holding just their catching rules, which is
exactly what an owned switch's probes need from an unowned downstream
neighbor: probe transit never crosses the process boundary.

Nothing else crosses it either.  A failure spec is armed, at its own
``at``, by every shard that owns a switch it references — a link
failure across the cut by both adjacent shards, each on its own copy
of the link — so a shard never waits on a peer and runs start to
finish in one go.
"""

from __future__ import annotations

import os
import time as _time
import traceback
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING

from repro.core.catching import CapacityError
from repro.fleet.deployment import FleetDeployment
from repro.fleet.failures import Injection, arm_failure
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

    Fires on the worker's own kernel at simulated second ``at``,
    exiting the process without ceremony — the coordinator sees a pipe
    EOF, exactly like a real crash.  By default only ``incarnation`` 0
    (the original process) dies, so the respawned replacement runs
    cleanly; ``incarnation=None`` kills every incarnation, which
    exhausts the restart budget and exercises the degraded-result path.
    """

    shard: int
    at: float = 0.0
    incarnation: int | None = 0

    kind = "kill"


@dataclass(frozen=True)
class WorkerHang:
    """Chaos hook: wedge one shard's worker instead of killing it.

    Sleeps ``sleep`` wall-clock seconds at simulated second ``at``, so
    the coordinator's reply deadline expires and the missed-deadline
    path (terminate + respawn) runs instead of the pipe-EOF path.
    """

    shard: int
    at: float = 0.0
    incarnation: int | None = 0
    sleep: float = 3600.0

    kind = "hang"


def _arm_chaos(
    worker: "ShardWorker",
    hooks: "tuple[WorkerCrash | WorkerHang, ...]",
    incarnation: int,
) -> None:
    """Schedule this incarnation's hooks on the worker's own kernel."""
    for hook in hooks:
        if hook.shard != worker.shard:
            continue
        if hook.incarnation is not None and hook.incarnation != incarnation:
            continue
        if hook.kind == "kill":
            # A real crash, not an exception: no "error" message, no
            # atexit, just a dead pipe for the coordinator to find.
            action = partial(os._exit, 13)
        else:
            action = partial(_time.sleep, hook.sleep)
        worker.deployment.sim.at(hook.at, action)


@dataclass
class ShardResult:
    """Everything one worker ships home after its run."""

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


class ShardWorker:
    """One shard's deployment: build, arm, run, collect."""

    def __init__(
        self, spec: "ScenarioSpec", plan: ShardPlan, shard: int
    ) -> None:
        from repro.fleet.runner import ALGORITHMS, PROFILES

        self.spec = spec
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
        #: Global spec index -> live Injection record on this shard:
        #: every spec that references a switch the shard owns, armed at
        #: the spec's own time (a cut-crossing spec by each adjacent
        #: shard; ``merge_detections`` unions their records).
        self.injections: dict[int, Injection] = {
            index: arm_failure(self.deployment, fspec, index)
            for index, fspec in enumerate(spec.failures)
            if any(plan.owner(node) == shard for node in spec_nodes(fspec))
        }
        self.deployment.start_monitoring()

    def run(self) -> None:
        """Run the shard's kernel for the scenario's duration."""
        self.deployment.sim.run(self.spec.duration)

    # ----- final collection ---------------------------------------------

    def result(self) -> ShardResult:
        """Collect this shard's metrics bundle after the run."""
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
    """Process entry point: build, handshake, run, ship the result.

    Protocol (coordinator side in :mod:`repro.fleet.coordinator`):

    * -> ``("ready",)`` once the shard deployment is built;
    * <- ``("run",)`` / -> ``("result", ShardResult)``;
    * -> ``("invalid", message)`` when the spec cannot be built (a
      :class:`ScenarioError` the coordinator re-raises as such), or
      ``("error", traceback)`` on any other exception, then exit.

    ``incarnation`` counts respawns: the coordinator passes 0 for the
    original process and N for the Nth replacement, so chaos hooks can
    target (or spare) replacements deterministically.
    """
    try:
        worker = ShardWorker(spec, plan, shard)
        _arm_chaos(worker, spec.chaos, incarnation)
        conn.send(("ready",))
        command = conn.recv()
        if command != ("run",):  # pragma: no cover - protocol misuse
            raise RuntimeError(f"unknown command {command!r}")
        worker.run()
        conn.send(("result", worker.result()))
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
