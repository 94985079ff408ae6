"""Conservative-time coordinator: the pipe transport of a fleet run.

:func:`~repro.fleet.runner.run_scenario` runs a one-shard plan's
:class:`~repro.fleet.shardworker.ShardWorker` by direct call; a larger
plan comes here.  :func:`drive_shards` spawns one worker process per
shard (each with its own sim kernel), drives the barrier protocol over
``multiprocessing`` pipes, and brings every shard's
:class:`~repro.fleet.shardworker.ShardResult` home for the runner to
merge.

The barrier rule: windows exist only because of *cross-shard*
interaction.  A pure partition (no topology link crosses the cut) runs
each shard start-to-finish in one window with zero barriers — that is
the configuration whose alarm timeline is byte-identical to a
single-process run.  With cut links, the coordinator steps all shards
through quantum-sized windows; a failure envelope announced inside
window k is delivered at the start of window k+1, so cross-shard
effects land at most one quantum late.
Windows no shard has events in are fast-forwarded using each kernel's
:meth:`~repro.sim.kernel.Simulator.next_event_time` peek.

Self-healing: every reply doubles as a heartbeat.  The coordinator
waits at most ``spec.worker_timeout`` wall-clock seconds for each one;
a pipe EOF (crash) or a missed deadline (hang) triggers a respawn of
just that shard.  Because shard state is a pure function of the
commands a worker has processed — the deployment build is seeded, and
fork-start replacements inherit the same module-global counters the
original did (the coordinator never advances them between spawns) —
the replacement is brought current by replaying the shard's command
history and discarding the replayed replies, then the in-flight
command is re-sent.  Restarts are budgeted per shard
(``spec.max_worker_restarts``); a shard that exhausts its budget is
marked failed and the scenario continues without it, yielding a
*degraded* partial result instead of an abort.
"""

from __future__ import annotations

import gc
import multiprocessing
import time as _time
from typing import TYPE_CHECKING, Any

from repro.fleet.metrics import DetectionRecord
from repro.fleet.sharding import ShardPlan, spec_nodes
from repro.fleet.shardworker import (
    ScenarioError,
    ShardResult,
    _announcer,
    worker_main,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from multiprocessing.connection import Connection

    from repro.fleet.runner import ScenarioSpec


def _mp_context() -> multiprocessing.context.BaseContext:
    """Fork when the platform offers it (workers inherit the built spec
    cheaply); whatever the platform default is otherwise."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        return multiprocessing.get_context()


def default_barrier_quantum(spec: "ScenarioSpec") -> float:
    """One probe timeout, capped at a quarter of the scenario.

    The probe timeout is the natural cross-shard reaction scale: a
    failure's first observable consequence is a probe timing out, so
    delivering envelopes a timeout late keeps detection latencies
    within one quantum of the in-process run.
    """
    return min(spec.probe_timeout, spec.duration / 4.0)


#: Wall-clock seconds a worker may go silent before it counts as hung
#: (overridable per scenario via ``ScenarioSpec.worker_timeout``).
DEFAULT_WORKER_TIMEOUT = 60.0


class _WorkerHandle:
    """One worker process plus its coordinator-side pipe end."""

    def __init__(
        self,
        ctx: multiprocessing.context.BaseContext,
        spec: "ScenarioSpec",
        plan: ShardPlan,
        shard: int,
        incarnation: int = 0,
    ) -> None:
        self.shard = shard
        self.conn: "Connection"
        self.conn, child = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=worker_main,
            args=(child, spec, plan, shard, incarnation),
            daemon=True,
            name=f"repro-shard-{shard}.{incarnation}",
        )
        # Fork from a frozen heap: the worker inherits this process's
        # whole heap copy-on-write, and a full collection due at the
        # fork would have it traverse — and so copy — all of it.
        # Frozen objects are out of the child's collector's reach (and
        # its generation counts start at zero); the parent thaws.
        gc.freeze()
        try:
            self.process.start()
        finally:
            gc.unfreeze()
        child.close()
        self.next_event: float | None = None

    def close(self) -> None:
        try:
            self.conn.close()
        finally:
            if self.process.is_alive():
                self.process.terminate()
            self.process.join(timeout=5.0)


class ShardRunError(RuntimeError):
    """A worker raised a deterministic error or broke protocol.

    Deliberately *not* raised for crashes or hangs — those go through
    the respawn path.  A worker that reports ``("error", traceback)``
    hit a real exception that deterministic replay would only repeat,
    so retrying is futile and the traceback surfaces immediately.
    """


class _WorkerDied(Exception):
    """Transport-level worker loss: pipe EOF or missed heartbeat."""


class _ShardDriver:
    """Owns the worker fleet: spawn, command fan-out, self-healing.

    Replies double as heartbeats — :meth:`_recv` waits at most
    ``timeout`` wall-clock seconds before declaring the worker hung.
    Crash (EOF) and hang funnel into :meth:`_respawn`, which replays
    the shard's completed command history into a fresh process.
    Replay is sound because a shard's state is a pure function of its
    seeded build plus the command sequence: fork-start replacements
    inherit module-global counters (xids, nonces) exactly as the
    original spawn did, since the coordinator process never advances
    them in between.
    """

    def __init__(
        self,
        ctx: multiprocessing.context.BaseContext,
        spec: "ScenarioSpec",
        plan: ShardPlan,
    ) -> None:
        self.ctx = ctx
        self.spec = spec
        self.plan = plan
        self.timeout = spec.worker_timeout or DEFAULT_WORKER_TIMEOUT
        self.budget = spec.max_worker_restarts
        self.workers: list[_WorkerHandle | None] = [
            _WorkerHandle(ctx, spec, plan, shard)
            for shard in range(plan.workers)
        ]
        #: Completed ``("run", ...)`` commands per shard, replayed into
        #: respawned replacements to rebuild pre-crash state.
        self.history: list[list[tuple]] = [[] for _ in range(plan.workers)]
        self.restarts = [0] * plan.workers
        self.failed = [False] * plan.workers

    # ----- lifecycle ----------------------------------------------------

    @property
    def total_restarts(self) -> int:
        return sum(self.restarts)

    def shard_status(self) -> list[str]:
        return [
            "failed"
            if self.failed[shard]
            else ("ok" if n == 0 else f"restarted x{n}")
            for shard, n in enumerate(self.restarts)
        ]

    def live(self) -> list[_WorkerHandle]:
        return [w for w in self.workers if w is not None]

    def close(self) -> None:
        for worker in self.workers:
            if worker is not None:
                worker.close()

    def await_ready(self) -> None:
        for shard in range(self.plan.workers):
            worker = self.workers[shard]
            if worker is None:  # pragma: no cover - defensive
                continue
            try:
                self._recv(worker, "ready")
            except _WorkerDied:
                # _respawn consumes the replacement's ready handshake
                # (and replays the — still empty — history).
                self._respawn(shard)

    # ----- command fan-out ----------------------------------------------

    def broadcast(
        self, commands: dict[int, tuple], expect: str
    ) -> dict[int, Any]:
        """Send each shard its command, then await every reply.

        The two phases keep shards running concurrently.  Send errors
        are swallowed (a closed pipe resurfaces as EOF in the await
        phase, which owns recovery); a shard that fails its restart
        budget mid-await yields ``None`` in the result map.
        """
        for shard, command in commands.items():
            worker = self.workers[shard]
            if worker is None:
                continue
            try:
                worker.conn.send(command)
            except (BrokenPipeError, OSError):
                pass
        return {
            shard: self._await(shard, command, expect)
            for shard, command in commands.items()
        }

    def _await(self, shard: int, command: tuple, expect: str) -> Any:
        while True:
            worker = self.workers[shard]
            if worker is None:
                return None
            try:
                payload = self._recv(worker, expect)
            except _WorkerDied:
                if not self._respawn(shard):
                    return None
                # The replacement replayed history but never saw the
                # in-flight command: re-send it and await again.
                try:
                    self.workers[shard].conn.send(command)
                except (BrokenPipeError, OSError):
                    pass
                continue
            if command[0] == "run":
                self.history[shard].append(command)
            return payload

    def _recv(self, worker: _WorkerHandle, expect: str) -> Any:
        if not worker.conn.poll(self.timeout):
            raise _WorkerDied(
                f"shard {worker.shard} missed its {self.timeout:g}s "
                "reply deadline"
            )
        try:
            message = worker.conn.recv()
        except (EOFError, OSError) as exc:
            raise _WorkerDied(str(exc)) from exc
        if message[0] == "invalid":
            raise ScenarioError(message[1])
        if message[0] == "error":
            raise ShardRunError(
                f"shard {worker.shard} worker failed:\n{message[1]}"
            )
        if message[0] != expect:
            raise ShardRunError(
                f"shard {worker.shard} protocol error: got "
                f"{message[0]!r}, expected {expect!r}"
            )
        return message[1] if len(message) > 1 else None

    # ----- self-healing -------------------------------------------------

    def _respawn(self, shard: int) -> bool:
        """Replace a dead/hung worker; replay its history.

        Every spawn attempt counts against the shard's restart budget.
        Returns False once the budget is exhausted — the shard is then
        marked failed and excluded from the rest of the run.
        """
        old = self.workers[shard]
        if old is not None:
            old.close()
        while True:
            if self.restarts[shard] >= self.budget:
                self.workers[shard] = None
                self.failed[shard] = True
                return False
            self.restarts[shard] += 1
            # Incarnation == total spawn attempts for this shard, so
            # every process ever started gets a distinct number.
            worker = _WorkerHandle(
                self.ctx,
                self.spec,
                self.plan,
                shard,
                incarnation=self.restarts[shard],
            )
            self.workers[shard] = worker
            try:
                self._recv(worker, "ready")
                for command in self.history[shard]:
                    worker.conn.send(command)
                    # Replay replies are byte-identical to the ones the
                    # original already delivered; discard them.
                    self._recv(worker, "window")
            except _WorkerDied:
                worker.close()
                continue
            return True


def drive_shards(
    spec: "ScenarioSpec", plan: ShardPlan
) -> tuple[list[ShardResult], float, dict[str, Any]]:
    """Run ``plan``'s shards in worker processes, start to finish.

    Returns the surviving shards' results in shard order, the
    wall-clock seconds from "every worker built" to "every result
    home", and the :class:`~repro.fleet.metrics.FleetMetrics` fields
    only a coordinator can fill (barriers, restarts, lost shards).
    """
    driver = _ShardDriver(_mp_context(), spec, plan)
    try:
        driver.await_ready()
        build_done = _time.perf_counter()
        barriers = _drive_windows(spec, plan, driver)
        replies = driver.broadcast(
            {w.shard: ("finish",) for w in driver.live()}, "result"
        )
        results: list[ShardResult] = [
            reply for reply in replies.values() if reply is not None
        ]
        run_seconds = _time.perf_counter() - build_done
    finally:
        driver.close()
    results.sort(key=lambda res: res.shard)
    health = {
        "barriers": barriers,
        "worker_restarts": driver.total_restarts,
        "shards_failed": sum(driver.failed),
        "shard_status": driver.shard_status(),
    }
    return results, run_seconds, health


def _route_envelopes(
    spec: "ScenarioSpec",
    plan: ShardPlan,
    emitted: list[tuple[float, int]],
) -> dict[int, list[tuple[float, int]]]:
    """Address announced envelopes to every owning shard but the
    announcer (who already applied its half at fire time)."""
    routed: dict[int, list[tuple[float, int]]] = {}
    for fire_time, index in emitted:
        nodes = spec_nodes(spec.failures[index])
        owners = {plan.owner(node) for node in nodes}
        owners.discard(_announcer(plan, nodes))
        for shard in owners:
            routed.setdefault(shard, []).append((fire_time, index))
    return routed


def _run_and_ingest(
    driver: _ShardDriver, commands: dict[int, tuple]
) -> list[tuple[float, int]]:
    """One barrier round: fan out run commands, ingest the replies.

    A shard that fails its restart budget mid-round simply contributes
    nothing (its reply is ``None``); the round still completes for the
    survivors.
    """
    emitted: list[tuple[float, int]] = []
    for shard, payload in driver.broadcast(commands, "window").items():
        if payload is None:
            continue
        emitted.extend(payload["emitted"])
        worker = driver.workers[shard]
        if worker is not None:
            worker.next_event = payload["next_event"]
    return emitted


def _drive_windows(
    spec: "ScenarioSpec", plan: ShardPlan, driver: _ShardDriver
) -> int:
    """Step every shard to ``spec.duration``; returns the barrier count.

    Pure partitions take the single-window fast path: no cross-shard
    links means no envelopes, so each worker runs its whole scenario
    uninterrupted.
    """
    duration = spec.duration
    if plan.is_pure:
        driver.broadcast(
            {w.shard: ("run", duration, {}) for w in driver.live()},
            "window",
        )
        return 0

    quantum = spec.barrier_quantum or default_barrier_quantum(spec)
    pending: dict[int, list[tuple[float, int]]] = {}
    barriers = 0
    now = 0.0
    while now < duration:
        target = min(duration, now + quantum)
        workers = driver.live()
        next_times = [
            w.next_event for w in workers if w.next_event is not None
        ]
        if barriers and not next_times and not pending:
            # Every kernel is idle and nothing is in flight: only the
            # final clock advance remains.
            target = duration
        elif barriers and next_times and min(next_times) >= target:
            # No shard has an event inside this window; fast-forward
            # one quantum past the earliest pending event instead of
            # lock-stepping through empty quanta.
            target = min(duration, min(next_times) + quantum)
        commands: dict[int, tuple] = {}
        for worker in workers:
            deliveries: dict[str, Any] = {}
            if worker.shard in pending:
                deliveries["envelopes"] = pending[worker.shard]
            commands[worker.shard] = ("run", target, deliveries)
        pending = {}
        emitted = _run_and_ingest(driver, commands)
        for shard, envelopes in _route_envelopes(
            spec, plan, emitted
        ).items():
            if driver.workers[shard] is not None:
                pending.setdefault(shard, []).extend(envelopes)
        barriers += 1
        now = target
    if pending:
        # Envelopes announced in the final window: deliver them in one
        # zero-length window so the peer's injection record is filled
        # (no sim time remains for alarms, but the merged report must
        # still describe the injection).
        _run_and_ingest(
            driver,
            {
                w.shard: (
                    "run",
                    duration,
                    {"envelopes": pending.get(w.shard, [])},
                )
                for w in driver.live()
            },
        )
        barriers += 1
    return barriers


def merge_detections(results: list[ShardResult]) -> list[DetectionRecord]:
    """Fuse per-shard detection records by global failure-spec index.

    Single-owner specs appear in exactly one shard.  A cut-crossing
    spec appears once per adjacent shard — same fire time (the
    envelope carries the announcer's clock), each half knowing only
    its own switches' cookies — so the merged record unions node and
    cookie sets and keeps the earliest attributable alarm.
    """
    by_index: dict[int, list[DetectionRecord]] = {}
    for res in results:
        for index, record in zip(
            res.injection_indices, res.metrics.detections
        ):
            by_index.setdefault(index, []).append(record)
    detections: list[DetectionRecord] = []
    for index in sorted(by_index):
        parts = by_index[index]
        merged = parts[0]
        injection = merged.injection
        for other in parts[1:]:
            injection.nodes |= other.injection.nodes
            injection.cookies |= other.injection.cookies
            injection.broad = injection.broad or other.injection.broad
            if injection.error and not other.injection.error:
                injection.error = None
                injection.description = other.injection.description
            if other.detected_at is not None and (
                merged.detected_at is None
                or other.detected_at < merged.detected_at
            ):
                merged.detected_at = other.detected_at
                merged.detected_on = other.detected_on
                merged.alarm_kind = other.alarm_kind
        detections.append(merged)
    return detections
