"""The pipe transport of a sharded fleet run, and its self-healing.

:func:`~repro.fleet.runner.run_scenario` runs a one-shard plan's
:class:`~repro.fleet.shardworker.ShardWorker` by direct call; a larger
plan comes here.  :func:`drive_shards` spawns one worker process per
shard (each with its own sim kernel), tells every one to run, and
brings every shard's :class:`~repro.fleet.shardworker.ShardResult` home
for the runner to merge.  There is no clock protocol: a shard builds
the whole topology, arms every failure that touches a switch it owns
and runs start to finish without hearing from a peer, so the merged
alarm timeline equals the one-process run's whenever no unowned mirror
would have carried control-plane load of its own (see README).

Self-healing: the coordinator waits at most ``spec.worker_timeout``
wall-clock seconds (60 unless the spec says otherwise) for a worker's
result, so the deadline bounds one shard's whole run; a pipe EOF
(crash) or a missed deadline (hang) triggers a respawn of just that
shard.  A shard's state is a pure function of its seeded build —
fork-start replacements inherit the same module-global counters the
original did (the coordinator never advances them between spawns) — so
the replacement is simply built again and sent the one command again.
Restarts are budgeted per shard (``spec.max_worker_restarts``); a shard
that exhausts its budget is marked failed and the scenario continues
without it, yielding a *degraded* partial result instead of an abort.
"""

from __future__ import annotations

import gc
import multiprocessing
import time as _time
from typing import TYPE_CHECKING, Any

from repro.fleet.metrics import DetectionRecord
from repro.fleet.sharding import ShardPlan
from repro.fleet.shardworker import ScenarioError, ShardResult, worker_main

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
    hit a real exception that a rebuild from the same seed would only
    repeat, so retrying is futile and the traceback surfaces
    immediately.
    """


class _WorkerDied(Exception):
    """Transport-level worker loss: pipe EOF or missed deadline."""


class _ShardDriver:
    """Owns the worker fleet: spawn, the run command, self-healing.

    :meth:`_recv` waits at most ``timeout`` wall-clock seconds before
    declaring the worker hung.  Crash (EOF) and hang funnel into
    :meth:`_respawn`, which starts a fresh process for the shard.  That
    is sound because a shard's state is a pure function of its seeded
    build: fork-start replacements inherit module-global counters
    (xids, nonces) exactly as the original spawn did, since the
    coordinator process never advances them in between.
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
        self.timeout = spec.worker_timeout
        self.budget = spec.max_worker_restarts
        self.workers: list[_WorkerHandle | None] = [
            _WorkerHandle(ctx, spec, plan, shard)
            for shard in range(plan.workers)
        ]
        self.restarts = [0] * plan.workers
        self.failed = [False] * plan.workers

    # ----- lifecycle ----------------------------------------------------

    def shard_status(self) -> list[str]:
        return [
            "failed"
            if self.failed[shard]
            else ("ok" if n == 0 else f"restarted x{n}")
            for shard, n in enumerate(self.restarts)
        ]

    def close(self) -> None:
        for worker in self.workers:
            if worker is not None:
                worker.close()

    def await_ready(self) -> None:
        for shard, worker in enumerate(self.workers):
            assert worker is not None  # nothing has been respawned yet
            try:
                self._recv(worker, "ready")
            except _WorkerDied:
                # _respawn consumes the replacement's ready handshake.
                self._respawn(shard)

    # ----- the run ------------------------------------------------------

    def run(self) -> list[ShardResult]:
        """Tell every shard to run, then await every result.

        The two phases keep shards running concurrently.  A shard that
        exhausts its restart budget contributes no result.
        """
        for shard in range(self.plan.workers):
            self._send_run(shard)
        results = [self._await(shard) for shard in range(self.plan.workers)]
        return [result for result in results if result is not None]

    def _send_run(self, shard: int) -> None:
        worker = self.workers[shard]
        if worker is None:
            return
        try:
            worker.conn.send(("run",))
        except (BrokenPipeError, OSError):
            # A closed pipe resurfaces as EOF in :meth:`_await`, which
            # owns recovery.
            pass

    def _await(self, shard: int) -> ShardResult | None:
        while True:
            worker = self.workers[shard]
            if worker is None:
                return None
            try:
                return self._recv(worker, "result")
            except _WorkerDied:
                if self._respawn(shard):
                    self._send_run(shard)

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
        """Replace a dead/hung worker with a freshly built one.

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
    only a coordinator can fill (restarts, lost shards).
    """
    driver = _ShardDriver(_mp_context(), spec, plan)
    try:
        driver.await_ready()
        build_done = _time.perf_counter()
        results = driver.run()
        run_seconds = _time.perf_counter() - build_done
    finally:
        driver.close()
    health = {
        "worker_restarts": sum(driver.restarts),
        "shards_failed": sum(driver.failed),
        "shard_status": driver.shard_status(),
    }
    return results, run_seconds, health


def merge_detections(results: list[ShardResult]) -> list[DetectionRecord]:
    """Fuse per-shard detection records by global failure-spec index.

    Single-owner specs appear in exactly one shard.  A cut-crossing
    spec appears once per adjacent shard — same fire time (each armed
    it at the spec's ``at``), each half knowing only its own switches'
    cookies — so the merged record unions node and cookie sets and
    keeps the alarm one process would have attributed.
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
            # Earliest alarm wins; a tie goes to the smaller node, as
            # in one process (which scans nodes in ``repr`` order).
            if other.detected_at is not None and (
                merged.detected_at is None
                or (other.detected_at, repr(other.detected_on))
                < (merged.detected_at, repr(merged.detected_on))
            ):
                merged.detected_at = other.detected_at
                merged.detected_on = other.detected_on
                merged.alarm_kind = other.alarm_kind
        detections.append(merged)
    return detections
