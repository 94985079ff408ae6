"""The observer facade: one object every layer publishes through.

:class:`Observer` bundles a :class:`~repro.obs.trace.TraceRecorder`, a
span-id allocator, a clock binding and the pacing of sim-time metric
snapshots.  Components hold an ``obs`` attribute and guard every
publication site with ``if self.obs.enabled:`` — with the default
:class:`NullObserver` (:data:`NULL_OBSERVER`), the disabled path is a
single attribute read and a falsy test, nothing else (no argument
construction, no dict lookups; a traced ``bench`` run reads
``obs.self_us`` 0 because no hot path calls into the NullObserver).

:meth:`Observer.install` binds the observer to a
:class:`~repro.sim.kernel.Simulator` and to a *collector*, a callable
returning the current metric :data:`~repro.obs.metrics.Series` (for a
fleet, :func:`~repro.fleet.metrics.live_series` over its scrape).  The
clock becomes the sim clock (every event and snapshot is stamped with
*simulation* time) and, when a ``snapshot_interval`` is configured, the
kernel's dispatch hook takes each due snapshot before the first event
past it runs.  Snapshots ride the hook instead of self-rescheduling
timer events so an idle deployment's event queue can still drain.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.obs.metrics import Series, snapshot
from repro.obs.trace import TraceRecorder

#: A callable returning the current metric series.
Collector = Callable[[], Iterable[Series]]


class Observer:
    """Live tracing + metric snapshots, stamped with simulation time.

    Args:
        snapshot_interval: sim seconds between metric snapshots; None
            (or 0) disables periodic snapshots (explicit
            :meth:`snapshot_now` calls still work).
    """

    enabled = True

    def __init__(
        self,
        snapshot_interval: float | None = None,
    ) -> None:
        if snapshot_interval is not None and snapshot_interval < 0:
            raise ValueError(
                f"snapshot_interval must be >= 0: {snapshot_interval}"
            )
        self.trace = TraceRecorder()
        #: Snapshot dicts in sim-time order (see :meth:`snapshot_now`).
        self.snapshots: list[dict[str, Any]] = []
        self.snapshot_interval = snapshot_interval or None
        self._clock: Callable[[], float] = lambda: 0.0
        self._collect: Collector = tuple
        self._spans = 0
        self._next_snapshot = 0.0

    # ----- clock and spans --------------------------------------------------

    def now(self) -> float:
        """The bound clock's current (simulation) time."""
        return self._clock()

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Stamp subsequent events/snapshots with ``clock()``."""
        self._clock = clock

    def next_span(self) -> int:
        """A fresh span id (one probe's or one update's lifecycle)."""
        self._spans += 1
        return self._spans

    # ----- publication --------------------------------------------------------

    def emit(
        self,
        etype: str,
        node: object = None,
        span: int | None = None,
        **args: Any,
    ) -> None:
        """Record one trace event at the current sim time."""
        self.trace.record(self._clock(), etype, node, span, args)

    # ----- simulator wiring -----------------------------------------------------

    def install(self, sim: Any, collect: Collector) -> None:
        """Bind to a simulator and a collector: sim-time clock +
        snapshot pacing.

        ``sim`` is anything with ``.now`` and (for snapshots)
        ``set_dispatch_hook`` — in practice a
        :class:`~repro.sim.kernel.Simulator`; typed loosely so this
        package stays dependency-free.  ``collect`` supplies every
        snapshot's series.
        """
        prop = getattr(type(sim), "now", None)
        if isinstance(prop, property) and prop.fget is not None:
            # Bind the property getter directly: one Python call per
            # event stamp instead of lambda + property dispatch.
            self.bind_clock(prop.fget.__get__(sim))
        else:
            self.bind_clock(lambda: sim.now)
        self._collect = collect
        if self.snapshot_interval:
            self._next_snapshot = sim.now  # t=0 baseline snapshot
            sim.set_dispatch_hook(self._before_dispatch)

    def _before_dispatch(self, ts: float) -> None:
        """Kernel hook: before an event at ``ts`` runs, snapshot every
        boundary it passes, so a snapshot stamped t counts exactly the
        events at or before t."""
        due = self._next_snapshot
        if ts <= due:
            return
        interval = self.snapshot_interval
        assert interval is not None
        while due < ts:
            self._record(snapshot(due, self._collect()))
            due += interval
        self._next_snapshot = due

    def snapshot_now(
        self, series: Iterable[Series] | None = None
    ) -> dict[str, Any]:
        """Take one snapshot at the current sim time, of ``series`` or
        else of the installed collector's.

        Appended to :attr:`snapshots`; a snapshot at the previous one's
        ``ts`` supersedes it, so timestamps are unique.
        """
        if series is None:
            series = self._collect()
        return self._record(snapshot(self._clock(), series))

    def _record(self, snap: dict[str, Any]) -> dict[str, Any]:
        if self.snapshots and self.snapshots[-1]["ts"] == snap["ts"]:
            self.snapshots[-1] = snap
        else:
            self.snapshots.append(snap)
        return snap


class NullObserver:
    """The default, disabled observer.

    ``enabled`` is False, so correctly guarded hot paths never call
    anything here; the methods exist (as no-ops) so unguarded cold
    paths stay safe too.  One module-level instance
    (:data:`NULL_OBSERVER`) is shared by every component.
    """

    enabled = False
    snapshots: tuple[dict[str, Any], ...] = ()

    def __init__(self) -> None:
        self.trace = TraceRecorder(capacity=1)
        self.snapshot_interval = None

    def now(self) -> float:
        return 0.0

    def bind_clock(self, clock: Callable[[], float]) -> None:
        pass

    def next_span(self) -> int:
        return 0

    def emit(
        self,
        etype: str,
        node: object = None,
        span: int | None = None,
        **args: Any,
    ) -> None:
        pass

    def install(self, sim: Any, collect: Collector) -> None:
        pass

    def snapshot_now(
        self, series: Iterable[Series] | None = None
    ) -> dict[str, Any]:
        return snapshot(0.0, ())


#: The shared disabled observer every component defaults to.
NULL_OBSERVER = NullObserver()
