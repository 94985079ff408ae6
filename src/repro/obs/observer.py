"""The observer facade: one object every layer publishes through.

:class:`Observer` bundles a :class:`~repro.obs.trace.TraceRecorder`, a
:class:`~repro.obs.metrics.MetricsRegistry`, a span-id allocator and a
clock binding.  Components hold an ``obs`` attribute and guard every
publication site with ``if self.obs.enabled:`` — with the default
:class:`NullObserver` (:data:`NULL_OBSERVER`), the disabled path is a
single attribute read and a falsy test, nothing else (no argument
construction, no dict lookups; a traced ``bench`` run reads
``obs.self_us`` 0 because no hot path calls into the NullObserver).

:meth:`Observer.install` binds the observer to a
:class:`~repro.sim.kernel.Simulator`: the clock becomes the sim clock
(every event and metric is stamped with *simulation* time) and, when a
``snapshot_interval`` is configured, the kernel's event-dispatch hook
drives periodic metric snapshots.  Snapshots ride the hook instead of
self-rescheduling timer events so an idle deployment's event queue can
still drain.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceRecorder


class Observer:
    """Live tracing + metrics, stamped with simulation time.

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
        self.metrics = MetricsRegistry()
        self.snapshot_interval = snapshot_interval or None
        self._clock: Callable[[], float] = lambda: 0.0
        self._spans = 0
        self._next_snapshot: float | None = None

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

    def install(self, sim: Any) -> None:
        """Bind to a simulator: sim-time clock + snapshot pacing.

        ``sim`` is anything with ``.now`` and (for snapshots)
        ``set_dispatch_hook`` — in practice a
        :class:`~repro.sim.kernel.Simulator`; typed loosely so this
        package stays dependency-free.
        """
        prop = getattr(type(sim), "now", None)
        if isinstance(prop, property) and prop.fget is not None:
            # Bind the property getter directly: one Python call per
            # event stamp instead of lambda + property dispatch.
            self.bind_clock(prop.fget.__get__(sim))
        else:
            self.bind_clock(lambda: sim.now)
        if self.snapshot_interval:
            self._next_snapshot = sim.now  # t=0 baseline snapshot
            sim.set_dispatch_hook(self._on_dispatch)

    def _on_dispatch(self, ts: float) -> None:
        """Kernel hook: snapshot each time sim time crosses a boundary."""
        due = self._next_snapshot
        if due is None or ts < due:
            return
        interval = self.snapshot_interval
        assert interval is not None
        while due <= ts:
            self.metrics.snapshot(due)
            due += interval
        self._next_snapshot = due

    def snapshot_now(self) -> dict[str, Any]:
        """Take one snapshot at the current sim time."""
        return self.metrics.snapshot(self._clock())


class _NullInstrument:
    """Accepts every instrument method as a no-op."""

    __slots__ = ()
    value = 0.0
    count = 0
    sum = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class _NullRegistry:
    """Metrics sink that swallows everything (cold-path safety net)."""

    __slots__ = ()
    snapshots: list[dict[str, Any]] = []

    def counter(self, name: str, **labels: Any) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, **labels: Any) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, **labels: Any) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def add_collect_hook(self, hook: Callable[[], None]) -> None:
        pass

    def snapshot(self, ts: float) -> dict[str, Any]:
        return {"ts": ts, "counters": {}, "gauges": {}, "histograms": {}}

    def prometheus_text(self) -> str:
        return ""


class NullObserver:
    """The default, disabled observer.

    ``enabled`` is False, so correctly guarded hot paths never call
    anything here; the methods exist (as no-ops) so unguarded cold
    paths stay safe too.  One module-level instance
    (:data:`NULL_OBSERVER`) is shared by every component.
    """

    enabled = False

    def __init__(self) -> None:
        self.trace = TraceRecorder(capacity=1)
        self.metrics: Any = _NullRegistry()
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

    def install(self, sim: Any) -> None:
        pass

    def snapshot_now(self) -> dict[str, Any]:
        return self.metrics.snapshot(0.0)


#: The shared disabled observer every component defaults to.
NULL_OBSERVER = NullObserver()
