"""The discrete-event simulation kernel.

A :class:`Simulator` owns a clock and an event queue.  Components schedule
callbacks with :meth:`Simulator.schedule` (relative delay) or
:meth:`Simulator.at` (absolute time); :meth:`Simulator.run` dispatches
events in time order until the queue drains or a time/event limit is hit.
"""

from __future__ import annotations

from typing import Callable

from repro.sim.clock import Clock
from repro.sim.events import Event, EventQueue


class Simulator:
    """Deterministic discrete-event simulator.

    Example:
        >>> sim = Simulator()
        >>> fired = []
        >>> _ = sim.schedule(1.5, lambda: fired.append(sim.now))
        >>> sim.run()
        >>> fired
        [1.5]
    """

    def __init__(self) -> None:
        self.clock = Clock()
        self._queue = EventQueue()
        self._dispatched = 0
        self._running = False
        #: Called with the event time before every dispatched event
        #: runs.  Observability (periodic metric snapshots) rides this
        #: hook instead of self-rescheduling timer events, so an
        #: otherwise idle deployment's queue can still drain.
        self._dispatch_hook: Callable[[float], None] | None = None

    def set_dispatch_hook(
        self, hook: Callable[[float], None] | None
    ) -> None:
        """Install (or clear) the pre-dispatch hook.

        The hook must be passive: it runs outside the event queue and
        must not schedule, cancel, or otherwise perturb simulation
        state — it exists so observers can pace themselves off the
        advancing clock without keeping the queue alive.
        """
        self._dispatch_hook = hook

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self.clock.now

    @property
    def events_dispatched(self) -> int:
        """Number of events dispatched so far (skips cancelled events)."""
        return self._dispatched

    def schedule(self, delay: float, action: Callable[[], None]) -> Event:
        """Schedule ``action`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past: delay={delay}")
        return self._queue.push(self.now + delay, action)

    def at(self, time: float, action: Callable[[], None]) -> Event:
        """Schedule ``action`` at an absolute simulation ``time``."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule in the past: now={self.now}, time={time}"
            )
        return self._queue.push(time, action)

    def run(
        self, until: float | None = None, max_events: int | None = None
    ) -> None:
        """Dispatch events in time order.

        Args:
            until: stop once the next event would fire strictly after this
                time; the clock is left at ``until``.  ``None`` runs to
                queue exhaustion.
            max_events: safety valve against runaway simulations.
        """
        if self._running:
            raise RuntimeError("Simulator.run() is not reentrant")
        self._running = True
        try:
            pop = self._queue.pop
            advance = self.clock.advance
            budget = float("inf") if max_events is None else max_events
            while budget > 0:
                event = pop(until)
                if event is None:
                    break
                if self._dispatch_hook is not None:
                    self._dispatch_hook(event.time)
                advance(event.time)
                event.action()
                self._dispatched += 1
                budget -= 1
            if until is not None and until > self.now:
                self.clock.advance(until)
        finally:
            self._running = False

    def run_for(self, duration: float) -> None:
        """Run for ``duration`` seconds of simulated time from now."""
        self.run(until=self.now + duration)
