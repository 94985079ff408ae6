"""The discrete-event simulation kernel.

A :class:`Simulator` holds the virtual clock (``now``, seconds, moved
forward only by :meth:`Simulator.run`) and a binary heap of
``(time, seq, event)`` entries.  Components schedule callbacks with
:meth:`Simulator.schedule` (relative delay) or :meth:`Simulator.at`
(absolute time); :meth:`Simulator.run` dispatches them in time order.
``seq`` is unique and increasing, so ties in time dispatch in
scheduling order and comparing two entries never reaches the
:class:`Event`: every heap sift is a C-level tuple comparison.

A cancelled event releases its action at once, so whatever the
callback's closure holds is freed at ``cancel()``, not when the entry
reaches the top of the heap.  The entry itself is dropped when ``run``
pops it, or in bulk: once cancelled entries are more than half of
``max(len(heap), _SWEEP_FLOOR)``, the heap is rebuilt from its live
entries.  Each rebuild removes more than half of what it scans, so a
cancel costs O(1) amortised, and the heap never holds more than
``max(_SWEEP_FLOOR, 2 * live)`` entries.  Only cancelled entries leave
and the ``(time, seq)`` keys are unique, so a rebuild changes no
dispatch.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable

#: Cancelled entries are swept only once they are more than half of
#: the heap and more than half of this floor; fewer wait to be popped.
_SWEEP_FLOOR = 100


def _released() -> None:
    """The action of every cancelled event."""


class Event:
    """A scheduled callback: the handle ``schedule`` and ``at`` return.

    Attributes:
        action: zero-argument callable run when the event is dispatched;
            a cancelled event drops it for a shared no-op.
        cancelled: a cancelled event is never dispatched; its heap entry
            is skipped when popped, or swept with the others in bulk.
    """

    __slots__ = ("action", "cancelled", "_sim")

    def __init__(self, action: Callable[[], None], sim: Simulator) -> None:
        self.action = action
        self.cancelled = False
        #: The simulator whose heap holds the event; None once the event
        #: is popped or cancelled.
        self._sim: Simulator | None = sim

    def cancel(self) -> None:
        """Never dispatch the event, and release its action now."""
        self.cancelled = True
        self.action = _released
        sim = self._sim
        if sim is not None:
            self._sim = None
            sim._cancelled += 1
            cancelled2 = 2 * sim._cancelled
            if cancelled2 > _SWEEP_FLOOR and cancelled2 > len(sim._heap):
                sim._sweep()


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
        self._now = 0.0
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._dispatched = 0
        #: Cancelled entries still in the heap.
        self._cancelled = 0
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
        return self._now

    @property
    def events_dispatched(self) -> int:
        """Number of events dispatched so far (skips cancelled events)."""
        return self._dispatched

    def schedule(self, delay: float, action: Callable[[], None]) -> Event:
        """Schedule ``action`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past: delay={delay}")
        event = Event(action, self)
        heapq.heappush(self._heap, (self._now + delay, next(self._seq), event))
        return event

    def at(self, time: float, action: Callable[[], None]) -> Event:
        """Schedule ``action`` at an absolute simulation ``time``."""
        if time < self._now:
            raise ValueError(
                f"cannot schedule in the past: now={self._now}, time={time}"
            )
        event = Event(action, self)
        heapq.heappush(self._heap, (time, next(self._seq), event))
        return event

    def run(self, until: float | None = None) -> None:
        """Dispatch events in time order until the heap drains or the
        next live event would fire strictly after ``until``; the clock
        is then left at ``until`` (later events stay queued)."""
        if self._running:
            raise RuntimeError("Simulator.run() is not reentrant")
        self._running = True
        heap = self._heap
        pop = heapq.heappop
        try:
            while heap:
                time, _, event = heap[0]
                if event.cancelled:
                    pop(heap)
                    self._cancelled -= 1
                    continue
                if until is not None and time > until:
                    break
                pop(heap)
                event._sim = None
                # A live pop raises the cancelled share, as a cancel does.
                cancelled2 = 2 * self._cancelled
                if cancelled2 > _SWEEP_FLOOR and cancelled2 > len(heap):
                    self._sweep()
                if self._dispatch_hook is not None:
                    self._dispatch_hook(time)
                self._now = time
                event.action()
                self._dispatched += 1
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._running = False

    def _sweep(self) -> None:
        """Rebuild the heap, in place, from its live entries."""
        heap = self._heap
        heap[:] = [entry for entry in heap if not entry[2].cancelled]
        heapq.heapify(heap)
        self._cancelled = 0

    def run_for(self, duration: float) -> None:
        """Run for ``duration`` seconds of simulated time from now."""
        self.run(until=self._now + duration)
