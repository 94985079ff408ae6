"""Event and event-queue primitives for the simulation kernel.

Events are ordered by ``(time, sequence)`` where the sequence number is a
monotonically increasing tie-breaker.  Ties in time therefore dispatch in
scheduling order, which keeps runs fully deterministic.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable


class Event:
    """A scheduled callback: the handle ``schedule`` returns.

    Attributes:
        time: absolute simulation time at which the callback fires.
        action: zero-argument callable run when the event is dispatched.
        cancelled: a cancelled event stays in the heap but is skipped.
    """

    __slots__ = ("time", "action", "cancelled")

    def __init__(self, time: float, action: Callable[[], None]) -> None:
        self.time = time
        self.action = action
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event so the kernel skips it when popped."""
        self.cancelled = True


class EventQueue:
    """Binary heap of ``(time, seq, event)`` entries.

    ``seq`` is unique, so comparing two entries never reaches the
    :class:`Event` and every heap sift is a C-level tuple comparison.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._counter = itertools.count()

    def push(self, time: float, action: Callable[[], None]) -> Event:
        """Schedule ``action`` at absolute ``time`` and return the event."""
        event = Event(time, action)
        heapq.heappush(self._heap, (time, next(self._counter), event))
        return event

    def pop(self, until: float | None = None) -> Event | None:
        """Remove and return the earliest non-cancelled event; None when
        there is none or it fires after ``until`` (it stays queued)."""
        time = self.peek_time()
        if time is None or (until is not None and time > until):
            return None
        return heapq.heappop(self._heap)[2]

    def peek_time(self) -> float | None:
        """Time of the earliest pending event without removing it."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        return heap[0][0] if heap else None
