"""Tests for the discrete-event simulation kernel."""

import heapq
import itertools
import weakref
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator, kernel


class TestClock:
    """The simulator's virtual clock."""

    def test_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_advance(self):
        sim = Simulator()
        seen = []
        sim.at(2.5, lambda: seen.append(sim.now))
        sim.run(until=4.0)
        assert seen == [2.5]
        assert sim.now == 4.0

    def test_advance_to_same_time_ok(self):
        sim = Simulator()
        fired = []
        sim.run_for(1.0)
        sim.at(1.0, lambda: fired.append(sim.now))
        sim.schedule(0.0, lambda: fired.append(sim.now))
        sim.run(until=1.0)
        assert fired == [1.0, 1.0]
        assert sim.now == 1.0

    def test_cannot_move_backwards(self):
        sim = Simulator()
        sim.run_for(2.0)
        sim.run(until=1.0)
        assert sim.now == 2.0
        with pytest.raises(ValueError):
            sim.at(1.0, lambda: None)


class TestEventQueue:
    """The simulator's heap of pending events."""

    def test_pop_in_time_order(self):
        sim = Simulator()
        order = []
        sim.at(2.0, lambda: order.append("b"))
        sim.at(1.0, lambda: order.append("a"))
        sim.at(3.0, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_dispatch_in_schedule_order(self):
        sim = Simulator()
        order = []
        for tag in ("first", "second", "third"):
            sim.at(1.0, lambda t=tag: order.append(t))
        sim.run()
        assert order == ["first", "second", "third"]

    def test_cancelled_events_are_skipped(self):
        sim = Simulator()
        fired = []
        sim.at(1.0, lambda: fired.append("x")).cancel()
        sim.run()
        assert fired == []
        assert sim.events_dispatched == 0
        assert sim.now == 0.0

    def test_cancelled_events_never_reach_the_clock(self):
        sim = Simulator()
        seen = []
        sim.set_dispatch_hook(seen.append)
        sim.at(1.0, lambda: None).cancel()
        sim.at(2.0, lambda: None)
        sim.run()
        assert seen == [2.0]
        assert sim.now == 2.0

    def test_pop_until_leaves_later_events_queued(self):
        sim = Simulator()
        fired = []
        sim.at(1.0, lambda: fired.append(1.0))
        sim.at(3.0, lambda: fired.append(3.0))
        sim.run(until=2.0)
        assert fired == [1.0]
        sim.run(until=2.5)
        assert fired == [1.0]
        sim.run(until=3.0)  # an event exactly at ``until`` is due
        assert fired == [1.0, 3.0]
        assert sim.events_dispatched == 2

    def test_cancelled_head_does_not_hide_a_due_event(self):
        sim = Simulator()
        fired = []
        sim.at(1.0, lambda: fired.append("cancelled")).cancel()
        sim.at(2.0, lambda: fired.append("due"))
        sim.run(until=2.0)
        assert fired == ["due"]
        sim.run()
        assert fired == ["due"]


class TestSimulator:
    def test_schedule_and_run(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.5, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [1.5]
        assert sim.now == 1.5

    def test_nested_scheduling(self):
        sim = Simulator()
        fired = []

        def outer():
            fired.append(("outer", sim.now))
            sim.schedule(1.0, lambda: fired.append(("inner", sim.now)))

        sim.schedule(1.0, outer)
        sim.run()
        assert fired == [("outer", 1.0), ("inner", 2.0)]

    def test_run_until_stops_clock_at_until(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append("late"))
        sim.run(until=2.0)
        assert fired == []
        assert sim.now == 2.0
        sim.run()
        assert fired == ["late"]

    def test_run_for(self):
        sim = Simulator()
        sim.run_for(3.0)
        assert sim.now == 3.0

    def test_cannot_schedule_in_past(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-0.1, lambda: None)
        with pytest.raises(ValueError):
            sim.at(-1.0, lambda: None)

    def test_at_absolute_time(self):
        sim = Simulator()
        fired = []
        sim.at(4.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [4.0]

    def test_same_time_events_dispatch_in_schedule_order(self):
        sim = Simulator()
        order = []
        for tag in range(50):
            # Unorderable, never-equal callbacks: a tie in time must be
            # settled by the sequence number alone.
            sim.at(1.0, lambda t=tag: order.append(t))
        sim.schedule(0.5, lambda: sim.at(1.0, lambda: order.append("late")))
        sim.run()
        assert order == list(range(50)) + ["late"]

    def test_cancelled_event_is_skipped_and_not_counted(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(2.0, lambda: fired.append("b")).cancel()
        sim.schedule(3.0, lambda: fired.append("c"))
        sim.run()
        assert fired == ["a", "c"]
        assert sim.events_dispatched == 2

    def test_event_cancellation_via_handle(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, lambda: fired.append("x"))
        event.cancel()
        sim.run()
        assert fired == []

    def test_events_dispatched_counter(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_dispatched == 5

    def test_run_not_reentrant(self):
        sim = Simulator()
        errors = []

        def try_reenter():
            try:
                sim.run()
            except RuntimeError as exc:
                errors.append(exc)

        sim.schedule(1.0, try_reenter)
        sim.run()
        assert len(errors) == 1


class _ReferenceEvent:
    __slots__ = ("action", "cancelled")

    def __init__(self, action):
        self.action = action
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class _ReferenceKernel:
    """The kernel with nothing but a flag per cancel: every cancelled
    entry stays in the heap until it is popped."""

    def __init__(self):
        self.now = 0.0
        self.events_dispatched = 0
        self._heap = []
        self._seq = itertools.count()
        self._hook = None

    def set_dispatch_hook(self, hook):
        self._hook = hook

    def schedule(self, delay, action):
        return self.at(self.now + delay, action)

    def at(self, time, action):
        event = _ReferenceEvent(action)
        heapq.heappush(self._heap, (time, next(self._seq), event))
        return event

    def run(self, until=None):
        heap = self._heap
        while heap:
            time, _, event = heap[0]
            if event.cancelled:
                heapq.heappop(heap)
                continue
            if until is not None and time > until:
                break
            heapq.heappop(heap)
            if self._hook is not None:
                self._hook(time)
            self.now = time
            event.action()
            self.events_dispatched += 1
        if until is not None and until > self.now:
            self.now = until


_delays = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.0, 2.0])
_handle = st.integers(min_value=0, max_value=10**6)
#: What a dispatched event does: cancel a handle (queued, dispatched,
#: already cancelled or itself), or schedule one more event.
_plans = st.lists(
    st.one_of(
        st.tuples(st.just("cancel"), _handle),
        st.tuples(st.just("schedule"), _delays),
    ),
    max_size=3,
)
_steps = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), _delays, _plans),
        st.tuples(st.just("at"), _delays, _plans),
        st.tuples(st.just("burst"), st.integers(1, 60), _delays),
        st.tuples(st.just("cancel"), _handle),
        st.tuples(st.just("cancel_run"), _handle, st.integers(1, 60)),
        st.tuples(st.just("run"), st.one_of(st.none(), _delays)),
    ),
    max_size=40,
)


def _play(kernel, steps, check):
    """Drive ``kernel`` through ``steps``; return what it observably
    did: every dispatch with its clock, every hook call, and ``now`` /
    ``events_dispatched`` after each step."""
    handles, plans, log, hooked, after = [], [], [], [], []
    kernel.set_dispatch_hook(hooked.append)

    def add(handle, plan):
        handles.append(handle)
        plans.append(plan)

    def action(ident):
        def run():
            log.append((ident, kernel.now))
            for op, arg in plans[ident]:
                if op == "cancel":
                    handles[arg % len(handles)].cancel()
                else:
                    add(kernel.schedule(arg, action(len(handles))), [])
                check()

        return run

    for step in steps:
        op = step[0]
        if op == "schedule":
            add(kernel.schedule(step[1], action(len(handles))), step[2])
        elif op == "at":
            add(kernel.at(kernel.now + step[1], action(len(handles))), step[2])
        elif op == "burst":
            for _ in range(step[1]):
                add(kernel.schedule(step[2], action(len(handles))), [])
        elif handles and op == "cancel":
            handles[step[1] % len(handles)].cancel()
        elif handles and op == "cancel_run":
            first = step[1] % len(handles)
            for handle in handles[first : first + step[2]]:
                handle.cancel()
        elif op == "run":
            kernel.run(None if step[1] is None else kernel.now + step[1])
        check()
        after.append((kernel.now, kernel.events_dispatched))
    return log, hooked, after


class TestSweepingMatchesNeverSweeping:
    """A cancelled event drops its action at once and its entry is
    swept in bulk; nothing a caller can observe may tell."""

    @settings(max_examples=300, deadline=None)
    @given(steps=_steps, floor=st.sampled_from([0, 1, 4, 16, None]))
    def test_same_dispatches_and_a_heap_of_mostly_live_entries(
        self, steps, floor
    ):
        floor = kernel._SWEEP_FLOOR if floor is None else floor
        sim = Simulator()

        def check():
            heap = sim._heap
            cancelled = sum(1 for entry in heap if entry[2].cancelled)
            assert sim._cancelled == cancelled
            assert len(heap) <= max(floor, 2 * (len(heap) - cancelled))

        with mock.patch.object(kernel, "_SWEEP_FLOOR", floor):
            real = _play(sim, steps, check)
        assert real == _play(_ReferenceKernel(), steps, lambda: None)

    def test_cancel_releases_the_action(self):
        sim = Simulator()
        owner = _Owner()
        ref = weakref.ref(owner)
        event = sim.schedule(1.0, owner.method)
        del owner
        assert ref() is not None
        event.cancel()
        assert ref() is None
        sim.run()
        assert sim.events_dispatched == 0

    def test_counts_only_a_queued_event_once(self):
        sim = Simulator()
        running = []

        def cancel_myself():
            running[0].cancel()

        running.append(sim.schedule(1.0, cancel_myself))
        queued = sim.schedule(2.0, lambda: None)
        sim.schedule(3.0, lambda: None)
        queued.cancel()
        queued.cancel()
        assert sim._cancelled == 1
        sim.run(until=1.0)  # pops the cancelled head past ``until`` too
        assert sim._cancelled == 0 and len(sim._heap) == 1
        running[0].cancel()
        queued.cancel()
        assert sim._cancelled == 0
        sim.run()
        assert sim._cancelled == 0 and sim._heap == []
        assert sim.events_dispatched == 2

    def test_sweep_from_inside_an_action_keeps_the_order(self):
        sim = Simulator()
        fired = []
        doomed = [sim.at(5.0, lambda: fired.append("x")) for _ in range(200)]
        for tag in range(3):
            sim.at(3.0 + tag, lambda t=tag: fired.append(t))

        def cancel_all():
            for event in doomed:
                event.cancel()

        sim.at(1.0, cancel_all)
        sim.run()
        assert fired == [0, 1, 2]
        assert sim.events_dispatched == 4
        assert sim._cancelled == 0

    def test_dispatching_live_events_sweeps_what_they_leave(self):
        """Only live events leave: the cancelled share rises with no
        cancel, so the pop that tips it over half sweeps too."""
        sim = Simulator()
        for _ in range(120):
            sim.at(1.0, lambda: None)
        later = sim.at(1.5, lambda: None)
        for _ in range(120):
            sim.at(2.0, lambda: None).cancel()
        assert len(sim._heap) == 241 and sim._cancelled == 120
        sim.run(until=1.0)  # stops at ``later``, above the cancelled
        assert sim.events_dispatched == 120
        assert sim._heap == [(1.5, 120, later)] and sim._cancelled == 0


class _Owner:
    def method(self):
        pass
