"""Tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import Simulator


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
