"""Discrete-event simulation kernel and seeded random streams.

All timed behaviour in the reproduction (switch control planes, link
latencies, Monocle probing cycles, traffic generators) runs on a
:class:`Simulator`: a virtual clock and a binary heap of timed
callbacks, dispatched in time order, ties in scheduling order.  All
randomness comes from a :class:`DeterministicRandom`, a seeded
``random.Random`` that forks independent streams.  Determinism matters
more than raw throughput here — the paper's experiments are about
*orderings* of control-plane and data-plane events, and a deterministic
kernel makes those orderings reproducible and testable.
"""

from repro.sim.kernel import Event, Simulator
from repro.sim.random import DeterministicRandom

__all__ = [
    "Event",
    "Simulator",
    "DeterministicRandom",
]
