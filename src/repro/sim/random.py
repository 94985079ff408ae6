"""Seeded random streams for reproducible experiments.

Every experiment (tests, examples, ``bench``) takes a seed; all stochastic
choices (which rule to fail, install latencies, ECMP port selection, ...)
flow through a :class:`DeterministicRandom` so that a run is a pure
function of its seed.
"""

from __future__ import annotations

import random
from typing import Any


class DeterministicRandom(random.Random):
    """A :class:`random.Random` that remembers its seed, so it can
    :meth:`fork` independent streams, and draws latency jitter."""

    def __init__(self, seed: int = 0) -> None:
        super().__init__(seed)
        self.stream_seed = seed

    def __reduce__(self) -> tuple[Any, ...]:
        # random.Random's own drops instance attributes: a copy would
        # come back with stream_seed 0 and fork other streams.
        return (type(self), (self.stream_seed,), self.getstate())

    def fork(self, salt: int) -> DeterministicRandom:
        """Derive an independent stream; used to decouple subsystems."""
        return DeterministicRandom(hash((self.stream_seed, salt)) & 0x7FFFFFFF)

    def jittered(self, base: float, fraction: float = 0.1) -> float:
        """``base`` +/- ``fraction`` relative uniform jitter, floored at 0."""
        low = base * (1.0 - fraction)
        high = base * (1.0 + fraction)
        return max(0.0, self.uniform(low, high))
