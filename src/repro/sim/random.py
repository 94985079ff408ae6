"""Seeded randomness helpers for reproducible experiments.

Every experiment (tests, examples, ``bench``) takes a seed; all stochastic
choices (which rule to fail, install latencies, ECMP port selection, ...)
flow through a :class:`DeterministicRandom` so that a run is a pure
function of its seed.
"""

from __future__ import annotations

import random
from typing import Sequence, TypeVar

T = TypeVar("T")


class DeterministicRandom:
    """A thin, explicitly-seeded wrapper over :mod:`random.Random`.

    The wrapper exists so call sites read as intent
    (``rng.choose(rules)``) and so we can add domain helpers such as
    latency jitter without leaking distribution choices everywhere.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._rng = random.Random(seed)

    def fork(self, salt: int) -> "DeterministicRandom":
        """Derive an independent stream; used to decouple subsystems."""
        return DeterministicRandom(hash((self.seed, salt)) & 0x7FFFFFFF)

    def uniform(self, low: float, high: float) -> float:
        """Uniform float in ``[low, high]``."""
        return self._rng.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in ``[low, high]`` inclusive."""
        return self._rng.randint(low, high)

    def getrandbits(self, bits: int) -> int:
        """Uniform integer of the given bit width."""
        if bits <= 0:
            return 0
        return self._rng.getrandbits(bits)

    def choose(self, items: Sequence[T]) -> T:
        """Pick one element uniformly."""
        return self._rng.choice(items)

    def sample(self, items: Sequence[T], k: int) -> list[T]:
        """Pick ``k`` distinct elements uniformly."""
        return self._rng.sample(items, k)

    def shuffle(self, items: list[T]) -> None:
        """In-place Fisher-Yates shuffle."""
        self._rng.shuffle(items)

    def random(self) -> float:
        """Uniform float in ``[0, 1)``."""
        return self._rng.random()

    def expovariate(self, rate: float) -> float:
        """Exponential inter-arrival sample with the given rate (1/s)."""
        return self._rng.expovariate(rate)

    def jittered(self, base: float, fraction: float = 0.1) -> float:
        """``base`` +/- ``fraction`` relative uniform jitter, floored at 0."""
        low = base * (1.0 - fraction)
        high = base * (1.0 + fraction)
        return max(0.0, self._rng.uniform(low, high))
