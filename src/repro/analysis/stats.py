"""Statistics helpers for the benchmark harness."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


class Cdf:
    """An empirical CDF over a sample (the Figure 4/9 plot primitive)."""

    def __init__(self, samples: Sequence[float]) -> None:
        self.samples = sorted(samples)

    def __len__(self) -> int:
        return len(self.samples)

    def fraction_at_or_below(self, x: float) -> float:
        """P(X <= x)."""
        if not self.samples:
            return 0.0
        # Binary search for the rightmost sample <= x.
        lo, hi = 0, len(self.samples)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.samples[mid] <= x:
                lo = mid + 1
            else:
                hi = mid
        return lo / len(self.samples)

    def percentile(self, q: float) -> float:
        """The q-th percentile, q in [0, 100]."""
        if not self.samples:
            raise ValueError("empty CDF")
        if not 0 <= q <= 100:
            raise ValueError(f"percentile out of range: {q}")
        index = min(
            len(self.samples) - 1,
            max(0, int(round(q / 100.0 * (len(self.samples) - 1)))),
        )
        return self.samples[index]


@dataclass(frozen=True)
class Summary:
    """Five-number-ish summary of a sample."""

    count: int
    mean: float
    minimum: float
    median: float
    p95: float
    maximum: float


def summarize(samples: Sequence[float]) -> Summary:
    """Summary statistics of a non-empty sample."""
    if not samples:
        raise ValueError("cannot summarize an empty sample")
    ordered = sorted(samples)
    n = len(ordered)
    return Summary(
        count=n,
        mean=sum(ordered) / n,
        minimum=ordered[0],
        median=ordered[n // 2],
        p95=ordered[min(n - 1, int(0.95 * n))],
        maximum=ordered[-1],
    )
