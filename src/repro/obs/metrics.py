"""Metric series: the one live instrument and its two renderings.

The numbers themselves live in the fleet's
:class:`~repro.fleet.metrics.SwitchMetrics` rows, which
:func:`~repro.fleet.metrics.metric_series` turns into
``(kind, family, labels, value)`` :data:`Series`, Prometheus-flavored:

* ``"counter"`` — a monotonically increasing total;
* ``"gauge"`` — a level at collect time;
* ``"histogram"`` — a :class:`Histogram`: cumulative buckets plus
  sum/count, for latency distributions.  It is the one instrument a
  layer observes live (scheduler wait, probe wire time, solve time,
  update confirmation), because a distribution cannot be read back
  from a counter.

This module renders a series list two ways:

* :func:`snapshot` — the cumulative state at one sim time.  The fleet
  observer takes one per interval, so the delta between consecutive
  snapshots is a *windowed* reading (probes/s, alarms/s, cache-hit
  ratio over the window; :func:`window_rates`).
* :func:`prometheus_text` — the classic text exposition format
  (``# TYPE`` headers, ``{label="value"}`` series,
  ``_bucket``/``_sum``/``_count`` for histograms).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Iterable

#: Canonical label encoding: sorted (key, value) pairs.
LabelItems = tuple[tuple[str, str], ...]

#: One exposed series: (kind, family, labels, value), where kind is
#: ``"counter"``, ``"gauge"`` or ``"histogram"`` and a histogram's
#: value is a :class:`Histogram`.
Series = tuple[str, str, LabelItems, Any]

#: Histogram bucket upper bounds (seconds): probe/solve/update
#: latencies span ~100us..10s in this codebase.
DEFAULT_BUCKETS = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


def series_key(name: str, labels: LabelItems) -> str:
    """Exposition-style series key: ``name{k="v",...}`` (or bare name).

    Doubles as the snapshot dictionary key, so snapshots are JSON-ready.
    """
    if not labels:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{name}{{{inner}}}"


def family_name(key: str) -> str:
    """The metric family of a :func:`series_key` (strip the labels)."""
    brace = key.find("{")
    return key if brace < 0 else key[:brace]


@dataclass
class Histogram:
    """Bucket counts over :data:`DEFAULT_BUCKETS`, plus sum and count
    (Prometheus semantics: an observation lands in the first bucket
    whose bound is >= the value; ``+Inf`` is implicit in ``count``).

    Compares by value, so a metrics row holding one does too.
    """

    bucket_counts: list[int] = field(
        default_factory=lambda: [0] * len(DEFAULT_BUCKETS)
    )
    sum: float = 0.0
    count: int = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        index = bisect_left(DEFAULT_BUCKETS, value)
        # Cumulative buckets are materialized at exposition time; the
        # hot path pays one bisect + one increment.
        if index < len(DEFAULT_BUCKETS):
            self.bucket_counts[index] += 1

    def cumulative(self) -> list[tuple[float, int]]:
        """(upper bound, cumulative count) pairs, ``+Inf`` excluded."""
        out: list[tuple[float, int]] = []
        running = 0
        for bound, count in zip(DEFAULT_BUCKETS, self.bucket_counts):
            running += count
            out.append((bound, running))
        return out


def snapshot(ts: float, series: Iterable[Series]) -> dict[str, Any]:
    """The series' cumulative state at sim time ``ts``, JSON-ready.

    Counters and gauges map :func:`series_key` to value, histograms to
    ``{"count", "sum"}``.
    """
    out: dict[str, Any] = {
        "ts": ts,
        "counters": {},
        "gauges": {},
        "histograms": {},
    }
    for kind, family, labels, value in series:
        key = series_key(family, labels)
        if kind == "histogram":
            out["histograms"][key] = {
                "count": float(value.count),
                "sum": value.sum,
            }
        else:
            out[kind + "s"][key] = float(value)
    return out


def prometheus_text(series: Iterable[Series]) -> str:
    """The Prometheus text exposition format of ``series``, in order;
    a family's ``# TYPE`` line precedes its first series."""
    lines: list[str] = []
    seen_type: set[str] = set()
    for kind, name, labels, value in series:
        if name not in seen_type:
            seen_type.add(name)
            lines.append(f"# TYPE {name} {kind}")
        if kind != "histogram":
            lines.append(f"{series_key(name, labels)} {_fmt(value)}")
            continue
        for bound, cumulative in value.cumulative():
            bucket_labels = labels + (("le", _fmt(bound)),)
            lines.append(
                f"{series_key(name + '_bucket', bucket_labels)} "
                f"{cumulative}"
            )
        inf_labels = labels + (("le", "+Inf"),)
        lines.append(
            f"{series_key(name + '_bucket', inf_labels)} {value.count}"
        )
        lines.append(f"{series_key(name + '_sum', labels)} {_fmt(value.sum)}")
        lines.append(f"{series_key(name + '_count', labels)} {value.count}")
    return "\n".join(lines) + ("\n" if lines else "")


def _fmt(value: float) -> str:
    """Trim integral floats so expositions read ``42`` not ``42.0``."""
    value = float(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def window_rates(
    snapshots: Iterable[dict[str, Any]], family: str
) -> list[tuple[float, float]]:
    """Per-window rates of a counter family from consecutive snapshots.

    Returns ``(window end ts, delta / window seconds)`` pairs — the
    probes/s / alarms/s style time series the fleet report renders.
    """
    rates: list[tuple[float, float]] = []
    previous: dict[str, Any] | None = None
    for snap in snapshots:
        if previous is not None:
            dt = snap["ts"] - previous["ts"]
            if dt > 0:
                delta = _family_sum(snap, family) - _family_sum(
                    previous, family
                )
                rates.append((snap["ts"], delta / dt))
        previous = snap
    return rates


def _family_sum(snap: dict[str, Any], family: str) -> float:
    return sum(
        value
        for key, value in snap["counters"].items()
        if family_name(key) == family
    )
