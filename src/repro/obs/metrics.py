"""Live metrics: counters, gauges, histograms, sim-time snapshots.

:class:`MetricsRegistry` is the one sink every layer publishes into
(Monitor probe counters, scheduler waits, SAT solve times, dynamic-
update confirmation latencies, fleet-level gauges).  Three instrument
kinds, Prometheus-flavored:

* :class:`Counter` — monotonically increasing total;
* :class:`Gauge` — a level, set to the latest value;
* :class:`Histogram` — cumulative buckets plus sum/count, for latency
  distributions.

Instruments are keyed by ``(name, labels)`` and created on first use
(:meth:`~MetricsRegistry.counter` / :meth:`~MetricsRegistry.gauge` /
:meth:`~MetricsRegistry.histogram` are get-or-create); the hot path of
an existing instrument is one dict lookup plus an attribute add.

Time series come from :meth:`MetricsRegistry.snapshot`: each snapshot
captures every instrument's cumulative value at one sim time, so the
delta between consecutive snapshots is a *windowed* reading (probes/s,
alarms/s, cache-hit ratio over the window).  The fleet observer drives
snapshots off the sim kernel's dispatch hook, so the series is paced by
simulation time, never wall clock.

:meth:`MetricsRegistry.prometheus_text` renders the classic text
exposition format (``# TYPE`` headers, ``{label="value"}`` series,
``_bucket``/``_sum``/``_count`` for histograms).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Callable, Iterable

#: Canonical label encoding: sorted (key, value) pairs.
LabelItems = tuple[tuple[str, str], ...]

#: Default histogram buckets (seconds): probe/solve/update latencies
#: span ~100us..10s in this codebase.
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


def _label_items(labels: dict[str, Any]) -> LabelItems:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


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


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelItems = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up: {amount}")
        self.value += amount


class Gauge:
    """A level: set to the latest reading."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelItems = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics).

    ``buckets`` are upper bounds; an observation lands in every bucket
    whose bound is >= the value, with ``+Inf`` implicit in ``count``.
    """

    __slots__ = ("name", "labels", "bounds", "bucket_counts", "sum", "count")

    def __init__(
        self,
        name: str,
        labels: LabelItems = (),
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        self.name = name
        self.labels = labels
        self.bounds = tuple(sorted(buckets))
        self.reset()

    def reset(self) -> None:
        """Forget every observation (for a histogram that is re-derived
        from its source at collect time rather than accumulated)."""
        self.bucket_counts = [0] * len(self.bounds)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        index = bisect_left(self.bounds, value)
        # Cumulative buckets are materialized at exposition time; the
        # hot path pays one bisect + one increment.
        if index < len(self.bucket_counts):
            self.bucket_counts[index] += 1

    def cumulative(self) -> list[tuple[float, int]]:
        """(upper bound, cumulative count) pairs, ``+Inf`` excluded."""
        out: list[tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.bounds, self.bucket_counts):
            running += count
            out.append((bound, running))
        return out


class MetricsRegistry:
    """Get-or-create instrument registry with sim-time snapshots."""

    def __init__(self) -> None:
        self._instruments: dict[tuple[str, LabelItems], Any] = {}
        #: name -> instrument kind, so one family never mixes types.
        self._kinds: dict[str, str] = {}
        #: Called before every snapshot / exposition so gauges that
        #: mirror live structures (outstanding probes, window depth)
        #: can be refreshed without per-mutation publishing.
        self._collect_hooks: list[Callable[[], None]] = []
        #: Snapshot dicts in sim-time order (see :meth:`snapshot`).
        self.snapshots: list[dict[str, Any]] = []

    # ----- instruments -------------------------------------------------------

    def _get(self, kind: str, factory: Callable[[], Any],
             name: str, labels: dict[str, Any]) -> Any:
        items = _label_items(labels)
        key = (name, items)
        known = self._kinds.setdefault(name, kind)
        if known != kind:
            raise ValueError(
                f"metric {name!r} already registered as a {known}"
            )
        instrument = self._instruments.get(key)
        if instrument is not None:
            return instrument
        instrument = factory()
        self._instruments[key] = instrument
        return instrument

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(
            "counter",
            lambda: Counter(name, _label_items(labels)),
            name,
            labels,
        )

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(
            "gauge", lambda: Gauge(name, _label_items(labels)), name, labels
        )

    def histogram(
        self,
        name: str,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        **labels: Any,
    ) -> Histogram:
        return self._get(
            "histogram",
            lambda: Histogram(name, _label_items(labels), buckets),
            name,
            labels,
        )

    def add_collect_hook(self, hook: Callable[[], None]) -> None:
        """Run ``hook`` before every snapshot/exposition (gauge refresh)."""
        self._collect_hooks.append(hook)

    # ----- reads -------------------------------------------------------------

    def _collect(self) -> None:
        for hook in self._collect_hooks:
            hook()

    def _sorted(self) -> list[tuple[tuple[str, LabelItems], Any]]:
        return sorted(self._instruments.items(), key=lambda kv: kv[0])

    # ----- snapshots ----------------------------------------------------------

    def snapshot(self, ts: float) -> dict[str, Any]:
        """Capture every instrument's cumulative state at sim time ``ts``.

        The returned dict (also appended to :attr:`snapshots`) is JSON-
        ready: counters and gauges map :func:`series_key` to value,
        histograms to ``{"count", "sum"}``.  Deltas between consecutive
        snapshots are the sim-time-windowed readings; a snapshot at the
        previous one's ``ts`` supersedes it, so timestamps are unique.
        """
        self._collect()
        counters: dict[str, float] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, dict[str, float]] = {}
        for (name, labels), instrument in self._sorted():
            key = series_key(name, labels)
            if isinstance(instrument, Counter):
                counters[key] = instrument.value
            elif isinstance(instrument, Gauge):
                gauges[key] = instrument.value
            else:
                histograms[key] = {
                    "count": float(instrument.count),
                    "sum": instrument.sum,
                }
        snap = {
            "ts": ts,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }
        if self.snapshots and self.snapshots[-1]["ts"] == ts:
            self.snapshots[-1] = snap
        else:
            self.snapshots.append(snap)
        return snap

    # ----- exposition -----------------------------------------------------------

    def prometheus_text(self) -> str:
        """The Prometheus text exposition format (sorted, reproducible)."""
        self._collect()
        lines: list[str] = []
        seen_type: set[str] = set()
        for (name, labels), instrument in self._sorted():
            kind = self._kinds[name]
            if name not in seen_type:
                seen_type.add(name)
                lines.append(f"# TYPE {name} {kind}")
            if isinstance(instrument, (Counter, Gauge)):
                lines.append(
                    f"{series_key(name, labels)} {_fmt(instrument.value)}"
                )
                continue
            for bound, cumulative in instrument.cumulative():
                bucket_labels = labels + (("le", _fmt(bound)),)
                lines.append(
                    f"{series_key(name + '_bucket', bucket_labels)} "
                    f"{cumulative}"
                )
            inf_labels = labels + (("le", "+Inf"),)
            lines.append(
                f"{series_key(name + '_bucket', inf_labels)} "
                f"{instrument.count}"
            )
            lines.append(
                f"{series_key(name + '_sum', labels)} "
                f"{_fmt(instrument.sum)}"
            )
            lines.append(
                f"{series_key(name + '_count', labels)} {instrument.count}"
            )
        return "\n".join(lines) + ("\n" if lines else "")


def _fmt(value: float) -> str:
    """Trim integral floats so expositions read ``42`` not ``42.0``."""
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


def _family_sum(snapshot: dict[str, Any], family: str) -> float:
    return sum(
        value
        for key, value in snapshot["counters"].items()
        if family_name(key) == family
    )
