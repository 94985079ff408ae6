"""Bounded, sim-timestamped event tracing.

:class:`TraceRecorder` is a ring buffer of typed trace events.  Every
event carries the simulation timestamp, an event type (dotted strings
such as ``probe.sent`` — see the schema table in the README), the node
it happened on, an optional *span id* tying together one probe's (or
one update's) lifecycle, and a small free-form argument mapping.

The recorder is deliberately dumb and cheap: recording is one tuple
construction plus a ``deque.append`` (the deque's ``maxlen`` evicts the
oldest event, so memory stays bounded however long the run).  All
interpretation — span reconstruction, latency breakdowns — lives in
:mod:`repro.obs.analyze`; all aggregation lives in
:mod:`repro.obs.metrics`.

Exports:

* :meth:`TraceRecorder.export_jsonl` — one JSON object per line,
  ``{"ts", "type", "node", "span", "args"}``; nodes are ``repr()``-ed
  so arbitrary Hashables survive serialization.
* :meth:`TraceRecorder.export_chrome` — a Chrome ``trace_event`` JSON
  file loadable in ``chrome://tracing`` and https://ui.perfetto.dev:
  every event becomes an instant on its node's process track, and
  completed probe spans additionally render as duration slices.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any, Iterable, Iterator, NamedTuple


class TraceEvent(NamedTuple):
    """One recorded event.  ``args`` is read-only by convention."""

    ts: float
    etype: str
    node: object
    span: int | None
    args: dict[str, Any]


def node_label(node: object) -> str | None:
    """Canonical string form of a node for export (``repr``)."""
    if node is None:
        return None
    return repr(node)


def _jsonable(value: Any) -> Any:
    """Coerce an argument value into something JSON can carry."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple, set, frozenset)):
        items = [_jsonable(v) for v in value]
        if isinstance(value, (set, frozenset)):
            items.sort(key=repr)
        return items
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return repr(value)


class TraceRecorder:
    """Bounded ring buffer of :class:`TraceEvent` records.

    Args:
        capacity: maximum retained events; older events are evicted
            (and counted in :attr:`dropped`) once the buffer is full.
    """

    def __init__(self, capacity: int = 65536) -> None:
        if capacity < 1:
            raise ValueError(f"trace capacity must be >= 1: {capacity}")
        self.capacity = capacity
        #: Raw 5-tuples, wrapped into :class:`TraceEvent` lazily on
        #: read: a plain tuple literal is built in C, a NamedTuple call
        #: is a Python-level ``__new__`` — on the hot record path that
        #: difference is measurable (see ``BENCH_obs.json``).
        self._buffer: deque[tuple] = deque(maxlen=capacity)
        #: Total events ever recorded (including evicted ones).
        self.emitted = 0

    def record(
        self,
        ts: float,
        etype: str,
        node: object = None,
        span: int | None = None,
        args: dict[str, Any] | None = None,
    ) -> None:
        """Append one event (O(1); evicts the oldest when full).

        ``args`` values are kept by reference and stringified only at
        export — pass immutable objects (ints, strings, Match) so a
        later mutation cannot rewrite history.
        """
        self.emitted += 1
        self._buffer.append((ts, etype, node, span, args or {}))

    def extend_raw(self, rows: Iterable[tuple]) -> None:
        """Bulk-append raw ``(ts, etype, node, span, args)`` rows.

        The sharded-fleet coordinator merges per-worker trace rings
        into one recorder with this: rows arrive already in the raw
        buffer format (see :meth:`raw_events`), pre-sorted by the
        caller into global sim-time order.
        """
        for row in rows:
            self.emitted += 1
            self._buffer.append(row)

    def raw_events(self) -> list[tuple]:
        """The retained events as raw buffer tuples (picklable)."""
        return list(self._buffer)

    # ----- introspection ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._buffer)

    def __iter__(self) -> Iterator[TraceEvent]:
        return (TraceEvent(*row) for row in self._buffer)

    @property
    def dropped(self) -> int:
        """Events evicted by the ring bound."""
        return self.emitted - len(self._buffer)

    def events(self, etype: str | None = None) -> list[TraceEvent]:
        """Retained events in record order, optionally filtered by type."""
        if etype is None:
            return list(self)
        return [e for e in self if e.etype == etype]

    # ----- exports ----------------------------------------------------------

    def to_dicts(self) -> list[dict[str, Any]]:
        """The retained events as JSON-ready dicts (the JSONL schema)."""
        return [
            {
                "ts": ts,
                "type": etype,
                "node": node_label(node),
                "span": span,
                "args": {k: _jsonable(v) for k, v in args.items()},
            }
            for ts, etype, node, span, args in self._buffer
        ]

    def export_jsonl(self, path: str) -> int:
        """Write one JSON object per line; returns the event count."""
        rows = self.to_dicts()
        with open(path, "w", encoding="utf-8") as handle:
            for row in rows:
                handle.write(json.dumps(row, sort_keys=True))
                handle.write("\n")
        return len(rows)

    def export_chrome(self, path: str) -> int:
        """Write a Chrome ``trace_event`` file; returns the event count.

        Layout: one *process* per node (named by the node's ``repr``),
        every trace event an instant ("i") on thread = its span id (0
        for span-less events), and every completed probe span — a
        ``probe.generated``/``probe.sent`` followed by a
        ``probe.confirmed``/``probe.timeout`` — an additional complete
        ("X") slice whose duration is the probe's wire time.
        """
        events = list(self)
        pids: dict[str, int] = {}
        out: list[dict[str, Any]] = []

        def pid_of(node: object) -> int:
            label = node_label(node) or "(global)"
            if label not in pids:
                pids[label] = len(pids) + 1
                out.append(
                    {
                        "ph": "M",
                        "name": "process_name",
                        "pid": pids[label],
                        "tid": 0,
                        "args": {"name": label},
                    }
                )
            return pids[label]

        # Instants: every event, on its span's thread track.
        opened: dict[int, TraceEvent] = {}
        for event in events:
            pid = pid_of(event.node)
            out.append(
                {
                    "ph": "i",
                    "name": event.etype,
                    "pid": pid,
                    "tid": event.span or 0,
                    "ts": event.ts * 1e6,
                    "s": "t",
                    "args": {
                        k: _jsonable(v) for k, v in event.args.items()
                    },
                }
            )
            if event.span is None:
                continue
            if event.etype in ("probe.generated", "probe.sent"):
                opened.setdefault(event.span, event)
            elif event.etype in ("probe.confirmed", "probe.timeout"):
                start = opened.pop(event.span, None)
                if start is not None:
                    out.append(
                        {
                            "ph": "X",
                            "name": f"probe span {event.span}",
                            "pid": pid_of(start.node),
                            "tid": event.span,
                            "ts": start.ts * 1e6,
                            "dur": max(0.0, (event.ts - start.ts) * 1e6),
                            "args": {"outcome": event.etype},
                        }
                    )
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": out}, handle)
        return len(events)
