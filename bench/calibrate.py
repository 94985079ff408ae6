"""Host-speed reference kernel and the clock that normalises by it.

The build container's CPU flips between speed states several seconds
long and up to ~1.5x apart (a busy sibling hyperthread, most likely):
the same steady_fleet slice reads 165 us/probe in one state and 250 in
the other, so raw wall time has an inter-quartile spread of 8-20 % of
its median over runs of one commit — wider than any bound worth
gating on.  A fixed pure-Python kernel run right before and after each
timed slice speeds up and slows down with the host in the same way, so
the *ratio* is steady (about 3 % spread over the same runs).

Every host time the benchmark reports is therefore

    measured wall * REF_NOMINAL_S / (reference kernel wall, same moment)

i.e. the time the phase would take on a host where the kernel takes
exactly ``REF_NOMINAL_S``.  The kernel mixes the three kinds of work the
repository's hot paths are made of (dict/heap/struct traffic, integer
arithmetic, an event loop over dataclass heap entries with closures);
the sum tracks the workloads better than any one part alone.  It must
never change: a different kernel is a different unit.
"""

from __future__ import annotations

import gc
import heapq
import os
import struct
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, TypeVar

#: The kernel's wall time on the 2-core build container in its usual
#: (slower) state; normalised times read like raw times measured there.
REF_NOMINAL_S = 0.0115

T = TypeVar("T")


def usable_cores() -> int:
    """Cores this process may run on (respects taskset and cgroups)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b

    def key(self) -> tuple[int, int]:
        return (self.a, self.b)


def _containers(n: int = 2000) -> int:
    heap: list = []
    table: dict = {}
    acc = 0
    for i in range(n):
        cell = _Cell(i, i * 7 % 13)
        table[cell.key()] = cell
        heapq.heappush(heap, ((i * 31) % 1000 / 1000.0, i, cell))
        raw = struct.pack("!HHI", i & 0xFFFF, (i * 3) & 0xFFFF, i)
        x, _y, _z = struct.unpack("!HHI", raw)
        acc += x + len(raw[2:6])
        if i % 3 == 0:
            _when, _seq, popped = heapq.heappop(heap)
            acc += table.get(popped.key(), cell).a
    return acc


def _arithmetic(n: int = 60000) -> int:
    total = 0
    for i in range(n):
        total += i * i % 7
    return total


@dataclass(order=True)
class _Event:
    time: float
    seq: int
    action: Callable[[], None] = field(compare=False)


class _Node:
    def __init__(self, index: int) -> None:
        self.index = index
        self.table: dict = {}
        self.count = 0
        self.peer: "_Node" = self

    def recv(self, pkt: bytes, heap: list, now: float) -> None:
        self.count += 1
        hdr = struct.unpack_from("!6s6sHBBHI", pkt)
        key = (hdr[2], hdr[3], hdr[6] & 0xFFFFFF00)
        entry = self.table.get(key)
        if entry is None:
            entry = self.table[key] = [0, hdr[6]]
        entry[0] += 1
        if self.count % 4:
            out = struct.pack(
                "!6s6sHBBHI", hdr[1], hdr[0], hdr[2], hdr[3], hdr[4],
                hdr[5], (hdr[6] + 1) & 0xFFFFFFFF,
            ) + pkt[22:]
            peer = self.peer
            later = now + 0.001 * (1 + self.index % 3)
            heapq.heappush(
                heap,
                _Event(
                    later,
                    self.count * 64 + self.index,
                    lambda: peer.recv(out, heap, later),
                ),
            )


def _event_loop(n: int = 1500) -> int:
    nodes = [_Node(i) for i in range(16)]
    for i, node in enumerate(nodes):
        node.peer = nodes[(i * 5 + 1) % 16]
    heap: list = []
    pkt = bytes(range(64))
    for i in range(32):
        node = nodes[i % 16]
        heapq.heappush(
            heap,
            _Event(i * 0.0001, i, lambda node=node: node.recv(pkt, heap, 0.0)),
        )
    done = 0
    while heap and done < n:
        event = heapq.heappop(heap)
        event.action()
        done += 1
        if len(heap) < 8:
            node = nodes[done % 16]
            now = event.time
            heapq.heappush(
                heap,
                _Event(
                    now + 0.0001,
                    done * 1000,
                    lambda node=node, now=now: node.recv(pkt, heap, now),
                ),
            )
    return done


def ref_kernel() -> float:
    """Run the reference kernel once; returns its wall seconds.

    The collector is held off while it runs: the kernel's garbage is
    acyclic and freed by reference counts, and a full collection of the
    *workload's* heap landing inside it would bill the workload's state
    to the unit of measurement.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _containers()
        _arithmetic()
        _event_loop()
        return perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


class HostClock:
    """Times phases in normalised seconds (see the module docstring).

    Each :meth:`time` call brackets the phase with the reference kernel;
    the closing sample of one call is the opening sample of the next, so
    a tight loop of slices pays one kernel run per slice.
    """

    def __init__(self) -> None:
        self.ref_samples: list[float] = []
        self._last = self._sample()

    def _sample(self) -> float:
        seconds = ref_kernel()
        self.ref_samples.append(seconds)
        return seconds

    def resync(self) -> None:
        """Take a fresh opening sample (after untimed work)."""
        self._last = self._sample()

    def time(self, phase: Callable[[], T]) -> tuple[T, float, float]:
        """Run ``phase``; returns (its result, normalised s, raw s)."""
        before = self._last
        start = perf_counter()
        result = phase()
        raw = perf_counter() - start
        after = self._last = self._sample()
        return result, raw * REF_NOMINAL_S / ((before + after) / 2.0), raw
