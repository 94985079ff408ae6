"""Incremental probe scheduling (the §3 cycle, §4 promotions).

Monocle's steady-state monitoring cycles through every monitorable
rule; detection latency is bounded by how fast that cycle turns.
:class:`ProbeScheduler` owns the cycle and the order it is served in:

* The key set is maintained **incrementally**: one full build at
  construction, then O(delta) add/remove of cycle keys per FlowMod,
  driven by the same affected-rule notifications the
  :class:`~repro.core.probegen.ProbeGenContext` delta API produces.
  ``stats.cycle_rebuilds`` counts full builds — churn must never
  increment it past 1 (regression-tested).
* ``round_robin`` — the paper's §3 baseline — walks the keys in table
  order (priority descending, insertion order within a priority) with a
  cursor that pre-increments and is *not* adjusted when churn inserts
  or deletes keys around it: the probe order of a loop that rebuilt the
  list on every FlowMod, key for key (property-tested).
* ``churn_first`` adds the paper's §4 insight: a rule a FlowMod just
  touched is the one most likely to be wrong, so it jumps the queue.
  Touched keys wait in a FIFO; after :data:`PROMOTION_BURST`
  consecutive promotions one probe is served from the round-robin
  cycle, so the full cycle completes at worst ``PROMOTION_BURST + 1``
  times slower under sustained churn (bounded starvation).  With an
  empty queue it *is* ``round_robin``.

The scheduler is deliberately ignorant of tables and solvers: it holds
rule *keys* and resolves them against the Monitor's expected table at
probe time.  Nor does it know when a touched rule is safe to probe: a
Monitor that confirms updates itself (dynamic mode) touches at once; a
static one holds a FlowMod's touch until the switch answers a barrier
sent behind it (:meth:`~repro.core.monitor.Monitor.observe_flowmod`),
which is as good as the switch's barrier semantics — a profile that
acks early shrinks the hold, never corrupts it.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.openflow.messages import FlowMod
from repro.openflow.rule import Rule
from repro.openflow.table import FlowTable, RuleKey

__all__ = ["POLICIES", "ProbeScheduler", "SchedulerStats"]

#: The two probe orders: ``round_robin`` never queues a touched key,
#: ``churn_first`` does.
POLICIES = ("churn_first", "round_robin")
#: Consecutive promotions before one base-cycle probe is served.
PROMOTION_BURST = 4

#: True when the key already has a probe in flight (skip it this tick).
BusyCheck = Callable[[RuleKey], bool]


@dataclass
class SchedulerStats:
    """Counters describing the scheduler's maintenance and selection.

    The one construction-time build is the only full expected-table
    iteration a scheduler ever pays; churn maintenance must keep
    ``cycle_rebuilds`` there (pinned at 1 in ``tests/test_schedule.py``).
    """

    cycle_rebuilds: int = 0
    keys_added: int = 0
    keys_removed: int = 0
    #: Probes served ahead of the base cycle (``churn_first`` only).
    scheduler_promotions: int = 0


class ProbeScheduler:
    """Delta-maintained probe cycle, served round-robin with an
    optional promotion queue in front.

    One scheduler per Monitor.  The cycle key set mirrors the monitor's
    expected table (infrastructure rules excluded) in *table order* —
    priority descending, insertion order within a priority — and is
    maintained incrementally:

    * :meth:`rebuild` — the single construction-time full build
      (``stats.cycle_rebuilds`` counts these; churn must never add one);
    * :meth:`add` / :meth:`discard` — an O(log N) bisect plus an O(N)
      C-level memmove splice per churned rule (pointer moves, not the
      Python-level per-rule work a full rebuild pays — three orders of
      magnitude cheaper at 16k-64k rules);
    * :meth:`observe_flowmod` — translates a FlowMod plus the affected
      rules (as returned by the probe context's delta API) into the
      add/discard delta, and touches the surviving rules.

    Selection (:meth:`next_rule`, drained per tick by
    :meth:`next_rules`) resolves keys against the expected
    table *at probe time*.

    Args:
        policy: ``"round_robin"`` or ``"churn_first"``
            (:data:`POLICIES`).
    """

    def __init__(
        self,
        policy: str = "round_robin",
        is_infrastructure: Callable[[Rule], bool] | None = None,
    ) -> None:
        if policy not in POLICIES:
            raise ValueError(
                f"unknown probe policy {policy!r}; "
                f"choose from {sorted(POLICIES)}"
            )
        self.policy = policy
        #: Does a touch queue its key for promotion?
        self.promotes = policy == "churn_first"
        self.is_infrastructure = is_infrastructure
        #: Table-order sort keys (-priority, seq), kept sorted; aligned
        #: with ``_keys`` so maintenance bisects instead of scanning.
        self._order: list[tuple[int, int]] = []
        self._keys: list[RuleKey] = []
        self._okey: dict[RuleKey, tuple[int, int]] = {}
        self._seq = 0
        #: Round-robin cursor into ``_keys``: pre-incremented by every
        #: selection and never adjusted by maintenance, exactly as an
        #: index into a freshly rebuilt list never was.
        self.position = 0
        #: Touched keys awaiting promotion, in touch order; a key that
        #: left ``_hot_set`` is dropped lazily when it reaches the front.
        self._hot: deque[RuleKey] = deque()
        self._hot_set: set[RuleKey] = set()
        self._burst = 0
        self.stats = SchedulerStats()
        #: Optional sim clock enabling touch -> serve wait tracking
        #: (observability); ``None`` keeps the disabled path free.
        self.clock: Callable[[], float] | None = None
        self._touched_at: dict[RuleKey, float] = {}

    def set_clock(self, clock: Callable[[], float]) -> None:
        """Enable scheduler-wait measurement against ``clock``.

        Once set, every :meth:`touch` stamps the key; the observer pops
        the stamp when the rule is finally served
        (:meth:`take_wait`) — the difference is the *scheduler wait*,
        how long a churn/update/alarm signal sat in the queue before
        its probe went out.
        """
        self.clock = clock

    def take_wait(self, key: RuleKey) -> float | None:
        """Seconds since ``key`` was last touched (consumed), if known."""
        if self.clock is None:
            return None
        touched = self._touched_at.pop(key, None)
        if touched is None:
            return None
        return self.clock() - touched

    # ----- introspection ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: RuleKey) -> bool:
        return key in self._okey

    def keys(self) -> list[RuleKey]:
        """The cycle keys in table order (a copy)."""
        return list(self._keys)

    # ----- maintenance -----------------------------------------------------

    def _monitorable(self, rule: Rule) -> bool:
        if self.is_infrastructure is None:
            return True
        return not self.is_infrastructure(rule)

    def rebuild(self, table: Iterable[Rule]) -> None:
        """Full build from a table iteration (construction time only).

        The one place the whole expected table is walked; every later
        mutation arrives through :meth:`add`/:meth:`discard`/
        :meth:`observe_flowmod` as a delta.
        """
        self._order.clear()
        self._keys.clear()
        self._okey.clear()
        for rule in table:
            if not self._monitorable(rule):
                continue
            self._seq += 1
            okey = (-rule.priority, self._seq)
            self._order.append(okey)
            self._keys.append(rule.key())
            self._okey[rule.key()] = okey
        self.stats.cycle_rebuilds += 1
        self._hot.clear()
        self._hot_set.clear()
        self._burst = 0

    def add(self, rule: Rule) -> None:
        """A rule joined the expected table (no-op on key replace)."""
        key = rule.key()
        if key in self._okey or not self._monitorable(rule):
            return
        self._seq += 1
        okey = (-rule.priority, self._seq)
        index = bisect_left(self._order, okey)
        self._order.insert(index, okey)
        self._keys.insert(index, key)
        self._okey[key] = okey
        self.stats.keys_added += 1

    def discard(self, key: RuleKey) -> None:
        """A rule left the expected table."""
        okey = self._okey.pop(key, None)
        if okey is None:
            return
        index = bisect_left(self._order, okey)
        del self._order[index]
        del self._keys[index]
        if self._touched_at:
            self._touched_at.pop(key, None)
        self._hot_set.discard(key)
        self.stats.keys_removed += 1

    def observe_flowmod(
        self, mod: FlowMod, affected: Iterable[Rule], touch: bool = True
    ) -> None:
        """Apply a FlowMod's cycle delta.

        ``affected`` is what the probe context's
        :meth:`~repro.core.probegen.ProbeGenContext.apply_flowmod`
        returned: the rules this switch's table actually gained, lost
        or replaced.  Surviving rules are also *touched* — unless
        ``touch=False``: a static Monitor holds the touch until the
        switch confirms it has applied the FlowMod, then delivers it
        via :meth:`touch` (membership maintenance is never deferred;
        only the promotion is).
        """
        deleting = mod.command.is_delete
        for rule in affected:
            if deleting:
                self.discard(rule.key())
            else:
                self.add(rule)
                if touch:
                    self.touch(rule.key())

    # ----- recency signals -------------------------------------------------

    def touch(self, key: RuleKey) -> None:
        """Mark a live cycle key as recently churned/updated/alarmed."""
        if key not in self._okey:
            return
        if self.clock is not None and key not in self._touched_at:
            # First touch wins: the wait measures signal -> probe, and
            # repeated touches before service must not shrink it.
            self._touched_at[key] = self.clock()
        if self.promotes and key not in self._hot_set:
            self._hot_set.add(key)
            self._hot.append(key)

    def note_update(self, key: RuleKey) -> None:
        """Dynamic-mode reprobe hint: an update near this rule confirmed."""
        self.touch(key)

    def record_alarm(self, key: RuleKey) -> None:
        """Alarm history: this rule misbehaved; watch it more closely."""
        self.touch(key)

    # ----- selection -------------------------------------------------------

    def _pop_hot(self, table: FlowTable, busy: BusyCheck) -> "Rule | None":
        requeue: list[RuleKey] = []
        found: "Rule | None" = None
        while self._hot:
            key = self._hot.popleft()
            if key not in self._hot_set:
                continue  # removed from the cycle since it was touched
            rule = table.get(*key)
            if rule is None:
                self._hot_set.discard(key)
                continue
            if busy(key):
                # A probe for this rule is already outstanding (e.g. a
                # dynamic-mode update probe): keep the promotion hot so
                # the rule is re-visited the moment it frees up.
                requeue.append(key)
                continue
            self._hot_set.discard(key)
            found = rule
            break
        for key in reversed(requeue):
            self._hot.appendleft(key)
        return found

    def next_rule(
        self, table: FlowTable, busy: BusyCheck | None = None
    ) -> "Rule | None":
        """The next rule to probe, or None when nothing is serveable.

        A queued promotion first (at most :data:`PROMOTION_BURST` in a
        row), else one lap of the cycle from the cursor, skipping dead
        and in-flight keys.
        """
        if busy is None:
            busy = _never_busy
        if self._hot and self._burst < PROMOTION_BURST:
            promoted = self._pop_hot(table, busy)
            if promoted is not None:
                self._burst += 1
                self.stats.scheduler_promotions += 1
                return promoted
        self._burst = 0
        keys = self._keys
        for _ in range(len(keys)):
            self.position = (self.position + 1) % len(keys)
            key = keys[self.position]
            rule = table.get(*key)
            if rule is not None and not busy(key):
                return rule
        return None

    def next_rules(
        self,
        table: FlowTable,
        busy: BusyCheck | None = None,
        limit: int = 1,
        promoted_out: "set[RuleKey] | None" = None,
    ) -> "list[Rule]":
        """Drain up to ``limit`` distinct serveable rules — one tick's
        launch budget.

        A loop over :meth:`next_rule` in which each selection sees
        every rule already served this drain as busy, so one drain
        never targets the same key twice.  ``limit=1`` is exactly one
        :meth:`next_rule` selection.

        Args:
            promoted_out: when given, receives the keys whose selection
                was a promotion (for per-probe trace attribution).
        """
        if busy is None:
            busy = _never_busy
        served: list[Rule] = []
        served_keys: set[RuleKey] = set()

        def drain_busy(key: RuleKey) -> bool:
            return key in served_keys or busy(key)

        while len(served) < limit:
            promotions_before = self.stats.scheduler_promotions
            rule = self.next_rule(table, drain_busy)
            if rule is None:
                break
            if (
                promoted_out is not None
                and self.stats.scheduler_promotions > promotions_before
            ):
                promoted_out.add(rule.key())
            served.append(rule)
            served_keys.add(rule.key())
        return served

    def __repr__(self) -> str:
        return (
            f"ProbeScheduler({self.policy}, {len(self._keys)} keys, "
            f"rebuilds={self.stats.cycle_rebuilds})"
        )


def _never_busy(_key: RuleKey) -> bool:
    return False
