"""Incremental, priority-aware probe scheduling (the §3 cycle).

Monocle's steady-state monitoring cycles through every monitorable
rule; detection latency is bounded by how fast that cycle turns.  Until
PR 5 the cycle list lived inside :class:`~repro.core.monitor.Monitor`
and was rebuilt from the whole expected table on every FlowMod — the
last O(N)-per-churn-op cost after the overlap structures went sublinear
in PR 4.  This module extracts cycle ownership into a subsystem:

* :class:`ProbeScheduler` maintains the monitorable-rule cycle
  **incrementally**: one full build at construction, then O(delta)
  add/remove of cycle keys per FlowMod, driven by the same affected-rule
  notifications the :class:`~repro.core.probegen.ProbeGenContext` delta
  API already produces.  ``stats.cycle_rebuilds`` counts full builds the
  way ``FlowTable.index_builds`` counts index builds — churn must never
  increment it past 1 (regression-tested).
* Probe *selection* is pluggable (:class:`SchedulePolicy`):

  - :class:`RoundRobinPolicy` — the paper's §3 baseline.  Byte-identical
    probe order to the historical rebuild-per-FlowMod loop (property-
    tested): keys in table order (priority descending, insertion order
    within a priority), a cursor that pre-increments and is *not*
    adjusted when churn inserts or deletes keys around it.
  - :class:`RecentChurnFirstPolicy` — the paper's dynamic-monitoring
    insight: rules touched by recent FlowMods are the ones most likely
    to be wrong, so they jump the queue.  Starvation is bounded (after
    ``max_burst`` consecutive promotions one base-cycle probe is
    served), so the full cycle still completes under sustained churn.
  - :class:`WeightedPolicy` — stride scheduling over per-rule weights
    fed by alarm history and unconfirmed-update proximity; weights are
    capped, so every rule is served at least once per
    ``max_weight * N`` ticks.

The scheduler is deliberately ignorant of tables and solvers: it holds
rule *keys* and resolves them against the Monitor's expected table at
probe time.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.openflow.messages import FlowMod
from repro.openflow.rule import Rule
from repro.openflow.table import FlowTable, RuleKey

__all__ = [
    "POLICIES",
    "ProbeScheduler",
    "RecentChurnFirstPolicy",
    "RoundRobinPolicy",
    "SchedulePolicy",
    "SchedulerStats",
    "WeightedPolicy",
    "make_policy",
]

#: Resolves a cycle key to the live rule (None when the key died).
Resolver = Callable[[RuleKey], "Rule | None"]
#: True when the key already has a probe in flight (skip it this tick).
BusyCheck = Callable[[RuleKey], bool]


@dataclass
class SchedulerStats:
    """Counters describing the scheduler's maintenance and selection.

    ``cycle_rebuilds`` mirrors the PR 4 ``index_builds`` contract: the
    one construction-time build is the only full expected-table
    iteration a scheduler ever pays; churn maintenance must keep it
    there (regression-tested and gated by ``BENCH_cycle.json``).
    """

    cycle_rebuilds: int = 0
    keys_added: int = 0
    keys_removed: int = 0
    #: Probes served ahead of the base cycle by a priority-aware policy
    #: (churn-first promotions, weighted picks of boosted rules).
    scheduler_promotions: int = 0
    churn_touches: int = 0
    update_touches: int = 0
    alarm_touches: int = 0


class SchedulePolicy:
    """Selection strategy over a :class:`ProbeScheduler`'s cycle keys.

    Policies see churn through the ``on_*`` hooks and serve probes
    through :meth:`select`; the scheduler owns the key set and its
    table order.
    """

    name = "policy"

    def __init__(self) -> None:
        self.scheduler: "ProbeScheduler | None" = None

    def bind(self, scheduler: "ProbeScheduler") -> None:
        self.scheduler = scheduler

    def on_add(self, key: RuleKey) -> None:
        """A key joined the cycle."""

    def on_remove(self, key: RuleKey) -> None:
        """A key left the cycle."""

    def on_touch(self, key: RuleKey, kind: str) -> None:
        """A live key was churned/updated/alarmed (recency signal)."""

    def on_rebuild(self) -> None:
        """The key set was rebuilt wholesale (construction time)."""

    def select(self, resolve: Resolver, busy: BusyCheck) -> "Rule | None":
        raise NotImplementedError


class RoundRobinPolicy(SchedulePolicy):
    """The §3 baseline: walk the cycle in table order.

    Byte-identical to the historical ``Monitor._rebuild_cycle`` +
    ``_next_cycle_rule`` pair: the cursor pre-increments modulo the
    current cycle length, skips dead and in-flight keys, gives up after
    one full lap — and is deliberately *not* adjusted when maintenance
    inserts or deletes keys around it, exactly as an index into a
    freshly rebuilt list never was.
    """

    name = "round_robin"

    def __init__(self) -> None:
        super().__init__()
        self.position = 0

    def select(self, resolve: Resolver, busy: BusyCheck) -> "Rule | None":
        assert self.scheduler is not None
        keys = self.scheduler._keys
        if not keys:
            return None
        for _ in range(len(keys)):
            self.position = (self.position + 1) % len(keys)
            key = keys[self.position]
            rule = resolve(key)
            if rule is None:
                continue
            if busy(key):
                continue
            return rule
        return None


class RecentChurnFirstPolicy(SchedulePolicy):
    """Recently-churned rules jump the queue (dynamic monitoring, §4).

    A FlowMod that touches a rule is the strongest predictor that the
    rule is about to be wrong in the data plane; promoting it to the
    front of the probe order turns the fig4 detection latency from
    ~cycle/2 into ~one probe timeout.  Promotions are served from a
    FIFO of touched keys; after ``max_burst`` consecutive promotions
    one probe is served from the underlying round-robin cycle, so the
    full cycle completes at worst ``max_burst + 1`` times slower under
    sustained churn (bounded starvation).
    """

    name = "churn_first"

    def __init__(self, max_burst: int = 4) -> None:
        super().__init__()
        if max_burst < 1:
            raise ValueError(f"max_burst must be >= 1: {max_burst}")
        self.max_burst = max_burst
        self.base = RoundRobinPolicy()
        self._hot: deque[RuleKey] = deque()
        self._hot_set: set[RuleKey] = set()
        self._burst = 0

    def bind(self, scheduler: "ProbeScheduler") -> None:
        super().bind(scheduler)
        self.base.bind(scheduler)

    def on_touch(self, key: RuleKey, kind: str) -> None:
        if key not in self._hot_set:
            self._hot_set.add(key)
            self._hot.append(key)

    def on_remove(self, key: RuleKey) -> None:
        # Lazily dropped from the deque at selection time.
        self._hot_set.discard(key)

    def on_rebuild(self) -> None:
        self._hot.clear()
        self._hot_set.clear()
        self._burst = 0

    def _pop_hot(self, resolve: Resolver, busy: BusyCheck) -> "Rule | None":
        requeue: list[RuleKey] = []
        found: "Rule | None" = None
        while self._hot:
            key = self._hot.popleft()
            if key not in self._hot_set:
                continue  # removed from the cycle since it was touched
            rule = resolve(key)
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

    def select(self, resolve: Resolver, busy: BusyCheck) -> "Rule | None":
        assert self.scheduler is not None
        if self._burst < self.max_burst:
            promoted = self._pop_hot(resolve, busy)
            if promoted is not None:
                self._burst += 1
                self.scheduler.stats.scheduler_promotions += 1
                return promoted
        self._burst = 0
        return self.base.select(resolve, busy)


class WeightedPolicy(SchedulePolicy):
    """Stride scheduling over per-rule weights.

    Every key advances through virtual time with stride ``1/weight``;
    the key with the smallest pass value is served next, so a rule with
    weight w is probed w times as often as a weight-1 rule.  Weights
    start at 1.0 and are boosted by churn, unconfirmed-update proximity
    and alarm history, capped at ``max_weight`` — the cap is the
    starvation bound: every rule is served at least once per
    ``max_weight * N`` ticks.
    """

    name = "weighted"

    def __init__(
        self,
        churn_boost: float = 2.0,
        update_boost: float = 2.0,
        alarm_boost: float = 4.0,
        max_weight: float = 16.0,
    ) -> None:
        super().__init__()
        self.churn_boost = churn_boost
        self.update_boost = update_boost
        self.alarm_boost = alarm_boost
        self.max_weight = max_weight
        self._weights: dict[RuleKey, float] = {}
        #: Live entry generation per key: stale heap entries (superseded
        #: by a reschedule or a removal) are dropped lazily on pop.
        #: Generations come from one global monotonic counter, so a
        #: removed-and-re-added key can never revive the ghost entries
        #: of its previous incarnation.
        self._gen: dict[RuleKey, int] = {}
        #: (pass value, generation, key); the generation doubles as a
        #: deterministic tiebreak (keys are not orderable).
        self._heap: list[tuple[float, int, RuleKey]] = []
        self._clock = 0.0
        self._counter = 0

    def _push(self, key: RuleKey, pass_value: float) -> None:
        self._counter += 1
        gen = self._counter
        self._gen[key] = gen
        heapq.heappush(self._heap, (pass_value, gen, key))

    def on_add(self, key: RuleKey) -> None:
        self._weights[key] = 1.0
        self._push(key, self._clock + 1.0)

    def on_remove(self, key: RuleKey) -> None:
        self._weights.pop(key, None)
        self._gen.pop(key, None)

    def on_rebuild(self) -> None:
        self._weights.clear()
        self._gen.clear()
        self._heap.clear()
        self._clock = 0.0
        assert self.scheduler is not None
        for key in self.scheduler._keys:
            self.on_add(key)

    def _boost(self, key: RuleKey, factor: float) -> None:
        weight = self._weights.get(key)
        if weight is None:
            return
        boosted = min(self.max_weight, weight * factor)
        self._weights[key] = boosted
        # Reschedule at the boosted stride from *now*: the rule's next
        # service moves forward without ever rewinding behind the clock.
        self._push(key, self._clock + 1.0 / boosted)

    def on_touch(self, key: RuleKey, kind: str) -> None:
        factor = {
            "churn": self.churn_boost,
            "update": self.update_boost,
            "alarm": self.alarm_boost,
        }.get(kind, self.churn_boost)
        self._boost(key, factor)

    def select(self, resolve: Resolver, busy: BusyCheck) -> "Rule | None":
        assert self.scheduler is not None
        skipped: list[tuple[float, int, RuleKey]] = []
        served: "Rule | None" = None
        while self._heap:
            entry = heapq.heappop(self._heap)
            pass_value, gen, key = entry
            if self._gen.get(key) != gen:
                continue  # superseded or removed
            rule = resolve(key)
            if rule is None:
                continue
            if busy(key):
                skipped.append(entry)
                continue
            weight = self._weights.get(key, 1.0)
            # Virtual time never rewinds: a key whose entry sat below
            # the advancing clock while its probe was in flight is
            # served at the *current* clock, so boosts pushed during
            # that window cannot leapfrog the whole backlog and the
            # max_weight * N starvation bound holds.
            self._clock = max(self._clock, pass_value)
            self._push(key, self._clock + 1.0 / weight)
            if weight > 1.0:
                self.scheduler.stats.scheduler_promotions += 1
                # Boosts decay as they are served: each boosted probe
                # halves the weight back toward the baseline, so a
                # burst of churn yields a burst of attention, not a
                # permanent bias.
                self._weights[key] = max(1.0, weight / 2.0)
            served = rule
            break
        # Busy keys keep their place in virtual time (their generation
        # is still the live one, so re-pushing the entry suffices).
        for entry in skipped:
            heapq.heappush(self._heap, entry)
        return served


class ProbeScheduler:
    """Delta-maintained probe cycle with pluggable selection.

    One scheduler per Monitor.  The cycle key set mirrors the monitor's
    expected table (infrastructure rules excluded) in *table order* —
    priority descending, insertion order within a priority — and is
    maintained incrementally:

    * :meth:`rebuild` — the single construction-time full build
      (``stats.cycle_rebuilds`` counts these; churn must never add one);
    * :meth:`add` / :meth:`discard` — an O(log N) bisect plus an O(N)
      C-level memmove splice per churned rule (pointer moves, not the
      Python-level per-rule work a full rebuild pays — three orders of
      magnitude cheaper at 16k-64k rules, see ``BENCH_cycle.json``);
    * :meth:`observe_flowmod` — translates a FlowMod plus the affected
      rules (as returned by the probe context's delta API) into the
      add/discard delta, and feeds churn recency to the policy.

    Selection (:meth:`next_rule`, drained per tick by
    :meth:`next_rules`) resolves keys against the expected
    table *at probe time*.
    """

    def __init__(
        self,
        policy: SchedulePolicy | None = None,
        is_infrastructure: Callable[[Rule], bool] | None = None,
    ) -> None:
        self.policy = policy if policy is not None else RoundRobinPolicy()
        self.is_infrastructure = is_infrastructure
        #: Table-order sort keys (-priority, seq), kept sorted; aligned
        #: with ``_keys`` so maintenance bisects instead of scanning.
        self._order: list[tuple[int, int]] = []
        self._keys: list[RuleKey] = []
        self._okey: dict[RuleKey, tuple[int, int]] = {}
        self._seq = 0
        self.stats = SchedulerStats()
        #: Optional sim clock enabling touch -> serve wait tracking
        #: (observability); ``None`` keeps the disabled path free.
        self.clock: Callable[[], float] | None = None
        self._touched_at: dict[RuleKey, float] = {}
        self.policy.bind(self)

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
        self.policy.on_rebuild()

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
        self.policy.on_add(key)

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
        self.stats.keys_removed += 1
        self.policy.on_remove(key)

    def observe_flowmod(
        self, mod: FlowMod, affected: Iterable[Rule], touch: bool = True
    ) -> None:
        """Apply a FlowMod's cycle delta.

        ``affected`` is what the probe context's
        :meth:`~repro.core.probegen.ProbeGenContext.apply_flowmod`
        returned: the rules this switch's table actually gained, lost
        or replaced.  Surviving rules are also *touched* so recency-
        aware policies can promote them — unless ``touch=False``, the
        promotion-grace path: the Monitor holds the recency signal
        until the switch confirms it has applied the FlowMod, then
        delivers it via :meth:`touch` (membership maintenance is never
        deferred; only the promotion hint is).
        """
        deleting = mod.command.is_delete
        for rule in affected:
            if deleting:
                self.discard(rule.key())
            else:
                self.add(rule)
                if touch:
                    self.touch(rule.key(), "churn")

    # ----- recency signals -------------------------------------------------

    def touch(self, key: RuleKey, kind: str = "churn") -> None:
        """Mark a live cycle key as recently churned/updated/alarmed."""
        if key not in self._okey:
            return
        if kind == "update":
            self.stats.update_touches += 1
        elif kind == "alarm":
            self.stats.alarm_touches += 1
        else:
            self.stats.churn_touches += 1
        if self.clock is not None and key not in self._touched_at:
            # First touch wins: the wait measures signal -> probe, and
            # repeated touches before service must not shrink it.
            self._touched_at[key] = self.clock()
        self.policy.on_touch(key, kind)

    def note_update(self, key: RuleKey) -> None:
        """Dynamic-mode reprobe hint: an update near this rule confirmed."""
        self.touch(key, "update")

    def record_alarm(self, key: RuleKey) -> None:
        """Alarm history: this rule misbehaved; watch it more closely."""
        self.touch(key, "alarm")

    # ----- selection -------------------------------------------------------

    def next_rule(
        self, table: FlowTable, busy: BusyCheck | None = None
    ) -> "Rule | None":
        """The next rule to probe, or None when nothing is serveable."""
        if busy is None:
            busy = _never_busy
        return self.policy.select(lambda key: table.get(*key), busy)

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
                was a policy promotion (for per-probe trace
                attribution).
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
            f"ProbeScheduler({self.policy.name}, {len(self._keys)} keys, "
            f"rebuilds={self.stats.cycle_rebuilds})"
        )


def _never_busy(_key: RuleKey) -> bool:
    return False


#: Policy registry for fleet-level (per-switch) selection by name.
POLICIES: dict[str, Callable[[], SchedulePolicy]] = {
    "round_robin": RoundRobinPolicy,
    "churn_first": RecentChurnFirstPolicy,
    "weighted": WeightedPolicy,
}


def make_policy(name: str) -> SchedulePolicy:
    """Instantiate a selection policy by registry name."""
    try:
        factory = POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown probe policy {name!r}; choose from {sorted(POLICIES)}"
        ) from None
    return factory()
