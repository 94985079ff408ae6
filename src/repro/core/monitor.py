"""The Monitor proxy: per-switch data-plane monitoring.

One :class:`Monitor` interposes on one switch's control channel (§7).
It maintains the switch's *expected* flow table by observing proxied
FlowMods, and checks data-plane correspondence by injecting probes:

* **steady state** (§3, Figure 4): cycle through all monitorable rules
  at a configured probe rate; each probe is retried within a timeout
  window and a missing/misbehaving rule raises a
  :class:`MonitorAlarm`.
* **dynamic mode** lives in :mod:`repro.core.dynamic` and shares the
  probe bookkeeping implemented here.

A probe is *confirmed* when a caught packet's observation — (egress
port, rewritten header) — is possible under the expected outcome and
impossible under the rule-absent outcome; the generator's Distinguish
constraint guarantees the two sets cannot coincide.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Hashable, Mapping

from repro.core.probegen import (
    ProbeGenContext,
    ProbeGenerator,
    ProbeResult,
    UnmonitorableReason,
)
from repro.core.schedule import ProbeScheduler
from repro.obs import NullObserver, Observer
from repro.openflow.fields import FieldName
from repro.openflow.messages import (
    BarrierReply,
    BarrierRequest,
    FlowMod,
    Message,
    next_xid,
)
from repro.openflow.rule import Rule, RuleOutcome
from repro.openflow.table import FlowTable
from repro.packets.craft import craft_packet, wire_visible_items
from repro.packets.payload import ProbeMetadata
from repro.sim.kernel import Event, Simulator

if TYPE_CHECKING:
    from repro.core.multiplexer import Multiplexer

_nonce_counter = itertools.count(1)

#: Re-probe gap after a suppressed strike: the first, the factor each
#: further strike escalates it by, and its cap (the same shape as
#: probe-retry backoff: prompt when suspicion is fresh, polite when the
#: switch keeps timing out).
SUSPICION_REPROBE_GAP = 0.010
SUSPICION_REPROBE_ESCALATION = 2.0
SUSPICION_REPROBE_GAP_CAP = 0.050


@dataclass
class MonitorConfig:
    """Tunables of the monitoring loop.

    Defaults mirror the paper's Figure 4 setup: 500 probes/s, 150 ms
    detection timeout, up to 3 re-sends.
    """

    probe_rate: float = 500.0
    probe_timeout: float = 0.150
    max_retries: int = 3
    #: Re-injection interval for unconfirmed rule updates (dynamic mode).
    update_probe_interval: float = 0.005
    #: Give up confirming an update after this long (transient tolerance).
    update_deadline: float = 10.0
    #: Alarm hysteresis: consecutive probe-timeout *strikes* a rule must
    #: accumulate before a ``missing`` alarm is raised.  1 reproduces
    #: the paper's immediate alarm byte-for-byte; >1 makes the monitor
    #: robust to stochastic probe loss on a degraded control channel
    #: (a lost probe costs one suppressed strike, not a false alarm).
    alarm_confirmations: int = 1
    #: Steady-state probe pipelining.  1 (the default) is the paper's
    #: rate-paced cycle: one launch per tick, however many earlier
    #: probes are still in flight.  W > 1 tops the steady probes in
    #: flight back up to W every tick (a depth cap), so detection
    #: latency on an N-rule table drops from ~N/probe_rate toward
    #: ~N/(probe_window * probe_rate).  Concurrent probes of one switch
    #: share its reserved value and are told apart by their nonce.
    probe_window: int = 1


@dataclass
class MonitorAlarm:
    """Raised (recorded) when a rule misbehaves in the data plane."""

    time: float
    rule: Rule
    kind: str  # "missing" (timeout) or "misbehaving" (wrong observation)
    detail: str = ""


#: An observation: (egress port on the probed switch, header items
#: without in_port).  What Monocle can attribute to a caught probe.
Observation = tuple[int, tuple]


def outcome_observations(
    outcome: RuleOutcome, observable_ports: frozenset[int] | None
) -> frozenset[Observation]:
    """The possible observations of an outcome, restricted to observable
    ports.  ECMP outcomes contribute each alternative.

    Emission headers are projected onto their wire-visible fields: the
    abstract outcome model carries all header fields, but a caught
    probe only shows the fields its packet format encodes (an ARP probe
    has no ``nw_proto``), and the comparison must be apples-to-apples.
    """
    observations = []
    for port, header_items in outcome.emissions:
        if observable_ports is not None and port not in observable_ports:
            continue
        observations.append((port, wire_visible_items(dict(header_items))))
    return frozenset(observations)


@dataclass
class OutstandingProbe:
    """Book-keeping for one in-flight probe."""

    nonce: int
    result: ProbeResult
    #: The wire bytes, crafted once at launch, and the port they enter
    #: the probed switch on; every retry re-sends exactly these.
    packet: bytes
    in_port: int
    present_obs: frozenset[Observation]
    absent_obs: frozenset[Observation]
    first_injected: float
    retries_left: int
    timeout_event: Event | None = None
    on_confirm: Callable[["OutstandingProbe"], None] | None = None
    on_alarm: Callable[["OutstandingProbe", str], None] | None = None
    #: "present" (steady state / additions) or "absent" (deletions).
    confirm_on: str = "present"
    #: Dynamic-mode probes tolerate observations of the opposite state
    #: (a transient inconsistency, §4.1) instead of alarming on them.
    tolerate_anti: bool = False
    done: bool = False
    #: Trace span id tying this probe's lifecycle events together
    #: (0 when observability is disabled).
    span: int = 0
    #: Launched by the steady cycle's window (counts toward depth).
    steady: bool = False


class Monitor:
    """Monocle's per-switch Monitor proxy.

    Wired by :class:`~repro.core.multiplexer.MonocleSystem`, its one
    constructor:

    * ``forward_down(msg)``: deliver a message to the switch.
    * ``to_controller(node, msg)``: deliver a message to the controller.
    * ``multiplexer``: its ``inject(node, packet, in_port)`` makes a
      probe enter the monitored switch on ``in_port`` (via an upstream
      PacketOut), and it hands caught probes back through
      :meth:`handle_caught_probe`.
    * ``probe_context``: the incremental probe-generation engine
      (persistent SAT context, per-rule probe cache), already seeded
      with the switch's catching rules.
    * ``scheduler``: owns the probe cycle.  The one full
      expected-table walk happens here at construction; every later
      FlowMod feeds it an O(delta) add/remove instead.
    """

    def __init__(
        self,
        sim: Simulator,
        node: Hashable,
        switch_number: int,
        generator: ProbeGenerator,
        config: MonitorConfig,
        observable_ports: frozenset[int],
        forward_down: Callable[[Message], None],
        to_controller: Callable[[Hashable, Message], None],
        multiplexer: "Multiplexer",
        probe_context: ProbeGenContext,
        scheduler: ProbeScheduler,
        obs: "Observer | NullObserver",
    ) -> None:
        self.sim = sim
        self.node = node
        self.switch_number = switch_number
        self.generator = generator
        self.config = config
        self.observable_ports = observable_ports
        self.forward_down = forward_down
        self.to_controller = to_controller
        self.multiplexer = multiplexer

        #: Probe window: the cap on steady probes in flight at once
        #: (see ``MonitorConfig.probe_window``).
        self.window = max(1, self.config.probe_window)
        #: Steady probes in flight right now, and the most there were.
        self.window_depth = 0
        self.window_peak = 0
        #: rule key -> number of outstanding (not done) probes, the
        #: O(1) busy check behind the scheduler's window drain.
        self._inflight_keys: dict[tuple, int] = {}
        #: Held promotions (static deployments): barrier xid -> rule
        #: keys the scheduler is told about at the BarrierReply.
        self._held_promotions: dict[int, list[tuple]] = {}
        self.promotions_held = 0
        #: Set by DynamicMonitor: updates are confirmed with transient
        #: tolerance there, so no promotion needs holding.
        self.dynamic_guarded = False

        probe_context.validate_result = self._check_observability
        self.probe_context = probe_context
        #: Expected (control-plane view) flow table, catch rules
        #: included.  Owned by the probe context, so delta updates and
        #: probe generation see one table.
        self.expected: FlowTable = probe_context.table
        self.alarms: list[MonitorAlarm] = []
        self.outstanding: dict[int, OutstandingProbe] = {}
        self.scheduler = scheduler
        scheduler.rebuild(self.expected)
        self._steady_running = False
        # Stats.
        self.probes_sent = 0
        self.probes_confirmed = 0
        self.probes_timed_out = 0
        self.rules_unmonitorable = 0
        self.stale_probes = 0
        #: Alarm hysteresis: rule key -> consecutive unconfirmed-timeout
        #: strikes (dormant — zero extra events — at the default config).
        self.suspicion: dict[tuple, int] = {}
        self.alarms_suppressed = 0
        #: Observability: every hot-path publication site guards on
        #: ``obs.enabled``, so the default NULL_OBSERVER costs one
        #: attribute read per site (inside every ``bench`` ``op_us``).
        self.obs = obs
        if obs.enabled:
            label = repr(node)
            self._h_wait = self.obs.metrics.histogram(
                "monocle_scheduler_wait_seconds", node=label
            )
            self._h_wire = self.obs.metrics.histogram(
                "monocle_probe_wire_seconds", node=label
            )
            scheduler.set_clock(lambda: sim.now)
            probe_context.attach_obs(self.obs, node)

    # ----- expected-table maintenance --------------------------------------

    def preinstall(self, rule: Rule) -> None:
        """Record a rule installed out-of-band (catch rules, initial state)."""
        self.probe_context.add_rule(rule)
        self.scheduler.add(rule)

    def observe_flowmod(self, mod: FlowMod) -> list[tuple]:
        """Track a FlowMod the controller sent (steady-state tracking).

        Dynamic-mode interception (queueing + acks) is layered on top by
        :class:`~repro.core.dynamic.DynamicMonitor`.  The probe context
        applies the FlowMod to the expected table and stale-marks only
        cached probes whose rule intersects the rules actually touched;
        the same affected-rule delta maintains the probe cycle — no
        full-table rebuild, ever.

        Returns the rule keys whose scheduler promotion is held (empty
        unless this is a static deployment that promotes): promoted at
        once, the rule would be probed inside the switch's application
        window and alarm on the old state.  The proxy sends a barrier
        *behind* the FlowMod and touches the keys only when the
        switch's BarrierReply says the mod was applied — as trustworthy
        as the switch's barrier semantics: a profile that acks early
        shrinks the hold, never corrupts it.  Dynamic mode confirms
        updates with transient tolerance and ``round_robin`` promotes
        nothing, so neither sends a barrier.
        """
        affected = self.probe_context.apply_flowmod(mod)
        if self.outstanding:
            self._invalidate_steady_probes(affected, mod.command.is_delete)
        defer = (
            self.scheduler.promotes
            and not self.dynamic_guarded
            and not mod.command.is_delete
        )
        self.scheduler.observe_flowmod(mod, affected, touch=not defer)
        if self.obs.enabled:
            self.obs.emit(
                "flowmod.observed",
                node=self.node,
                xid=mod.xid,
                command=mod.command.name,
                priority=mod.priority,
                match=mod.match,
                affected=len(affected),
            )
        if not defer:
            return []
        return [rule.key() for rule in affected]

    # ----- proxy data path ---------------------------------------------------

    def from_controller(self, msg: Message) -> None:
        """Controller -> switch passthrough with FlowMod tracking."""
        held_keys: list[tuple] = []
        if isinstance(msg, FlowMod):
            held_keys = self.observe_flowmod(msg)
        self.forward_down(msg)
        if held_keys:
            # The barrier rides *behind* the FlowMod on the control
            # channel, so its reply bounds the mod's application time.
            self._send_promotion_barrier(held_keys)

    def _send_promotion_barrier(self, keys: list[tuple]) -> None:
        xid = next_xid()
        self._held_promotions[xid] = keys
        self.promotions_held += 1
        if self.obs.enabled:
            self.obs.emit(
                "promotion.held",
                node=self.node,
                xid=xid,
                keys=len(keys),
            )
        self.forward_down(BarrierRequest(xid=xid))

    def _promotion_barrier_done(self, xid: int) -> bool:
        """Consume a BarrierReply for a Monitor-issued barrier."""
        keys = self._held_promotions.pop(xid, None)
        if keys is None:
            return False
        for key in keys:
            # touch() ignores keys that left the cycle in the interim.
            self.scheduler.touch(key)
        if self.obs.enabled:
            self.obs.emit(
                "promotion.released",
                node=self.node,
                xid=xid,
                keys=len(keys),
            )
        return True

    def from_switch(self, msg: Message) -> None:
        """Switch -> controller passthrough of non-probe traffic.

        Caught probes never get here: ``MonocleSystem._from_switch``
        classifies every PacketIn and routes probes through the
        multiplexer to :meth:`handle_caught_probe`.
        """
        if isinstance(msg, BarrierReply) and self._held_promotions:
            # Replies to *our* barriers stop here; the controller's
            # own barriers (different xids) pass through.
            if self._promotion_barrier_done(msg.xid):
                return
        self.to_controller(self.node, msg)

    # ----- probe generation ---------------------------------------------------

    def probe_for_rule(self, rule: Rule) -> ProbeResult:
        """Probe for ``rule`` in the current expected table.

        Served by the incremental engine: cache hit, cheap revalidation
        of a stale-marked entry, or an assumption-based incremental SAT
        solve — in that order.
        """
        return self.probe_context.probe_for(rule)

    def observations(
        self, result: ProbeResult
    ) -> tuple[frozenset[Observation], frozenset[Observation]]:
        """What the observable ports show of the probe when the rule
        is (present, absent): computed once per result — when it is
        validated, or at first launch for one that never was (dynamic
        mode's altered-table probes) — and kept on it."""
        if result.observations is None:
            present, absent = result.outcome_present, result.outcome_absent
            assert present is not None and absent is not None
            result.observations = (
                outcome_observations(present, self.observable_ports),
                outcome_observations(absent, self.observable_ports),
            )
        return result.observations

    def _check_observability(self, result: ProbeResult) -> ProbeResult:
        """Demote probes whose outcomes can't be told apart from what
        Monocle can actually observe (egress rules, §3.5)."""
        present, absent = self.observations(result)
        present_returns = bool(present)
        absent_returns = bool(absent)
        if present == absent and present_returns == absent_returns:
            result.ok = False
            result.reason = UnmonitorableReason.UNSATISFIABLE
        return result

    # ----- steady-state cycle ---------------------------------------------

    def start_steady_state(self) -> None:
        """Begin the §3 monitoring cycle at ``config.probe_rate``."""
        if self._steady_running:
            return
        self._steady_running = True
        self.sim.schedule(1.0 / self.config.probe_rate, self._steady_tick)

    def _steady_tick(self) -> None:
        self.sim.schedule(1.0 / self.config.probe_rate, self._steady_tick)
        # Launch budget.  A window of 1 is purely rate-paced: one
        # launch per tick with no depth cap.  A deeper window tops the
        # steady probes in flight back up to ``window`` each tick, so
        # the sustained injection rate approaches window * probe_rate
        # while probe_rate still paces (and batches) the injections.
        budget = 1 if self.window == 1 else self.window - self.window_depth
        if budget <= 0:
            return
        promoted_keys: set[tuple] = set()
        rules = self.scheduler.next_rules(
            self.expected,
            busy=self._in_flight,
            limit=budget,
            promoted_out=promoted_keys,
        )
        for rule in rules:
            self._serve_steady_rule(rule, rule.key() in promoted_keys)
        if self.obs.enabled and rules and self.window > 1:
            self.obs.emit(
                "window.depth",
                node=self.node,
                depth=self.window_depth,
                launched=len(rules),
                window=self.window,
            )

    def _serve_steady_rule(self, rule: Rule, promoted: bool) -> None:
        """Generate and launch one steady-cycle probe (trace included)."""
        obs = self.obs
        tracing = obs.enabled
        span = 0
        if tracing:
            span = obs.next_span()
            wait = self.scheduler.take_wait(rule.key())
            if promoted:
                obs.emit(
                    "scheduler.promoted",
                    node=self.node,
                    span=span,
                    priority=rule.priority,
                    match=rule.match,
                )
            if wait is not None:
                self._h_wait.observe(wait)
            genstats = self.probe_context.stats
            before = (
                genstats.cache_hits,
                genstats.revalidations,
                genstats.probes_generated,
                genstats.generation_seconds,
            )
        result = self.probe_for_rule(rule)
        if tracing:
            genstats = self.probe_context.stats
            if genstats.probes_generated > before[2]:
                source = "solve"
            elif genstats.revalidations > before[1]:
                source = "revalidate"
            else:
                source = "cache"
            obs.emit(
                "probe.generated",
                node=self.node,
                span=span,
                priority=rule.priority,
                match=rule.match,
                cookie=rule.cookie,
                source=source,
                ok=result.ok,
                solve_seconds=genstats.generation_seconds - before[3],
                wait_seconds=wait,
            )
        if not result.ok:
            self.rules_unmonitorable += 1
            return
        self.launch_probe(
            result,
            confirm_on="present",
            on_confirm=self._steady_confirm,
            on_alarm=self._steady_alarm,
            span=span,
            steady=True,
        )

    def _in_flight(self, key: tuple) -> bool:
        """Is a probe for this rule key already outstanding?"""
        return self._inflight_keys.get(key, 0) > 0

    def _steady_alarm(self, probe: OutstandingProbe, kind: str) -> None:
        if kind == "missing" and self._suppress_missing(probe):
            return
        # A raised alarm restarts the rule's strike count (the next
        # alarm needs k fresh strikes).
        self.suspicion.pop(probe.result.rule.key(), None)
        self.alarms.append(
            MonitorAlarm(
                time=self.sim.now,
                rule=probe.result.rule,
                kind=kind,
                detail=f"nonce={probe.nonce}",
            )
        )
        if self.obs.enabled:
            rule = probe.result.rule
            self.obs.emit(
                "alarm.raised",
                node=self.node,
                span=probe.span or None,
                kind=kind,
                cookie=rule.cookie,
                priority=rule.priority,
                match=rule.match,
            )
        # Alarm history feeds the scheduler: a promoting one re-visits
        # the rule ahead of the cycle.
        self.scheduler.record_alarm(probe.result.rule.key())

    # ----- alarm hysteresis ------------------------------------------------

    def _steady_confirm(self, probe: OutstandingProbe) -> None:
        """A steady probe confirmed: the rule is vindicated."""
        if self.suspicion:
            self.suspicion.pop(probe.result.rule.key(), None)

    def _suppress_missing(self, probe: OutstandingProbe) -> bool:
        """Count a strike; True when the ``missing`` alarm must be
        swallowed because the rule has not yet accumulated
        ``alarm_confirmations`` of them.  Dormant (always False, no
        state touched) at the default config.
        """
        confirmations = self.config.alarm_confirmations
        if confirmations <= 1:
            return False
        rule = probe.result.rule
        key = rule.key()
        strikes = self.suspicion.get(key, 0) + 1
        self.suspicion[key] = strikes
        if strikes >= confirmations:
            # Confirmed missing: let the alarm through (strike count
            # resets in the caller).
            return False
        self.alarms_suppressed += 1
        if self.obs.enabled:
            self.obs.emit(
                "alarm.suppressed",
                node=self.node,
                span=probe.span or None,
                kind="missing",
                cookie=rule.cookie,
                priority=rule.priority,
                match=rule.match,
                strikes=strikes,
            )
        # Escalating re-probe: resolve the suspicion faster than the
        # steady cycle would come back around.
        gap = min(
            SUSPICION_REPROBE_GAP
            * SUSPICION_REPROBE_ESCALATION ** (strikes - 1),
            SUSPICION_REPROBE_GAP_CAP,
        )
        self.sim.schedule(gap, lambda: self._reprobe_suspect(rule))
        return True

    def _reprobe_suspect(self, rule: Rule) -> None:
        key = rule.key()
        if key not in self.suspicion:
            return  # vindicated (or alarmed) in the meantime
        current = self.expected.get(rule.priority, rule.match)
        if current is not rule:
            # The rule left the expected table (or was replaced by an
            # update): stale suspicion, drop it.
            del self.suspicion[key]
            return
        if self._in_flight(key):
            # The steady cycle beat us to it; its outcome feeds the
            # same strike/confirm machinery.
            return
        result = self.probe_for_rule(rule)
        if not result.ok:
            self.rules_unmonitorable += 1
            del self.suspicion[key]
            return
        self.launch_probe(
            result,
            confirm_on="present",
            on_confirm=self._steady_confirm,
            on_alarm=self._steady_alarm,
        )

    # ----- probe lifecycle ---------------------------------------------------

    def launch_probe(
        self,
        result: ProbeResult,
        confirm_on: str = "present",
        on_confirm: Callable[[OutstandingProbe], None] | None = None,
        on_alarm: Callable[[OutstandingProbe, str], None] | None = None,
        retry_interval: float | None = None,
        retries: int | None = None,
        timeout: float | None = None,
        retry_backoff: float = 1.0,
        max_retry_interval: float = 0.050,
        tolerate_anti: bool = False,
        span: int = 0,
        steady: bool = False,
    ) -> OutstandingProbe:
        """Inject a probe and track it to confirmation or timeout.

        The probe is crafted here, once; retries re-send the same bytes.

        Args:
            retries: re-injection budget; ``-1`` means re-inject until
                the timeout fires (dynamic-mode probes).
            timeout: overrides ``config.probe_timeout``.
            retry_backoff: multiplier applied to the retry interval
                after every re-injection (capped at
                ``max_retry_interval``); >1 lets long-pending update
                probes back off while the switch control queue drains.
            steady: launched by the steady cycle (counts toward the
                window depth; dynamic/suspicion probes do not).
        """
        assert result.ok and result.header is not None
        assert result.outcome_present is not None
        if self.obs.enabled and span == 0:
            # Probes launched outside the steady cycle (dynamic-mode
            # update confirmations) still get their own lifecycle span.
            span = self.obs.next_span()
        nonce = next(_nonce_counter)
        metadata = ProbeMetadata(
            switch_id=self.switch_number,
            rule_cookie=result.rule.cookie,
            nonce=nonce,
            expected_drop=result.outcome_present.is_drop(),
        )
        present_obs, absent_obs = self.observations(result)
        probe = OutstandingProbe(
            nonce=nonce,
            result=result,
            packet=craft_packet(result.header, metadata.encode()),
            in_port=result.header.get(FieldName.IN_PORT, 0),
            present_obs=present_obs,
            absent_obs=absent_obs,
            first_injected=self.sim.now,
            retries_left=(
                retries if retries is not None else self.config.max_retries
            ),
            on_confirm=on_confirm,
            on_alarm=on_alarm,
            confirm_on=confirm_on,
            tolerate_anti=tolerate_anti,
            span=span,
            steady=steady,
        )
        self.outstanding[nonce] = probe
        key = result.rule.key()
        self._inflight_keys[key] = self._inflight_keys.get(key, 0) + 1
        if steady:
            self.window_depth += 1
            if self.window_depth > self.window_peak:
                self.window_peak = self.window_depth
        self._inject(probe)
        retry_gap = (
            retry_interval
            if retry_interval is not None
            else self.config.probe_timeout / (self.config.max_retries + 1)
        )
        # Backoff only engages after one timeout's worth of fast
        # retries: prompt confirmation for healthy switches, polite
        # polling when the control queue is backlogged.
        grace = (
            int(self.config.probe_timeout / retry_gap)
            if retry_backoff > 1.0
            else 0
        )
        self._schedule_retry(
            probe, retry_gap, retry_backoff, max_retry_interval, grace
        )
        probe.timeout_event = self.sim.schedule(
            timeout if timeout is not None else self.config.probe_timeout,
            lambda: self._probe_timeout(probe),
        )
        return probe

    def _inject(self, probe: OutstandingProbe) -> None:
        self.probes_sent += 1
        if self.obs.enabled:
            self.obs.emit(
                "probe.sent",
                node=self.node,
                span=probe.span or None,
                nonce=probe.nonce,
                in_port=probe.in_port,
            )
        self.multiplexer.inject(self.node, probe.packet, probe.in_port)

    def _schedule_retry(
        self,
        probe: OutstandingProbe,
        gap: float,
        backoff: float = 1.0,
        max_gap: float = 0.050,
        grace: int = 0,
    ) -> None:
        def retry() -> None:
            if probe.done:
                return
            if probe.retries_left == 0:
                return
            if probe.retries_left > 0:
                probe.retries_left -= 1
            self._inject(probe)
            next_gap = gap if grace > 0 else min(gap * backoff, max_gap)
            self._schedule_retry(
                probe, next_gap, backoff, max_gap, max(0, grace - 1)
            )

        self.sim.schedule(gap, retry)

    def _observe_probe_end(
        self, probe: OutstandingProbe, etype: str, negative: bool
    ) -> None:
        """Trace a probe's resolution and record its wire latency."""
        wire = self.sim.now - probe.first_injected
        self.obs.emit(
            etype,
            node=self.node,
            span=probe.span or None,
            nonce=probe.nonce,
            negative=negative,
            wire_seconds=wire,
        )
        if etype == "probe.confirmed" and not negative:
            self._h_wire.observe(wire)

    def _retire(self, probe: OutstandingProbe) -> None:
        """Take a probe out of flight.

        The single bookkeeping point shared by confirmation, timeout,
        invalidation and misbehaving-alarm retirement: marks the probe
        done, drops it from ``outstanding`` and decrements the per-key
        in-flight count and steady window depth.
        """
        if probe.done:
            return
        probe.done = True
        self.outstanding.pop(probe.nonce, None)
        key = probe.result.rule.key()
        count = self._inflight_keys.get(key, 0)
        if count <= 1:
            self._inflight_keys.pop(key, None)
        else:
            self._inflight_keys[key] = count - 1
        if probe.steady:
            probe.steady = False
            self.window_depth -= 1

    def invalidate_probe(self, probe: OutstandingProbe) -> None:
        """Cancel an in-flight probe (its table context became stale)."""
        self._retire(probe)
        if probe.timeout_event is not None:
            probe.timeout_event.cancel()

    def _invalidate_steady_probes(
        self, affected: list[Rule], deleting: bool
    ) -> None:
        """A FlowMod touched the rule a steady probe in flight is for,
        or installed a rule above it that the probe's header matches.

        Whether the probe meets the old or the new state in the data
        plane is a race it cannot win: silence after a DELETE, the new
        outcome after a MODIFY, or the higher rule's outcome after an
        ADD above it would raise an alarm on a rule that did what it
        was told.  The update's own probes (dynamic mode) expect the
        change and stay.
        """
        steady_alarm = self._steady_alarm
        for probe in list(self.outstanding.values()):
            if probe.on_alarm != steady_alarm:
                continue
            probed, header = probe.result.rule, probe.result.header
            assert header is not None  # launched probes carry one
            for rule in affected:
                if rule.key() == probed.key() or (
                    not deleting
                    and rule.priority > probed.priority
                    and rule.match.matches(header)
                ):
                    self.invalidate_probe(probe)
                    break

    def _probe_timeout(self, probe: OutstandingProbe) -> None:
        if probe.done:
            return
        self._retire(probe)
        expecting_return = (
            bool(probe.present_obs)
            if probe.confirm_on == "present"
            else bool(probe.absent_obs)
        )
        if not expecting_return:
            # Negative probing (§3.3): silence is (weak) success.
            self.probes_confirmed += 1
            if self.obs.enabled:
                self._observe_probe_end(probe, "probe.confirmed", True)
            if probe.on_confirm is not None:
                probe.on_confirm(probe)
            return
        self.probes_timed_out += 1
        if self.obs.enabled:
            self._observe_probe_end(probe, "probe.timeout", False)
        if probe.on_alarm is not None:
            probe.on_alarm(probe, "missing")

    def handle_caught_probe(
        self,
        egress_port: int,
        values: Mapping[FieldName, int],
        metadata: ProbeMetadata,
    ) -> None:
        """A probe of ours came back (routed here by the multiplexer).

        ``egress_port`` is the port the probe left *this* switch on
        (the multiplexer knows which downstream switch caught it) and
        ``values`` the caught packet's header, parsed once by
        ``MonocleSystem._from_switch``.
        """
        probe = self.outstanding.get(metadata.nonce)
        if probe is None or probe.done:
            self.stale_probes += 1
            return
        observation: Observation = (egress_port, wire_visible_items(values))
        target = (
            probe.present_obs
            if probe.confirm_on == "present"
            else probe.absent_obs
        )
        anti = (
            probe.absent_obs
            if probe.confirm_on == "present"
            else probe.present_obs
        )
        if observation in target:
            self._retire(probe)
            if probe.timeout_event is not None:
                probe.timeout_event.cancel()
            self.probes_confirmed += 1
            if self.obs.enabled:
                self._observe_probe_end(probe, "probe.confirmed", False)
            if probe.on_confirm is not None:
                probe.on_confirm(probe)
        elif observation in anti:
            # Positive evidence of the opposite state.
            if probe.confirm_on == "present" and not probe.tolerate_anti:
                self._retire(probe)
                if probe.timeout_event is not None:
                    probe.timeout_event.cancel()
                if probe.on_alarm is not None:
                    probe.on_alarm(probe, "misbehaving")
            # Otherwise: for deletions ("absent") or tolerant update
            # probes, seeing the old state just means the switch hasn't
            # updated yet; keep waiting.
        else:
            # Neither state explains this observation: corruption.  One
            # alarm per probe: retire it, so caught retries of the same
            # nonce are stale and its timeout cannot add a ``missing``
            # alarm.  Tolerant update probes keep polling; their
            # handler gives the update up once.
            if not probe.tolerate_anti:
                self._retire(probe)
                if probe.timeout_event is not None:
                    probe.timeout_event.cancel()
            if probe.on_alarm is not None:
                probe.on_alarm(probe, "misbehaving")
