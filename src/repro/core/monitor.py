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

import enum
import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, ClassVar, Hashable

from repro.core.probegen import (
    ProbeGenContext,
    ProbeGenerator,
    ProbeResult,
    UnmonitorableReason,
)
from repro.core.schedule import ProbeScheduler
from repro.obs import Histogram, NullObserver, Observer
from repro.openflow.messages import FlowMod, Message
from repro.openflow.rule import Rule, RuleOutcome
from repro.openflow.table import FlowTable
from repro.packets.craft import (
    IN_PORT_SHIFT,
    NOT_IN_PORT,
    craft_packet,
    wire_visible_bits,
)
from repro.packets.payload import ProbeMetadata
from repro.sim.kernel import Event, Simulator

if TYPE_CHECKING:
    from repro.core.multiplexer import Multiplexer

_nonce_counter = itertools.count(1)

#: The cap on every backed-off gap: probe retries, suspicion
#: re-probes and negative update relaunches.
MAX_PROBE_GAP = 0.050

#: Re-probe gap after a suppressed strike: the first and the factor
#: each further strike escalates it by (prompt when suspicion is
#: fresh, polite when the switch keeps timing out).
SUSPICION_REPROBE_GAP = 0.010
SUSPICION_REPROBE_ESCALATION = 2.0


def backoff_gap(first: float, factor: float, n: int) -> float:
    """The ``n``-th backed-off gap: ``min(first * factor ** n, cap)``.

    Every factor in use is a power of two, so this is bit-equal to
    ``n`` repeated capped multiplications."""
    return min(first * factor**n, MAX_PROBE_GAP)


def knob(default: Any, doc: str) -> Any:
    """A config field; ``repro-fleet`` makes its flag, helped by ``doc``."""
    return field(default=default, metadata={"help": doc})


@dataclass(frozen=True)
class MonitorConfig:
    """Tunables of the monitoring loop.

    Defaults mirror the paper's Figure 4 setup: 500 probes/s, 150 ms
    detection timeout, up to 3 re-sends.
    """

    probe_rate: float = knob(500.0, "steady-state probes per second")
    probe_timeout: float = knob(
        0.150, "seconds a probe may go unconfirmed before it alarms"
    )
    max_retries: int = knob(3, "re-sends of a probe within its timeout")
    update_probe_interval: float = knob(
        0.005, "re-injection interval for unconfirmed updates (dynamic mode)"
    )
    update_deadline: float = knob(
        10.0, "give up on an update after this long (transient tolerance)"
    )
    alarm_confirmations: int = knob(
        1,
        "alarm hysteresis: consecutive probe-timeout strikes a rule must "
        "accumulate before a missing alarm is raised; 1 reproduces the "
        "paper's immediate alarm byte-for-byte, >1 makes the monitor "
        "robust to stochastic probe loss on a degraded control channel "
        "(a lost probe costs one suppressed strike, not a false alarm)",
    )
    probe_window: int = knob(
        1,
        "steady-state probe pipelining: 1 is the paper's rate-paced "
        "cycle, one launch per tick however many earlier probes are "
        "still in flight; W > 1 tops the steady probes in flight back up "
        "to W every tick (a depth cap).  A slot refills only on the "
        "first tick after its probe confirms, so W > 1 sustains W "
        "launches per tick only while a probe's round trip RTT fits in "
        "one tick (1/probe_rate); otherwise it sustains "
        "W * probe_rate / (1 + floor(RTT * probe_rate)) probes/s, "
        "W * probe_rate / 2 for a round trip of one to two ticks (then "
        "W = 2 sends what W = 1 does); concurrent probes of one switch "
        "share its reserved value and are told apart by their nonce",
    )

    #: :meth:`check`'s bounds (a field left ``None`` is unset).
    POSITIVE: ClassVar[tuple[str, ...]] = (
        "probe_rate",
        "probe_timeout",
        "update_probe_interval",
        "update_deadline",
    )
    AT_LEAST: ClassVar[tuple[tuple[str, int], ...]] = (
        ("max_retries", 0),
        ("alarm_confirmations", 1),
        ("probe_window", 1),
    )

    def check(self) -> None:
        """Raise :class:`ValueError` on a value the loop cannot run
        with (``MonocleSystem`` calls this before building anything)."""
        for name in self.POSITIVE:
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"{name} must be positive: {value}")
        for name, least in self.AT_LEAST:
            value = getattr(self, name)
            if value is not None and value < least:
                raise ValueError(f"{name} must be >= {least}: {value}")


@dataclass
class MonitorAlarm:
    """Raised (recorded) when a rule misbehaves in the data plane."""

    time: float
    rule: Rule
    kind: str  # "missing" (timeout) or "misbehaving" (wrong observation)
    #: The nonce of the probe that raised it.
    nonce: int = 0


#: An observation: (egress port on the probed switch, the packed header
#: as the wire shows it, ``in_port`` cleared).  What Monocle can
#: attribute to a caught probe.
Observation = tuple[int, int]


def outcome_observations(
    outcome: RuleOutcome, observable_ports: frozenset[int] | None
) -> frozenset[Observation]:
    """The possible observations of an outcome, restricted to observable
    ports.  ECMP outcomes contribute each alternative.

    Emission headers are projected onto their wire-visible bits
    (:func:`~repro.packets.craft.wire_visible_bits`): the abstract
    outcome model carries all header fields, but a caught probe only
    shows the fields its packet format encodes (an ARP probe has no
    ``nw_proto``), and the comparison must be apples-to-apples.
    """
    return frozenset(
        (port, wire_visible_bits(header))
        for port, header in outcome.emissions
        if observable_ports is None or port in observable_ports
    )


@dataclass(frozen=True)
class RetryPolicy:
    """How a probe is re-sent and when it ends unconfirmed.

    Re-send ``n`` (counting from 0) waits ``gap`` while
    ``n <= grace``, then ``backoff_gap(gap, backoff, n - grace)``.
    """

    gap: float
    #: Re-send budget; -1 re-sends until the timeout fires.
    retries: int
    timeout: float
    backoff: float = 1.0
    #: Re-sends at ``gap`` before the backoff engages.
    grace: int = 0
    #: Observations of the opposite state are a transient
    #: inconsistency to wait out (§4.1), not an alarm.
    tolerate_anti: bool = False

    @classmethod
    def steady(cls, config: MonitorConfig) -> "RetryPolicy":
        """``max_retries`` evenly spread re-sends inside the timeout."""
        return cls(
            gap=config.probe_timeout / (config.max_retries + 1),
            retries=config.max_retries,
            timeout=config.probe_timeout,
        )

    @classmethod
    def update(cls, config: MonitorConfig) -> "RetryPolicy":
        """Poll an update until its deadline: one timeout's worth of
        prompt re-sends, then 2x backoff while the switch's control
        queue drains."""
        gap = config.update_probe_interval
        return cls(
            gap=gap,
            retries=-1,
            timeout=config.update_deadline,
            backoff=2.0,
            grace=int(config.probe_timeout / gap),
            tolerate_anti=True,
        )


class ProbeEnd(enum.Enum):
    """How a probe left flight; each value names the counter
    :meth:`Monitor._retire` adds it to."""

    CONFIRMED = "probes_confirmed"
    TIMED_OUT = "probes_timed_out"
    #: Retired by a ``misbehaving`` alarm.
    ALARMED = "probes_alarmed"
    #: Cancelled because a FlowMod made its table context stale.
    INVALIDATED = "probes_invalidated"


@dataclass
class OutstandingProbe:
    """Book-keeping for one in-flight probe."""

    nonce: int
    result: ProbeResult
    #: The wire bytes, crafted once at launch, and the port they enter
    #: the probed switch on; every retry re-sends exactly these.
    packet: bytes
    in_port: int
    #: Observations that confirm the probe, and those of the opposite
    #: state (resolved from ``confirm_on`` at launch).
    target: frozenset[Observation]
    anti: frozenset[Observation]
    first_injected: float
    policy: RetryPolicy
    retries_left: int
    on_confirm: Callable[["OutstandingProbe"], None]
    on_alarm: Callable[["OutstandingProbe", str], None]
    timeout_event: Event | None = None
    #: The pending retry: re-armed by every retry that fires.
    retry_event: Event | None = None
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
    * ``probe_context``: the switch's probe generation behind its
      per-rule probe cache, already seeded with the switch's catching
      rules.
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

        #: Steady probes in flight right now, and the most there were
        #: (``MonitorConfig.probe_window`` caps the first).
        self.window_depth = 0
        self.window_peak = 0
        #: rule key -> number of outstanding (not done) probes, the
        #: O(1) busy check behind the scheduler's window drain.
        self._inflight_keys: dict[tuple, int] = {}

        probe_context.validate_result = self._check_observability
        self.probe_context = probe_context
        #: Expected (control-plane view) flow table, catch rules
        #: included.  Owned by the probe context, so delta updates and
        #: probe generation see one table.
        self.expected: FlowTable = probe_context.table
        self.alarms: list[MonitorAlarm] = []
        self.outstanding: dict[int, OutstandingProbe] = {}
        self.steady_policy = RetryPolicy.steady(config)
        self.update_policy = RetryPolicy.update(config)
        self.scheduler = scheduler
        scheduler.rebuild(self.expected)
        self._steady_running = False
        # Stats.  Every launched probe is outstanding or has ended in
        # exactly one :class:`ProbeEnd` counter; ``probes_sent`` counts
        # injections, retries included.
        self.probes_launched = 0
        self.probes_sent = 0
        self.probes_confirmed = 0
        self.probes_timed_out = 0
        self.probes_alarmed = 0
        self.probes_invalidated = 0
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
        #: Latency distributions, observed only under ``obs.enabled``:
        #: how long a rule waited in the schedule, and a confirmed
        #: probe's wire time (first injection to its PacketIn).
        self.wait_histogram: Histogram | None = None
        self.wire_histogram: Histogram | None = None
        if obs.enabled:
            self.wait_histogram = Histogram()
            self.wire_histogram = Histogram()
            scheduler.set_clock(lambda: sim.now)
            probe_context.solve_histogram = Histogram()

    # ----- expected-table maintenance --------------------------------------

    def preinstall(self, rule: Rule) -> None:
        """Record a rule installed out-of-band (catch rules, initial state)."""
        self.probe_context.add_rule(rule)
        self.scheduler.add(rule)

    def observe_flowmod(self, mod: FlowMod) -> None:
        """Track a FlowMod the controller sent (steady-state tracking).

        Dynamic-mode interception (queueing + acks) is layered on top by
        :class:`~repro.core.dynamic.DynamicMonitor`.  The probe context
        applies the FlowMod to the expected table and stale-marks only
        cached probes whose rule intersects the rules actually touched;
        the same affected-rule delta maintains the probe cycle — no
        full-table rebuild, ever — and touches the surviving rules.
        A touch reorders nothing: the cycle reaches a churned rule in
        its turn, steady probes already in flight for it are
        invalidated, and dynamic mode confirms the update with its own
        probes (§4).
        """
        affected = self.probe_context.apply_flowmod(mod)
        if self.outstanding:
            self._invalidate_steady_probes(affected, mod.command.is_delete)
        self.scheduler.observe_flowmod(mod, affected)
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

    # ----- proxy data path ---------------------------------------------------

    def from_controller(self, msg: Message) -> None:
        """Controller -> switch passthrough with FlowMod tracking."""
        if isinstance(msg, FlowMod):
            self.observe_flowmod(msg)
        self.forward_down(msg)

    def from_switch(self, msg: Message) -> None:
        """Switch -> controller passthrough of non-probe traffic.

        Caught probes never get here: ``MonocleSystem._from_switch``
        classifies every PacketIn and routes probes through the
        multiplexer to :meth:`handle_caught_probe`.
        """
        self.to_controller(self.node, msg)

    # ----- probe generation ---------------------------------------------------

    def probe_for_rule(self, rule: Rule) -> ProbeResult:
        """Probe for ``rule`` in the current expected table.

        Served by the switch's context: cache hit, cheap revalidation
        of a stale-marked entry, or a fresh generation — in that order.
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
        # steady probes in flight back up to ``window`` each tick: a
        # slot refills on the first tick after its probe confirms, so
        # the window sends ``window`` per tick only while a round trip
        # fits in one tick, and window * probe_rate / (1 + floor(RTT *
        # probe_rate)) probes/s otherwise.
        window = self.config.probe_window
        budget = 1 if window == 1 else window - self.window_depth
        if budget <= 0:
            return
        rules = self.scheduler.next_rules(
            self.expected, busy=self._in_flight, limit=budget
        )
        for rule in rules:
            self._serve_steady_rule(rule)
        if self.obs.enabled and rules and window > 1:
            self.obs.emit(
                "window.depth",
                node=self.node,
                depth=self.window_depth,
                launched=len(rules),
                window=window,
            )

    def _serve_steady_rule(self, rule: Rule) -> None:
        """Generate and launch one steady-cycle probe (trace included)."""
        obs = self.obs
        tracing = obs.enabled
        span = 0
        if tracing:
            span = obs.next_span()
            wait = self.scheduler.take_wait(rule.key())
            if wait is not None:
                self.wait_histogram.observe(wait)  # type: ignore[union-attr]
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
            self.steady_policy,
            self._steady_confirm,
            self._steady_alarm,
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
                nonce=probe.nonce,
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
        # Alarm history feeds the scheduler's wait measurement.
        self.scheduler.touch(probe.result.rule.key())

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
        if confirmations == 1:
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
        gap = backoff_gap(
            SUSPICION_REPROBE_GAP, SUSPICION_REPROBE_ESCALATION, strikes - 1
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
            self.steady_policy,
            self._steady_confirm,
            self._steady_alarm,
        )

    # ----- probe lifecycle ---------------------------------------------------

    def launch_probe(
        self,
        result: ProbeResult,
        policy: RetryPolicy,
        on_confirm: Callable[[OutstandingProbe], None],
        on_alarm: Callable[[OutstandingProbe, str], None],
        confirm_on: str = "present",
        span: int = 0,
        steady: bool = False,
    ) -> OutstandingProbe:
        """Inject a probe and track it to confirmation or timeout.

        The probe is crafted here, once; ``policy`` re-sends the same
        bytes.  ``confirm_on`` is ``"present"`` (the rule is there:
        steady state, additions) or ``"absent"`` (deletions); ``steady``
        probes count toward the window depth.
        """
        assert result.ok and result.packed_header is not None
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
        target, anti = self.observations(result)
        if confirm_on == "absent":
            target, anti = anti, target
        header = result.packed_header
        probe = OutstandingProbe(
            nonce=nonce,
            result=result,
            packet=craft_packet(header, metadata.encode()),
            in_port=header >> IN_PORT_SHIFT,  # the top field
            target=target,
            anti=anti,
            first_injected=self.sim.now,
            policy=policy,
            retries_left=policy.retries,
            on_confirm=on_confirm,
            on_alarm=on_alarm,
            span=span,
            steady=steady,
        )
        self.probes_launched += 1
        self.outstanding[nonce] = probe
        key = result.rule.key()
        self._inflight_keys[key] = self._inflight_keys.get(key, 0) + 1
        if steady:
            self.window_depth += 1
            if self.window_depth > self.window_peak:
                self.window_peak = self.window_depth
        self._inject(probe)
        self._schedule_retry(probe, 0)
        probe.timeout_event = self.sim.schedule(
            policy.timeout, lambda: self._probe_timeout(probe)
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

    def _schedule_retry(self, probe: OutstandingProbe, n: int) -> None:
        """Arm the ``n``-th re-send of ``probe`` (see :class:`RetryPolicy`)."""
        policy = probe.policy
        past_grace = n - policy.grace
        gap = (
            policy.gap
            if past_grace <= 0
            else backoff_gap(policy.gap, policy.backoff, past_grace)
        )

        def retry() -> None:
            if probe.done or probe.retries_left == 0:
                return
            if probe.retries_left > 0:
                probe.retries_left -= 1
            self._inject(probe)
            self._schedule_retry(probe, n + 1)

        probe.retry_event = self.sim.schedule(gap, retry)

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
            self.wire_histogram.observe(wire)  # type: ignore[union-attr]

    def _retire(self, probe: OutstandingProbe, end: ProbeEnd) -> None:
        """Take a probe out of flight and count how it ended.

        The one place a probe ends, whether confirmed, timed out,
        alarmed or invalidated: marks it done, adds it to ``end``'s
        counter, cancels its timeout and pending retry, drops it from
        ``outstanding`` and decrements the per-key in-flight count and
        steady window depth.
        """
        if probe.done:
            return
        probe.done = True
        setattr(self, end.value, getattr(self, end.value) + 1)
        # A cancelled event drops its closure, which breaks the probe
        # -> event -> closure -> probe cycle: the probe is freed at
        # retire, by reference counting, not when its events leave the
        # queue or the cyclic collector runs.
        if probe.timeout_event is not None:
            probe.timeout_event.cancel()
        if probe.retry_event is not None:
            probe.retry_event.cancel()
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
        self._retire(probe, ProbeEnd.INVALIDATED)

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
            probed, header = probe.result.rule, probe.result.packed_header
            assert header is not None  # launched probes carry one
            for rule in affected:
                value, mask = rule.match.packed()
                if rule.key() == probed.key() or (
                    not deleting
                    and rule.priority > probed.priority
                    and not (header ^ value) & mask
                ):
                    self.invalidate_probe(probe)
                    break

    def _probe_timeout(self, probe: OutstandingProbe) -> None:
        if probe.done:
            return
        if not probe.target:
            # Negative probing (§3.3): silence is (weak) success.
            self._retire(probe, ProbeEnd.CONFIRMED)
            if self.obs.enabled:
                self._observe_probe_end(probe, "probe.confirmed", True)
            probe.on_confirm(probe)
            return
        self._retire(probe, ProbeEnd.TIMED_OUT)
        if self.obs.enabled:
            self._observe_probe_end(probe, "probe.timeout", False)
        probe.on_alarm(probe, "missing")

    def handle_caught_probe(
        self,
        egress_port: int,
        header: int,
        metadata: ProbeMetadata,
    ) -> None:
        """A probe of ours came back (routed here by the multiplexer).

        ``egress_port`` is the port the probe left *this* switch on
        (the multiplexer knows which downstream switch caught it) and
        ``header`` the caught packet's header, parsed once, packed, by
        ``MonocleSystem._from_switch``: the observation is the two with
        the catching switch's ``in_port`` cleared, no field unpacked.
        """
        probe = self.outstanding.get(metadata.nonce)
        if probe is None or probe.done:
            self.stale_probes += 1
            return
        # Wire form: all but in_port is visible, as parsed.
        observation = (egress_port, header & NOT_IN_PORT)
        if observation in probe.target:
            self._retire(probe, ProbeEnd.CONFIRMED)
            if self.obs.enabled:
                self._observe_probe_end(probe, "probe.confirmed", False)
            probe.on_confirm(probe)
        elif observation not in probe.anti or not probe.policy.tolerate_anti:
            # The opposite state where no transient is tolerated, or an
            # observation neither state explains (corruption).  One
            # alarm per probe: retire it, so caught retries of the same
            # nonce are stale and its timeout cannot add a ``missing``
            # alarm.  (A tolerant probe that sees the opposite state
            # keeps waiting: the switch has not updated yet, §4.1.)
            self._retire(probe, ProbeEnd.ALARMED)
            probe.on_alarm(probe, "misbehaving")
