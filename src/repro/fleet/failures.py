"""Failure-injection models scheduled on the simulation clock.

Each :class:`FailureSpec` describes one misbehaviour from the paper's
motivation (§2) and evaluation (§8.1.1): a rule silently vanishing from
the data plane, a rule forwarding to the wrong port, two rules whose
effective priorities are swapped, a link or port dying, and a switch
that accepts a FlowMod but never applies it.

:func:`arm_failure` arms one spec on a deployment's kernel
(:func:`schedule_failures` arms a list of them) and returns its
:class:`Injection` record; the metrics layer later
matches monitor alarms against these records to compute detection
latencies and false-alarm counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

from repro.fleet.deployment import FleetDeployment
from repro.openflow.actions import output
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod, FlowModCommand, next_xid
from repro.openflow.rule import Rule
from repro.sim.random import DeterministicRandom

#: Destination block for rules created by FlowModBlackhole injections.
BLACKHOLE_DST_BASE = 0x90000000


class FailureSpecError(ValueError):
    """A failure spec references state the deployment does not have."""


@dataclass
class Injection:
    """One armed failure: what was injected, where, and when.

    Attributes:
        kind: failure-kind label (e.g. ``rule_drop``).
        time: injection time on the sim clock.
        nodes: switches whose alarms this injection can explain.
        cookies: rule cookies whose alarms count as *detection*; filled
            at injection time (victims are picked when the clock fires).
        broad: when True, *any* later alarm on ``nodes`` is attributed
            to this injection (link failures disturb probing of
            every rule on the adjacent switches, not just the rules
            that forwarded across the dead link).
        chaos: this injection degrades the *substrate* (the control
            channel), not the data plane.  Chaos injections never
            explain an alarm — a probe lost to channel loss that still
            raises ``missing`` is exactly the false alarm the
            hysteresis layer must suppress — and never count toward
            detection coverage.
    """

    kind: str
    time: float
    nodes: set = field(default_factory=set)
    cookies: set = field(default_factory=set)
    broad: bool = False
    description: str = ""
    chaos: bool = False
    #: Set when the spec could not be injected at fire time (e.g. no
    #: production rule to fail); such an injection never detects.
    error: str | None = None

    def explains(self, node: Hashable, alarm) -> bool:
        """Could this injection have caused ``alarm`` on ``node``?"""
        if self.chaos:
            return False
        if alarm.time < self.time or node not in self.nodes:
            return False
        return self.broad or alarm.rule.cookie in self.cookies

    def is_detection(self, node: Hashable, alarm) -> bool:
        """Is ``alarm`` direct evidence of this injection?"""
        return (
            not self.chaos
            and alarm.time >= self.time
            and node in self.nodes
            and alarm.rule.cookie in self.cookies
        )


@dataclass(frozen=True)
class FailureSpec:
    """Base: a failure armed at time ``at`` (sim seconds)."""

    at: float

    kind = "failure"
    #: Chaos specs degrade the substrate, not the data plane; their
    #: records carry ``Injection.chaos`` and are excluded from
    #: detection accounting.
    chaos = False

    def check(self) -> None:
        """Raise :class:`FailureSpecError` if the spec is malformed
        whatever it is armed on (``ScenarioSpec.validate`` calls this
        before anything is built)."""

    def inject(
        self,
        deployment: FleetDeployment,
        record: Injection,
        rng: DeterministicRandom,
    ) -> None:
        raise NotImplementedError

    def _victim(
        self,
        deployment: FleetDeployment,
        node: Hashable,
        index: int | None,
        rng: DeterministicRandom,
    ) -> Rule:
        rules = deployment.production_rules.get(node, [])
        if not rules:
            raise FailureSpecError(
                f"no production rules on {node!r} to fail at t={self.at}"
            )
        if index is None:
            return rng.choice(rules)
        return rules[index % len(rules)]


def failure_rng(
    deployment: FleetDeployment, spec_index: int
) -> DeterministicRandom:
    """The spec-indexed stream for one failure's random draws.

    Forked from the fleet stream's *seed* (forks never advance parent
    state), so the stream depends only on the deployment seed and the
    spec's position in ``ScenarioSpec.failures`` — not on how many
    draws other subsystems or other specs made first, and not on which
    shard applies the spec.
    """
    return deployment.rng.fork((0xFA11 << 16) | spec_index)


@dataclass(frozen=True)
class RuleDrop(FailureSpec):
    """Silently remove one production rule from the data plane (§8.1.1)."""

    node: Hashable = None
    rule_index: int | None = None

    kind = "rule_drop"

    def inject(
        self,
        deployment: FleetDeployment,
        record: Injection,
        rng: DeterministicRandom,
    ) -> None:
        rule = self._victim(deployment, self.node, self.rule_index, rng)
        if not deployment.switch(self.node).fail_rule_in_dataplane(rule):
            raise FailureSpecError(
                f"rule {rule.match!r} already absent from {self.node!r}'s "
                "data plane (injected twice?)"
            )
        record.nodes = {self.node}
        record.cookies = {rule.cookie}
        record.description = f"drop {rule.match!r} on {self.node!r}"


@dataclass(frozen=True)
class RuleCorruption(FailureSpec):
    """Rewire one rule's data-plane actions to a wrong port (§8.1.1)."""

    node: Hashable = None
    rule_index: int | None = None

    kind = "rule_corrupt"

    def inject(
        self,
        deployment: FleetDeployment,
        record: Injection,
        rng: DeterministicRandom,
    ) -> None:
        rule = self._victim(deployment, self.node, self.rule_index, rng)
        ports = deployment.neighbor_ports(self.node)
        wrong = [p for p in ports if p not in rule.forwarding_set()]
        if not wrong:
            raise FailureSpecError(
                f"cannot corrupt {rule!r} on {self.node!r}: no other port"
            )
        switch = deployment.switch(self.node)
        if switch.dataplane.get(rule.priority, rule.match) is None:
            raise FailureSpecError(
                f"rule {rule.match!r} no longer in {self.node!r}'s data "
                "plane (removed by an earlier failure?)"
            )
        switch.corrupt_rule_in_dataplane(rule, output(wrong[0]))
        record.nodes = {self.node}
        record.cookies = {rule.cookie}
        record.description = (
            f"corrupt {rule.match!r} on {self.node!r} -> port {wrong[0]}"
        )


@dataclass(frozen=True)
class PrioritySwap(FailureSpec):
    """Swap the data-plane behaviour of two production rules.

    Models a switch applying updates at wrong relative priorities: both
    rules stay present but each forwards the other's way.  Detection is
    an alarm on either victim.
    """

    node: Hashable = None

    kind = "priority_swap"

    def inject(
        self,
        deployment: FleetDeployment,
        record: Injection,
        rng: DeterministicRandom,
    ) -> None:
        switch = deployment.switch(self.node)
        # Only rules still present in the data plane are swappable (an
        # earlier failure may have removed a victim).
        rules = [
            r
            for r in deployment.production_rules.get(self.node, [])
            if switch.dataplane.get(r.priority, r.match) is not None
        ]
        pairs = [
            (a, b)
            for i, a in enumerate(rules)
            for b in rules[i + 1 :]
            if a.forwarding_set() != b.forwarding_set()
            and a.forwarding_set()
            and b.forwarding_set()
        ]
        if not pairs:
            raise FailureSpecError(
                f"no swappable rule pair on {self.node!r} at t={self.at}"
            )
        a, b = rng.choice(pairs)
        switch.corrupt_rule_in_dataplane(a, b.actions)
        switch.corrupt_rule_in_dataplane(b, a.actions)
        record.nodes = {self.node}
        record.cookies = {a.cookie, b.cookie}
        record.description = (
            f"swap outcomes of {a.match!r} and {b.match!r} on {self.node!r}"
        )


@dataclass(frozen=True)
class LinkFailure(FailureSpec):
    """Cut the link between two adjacent switches (both directions)."""

    u: Hashable = None
    v: Hashable = None

    kind = "link_down"

    def inject(
        self,
        deployment: FleetDeployment,
        record: Injection,
        rng: DeterministicRandom,
    ) -> None:
        network = deployment.network
        if frozenset((self.u, self.v)) not in network.links:
            raise FailureSpecError(f"no link {self.u!r} <-> {self.v!r}")
        network.fail_link(self.u, self.v)
        record.nodes = {self.u, self.v}
        record.broad = True  # the dead link disturbs all probing on u/v
        for node, peer in ((self.u, self.v), (self.v, self.u)):
            dead_port = network.port_toward[node][peer]
            record.cookies.update(
                rule.cookie
                for rule in deployment.production_rules.get(node, [])
                if dead_port in rule.forwarding_set()
            )
        record.description = f"link {self.u!r} <-> {self.v!r} down"


@dataclass(frozen=True)
class FlowModBlackhole(FailureSpec):
    """The switch accepts a FlowMod but never applies it (§2).

    Arms the switch to silently skip its next data-plane install, then
    sends a fresh forwarding rule through the controller.  The rule
    exists in the control plane and in Monocle's expected table but
    never in the data plane, so probing raises a ``missing`` alarm (and
    under dynamic monitoring the update is never acknowledged).
    """

    node: Hashable = None
    dst_offset: int = 0

    kind = "flowmod_blackhole"

    def inject(
        self,
        deployment: FleetDeployment,
        record: Injection,
        rng: DeterministicRandom,
    ) -> None:
        ports = deployment.neighbor_ports(self.node)
        if not ports:
            raise FailureSpecError(f"{self.node!r} has no switch-facing port")
        mod = FlowMod(
            command=FlowModCommand.ADD,
            match=Match.build(nw_dst=BLACKHOLE_DST_BASE + self.dst_offset),
            priority=150,
            actions=output(ports[0]),
            # A distinct cookie lets the metrics layer attribute the
            # eventual "missing" alarm to this injection (plain churn
            # FlowMods all carry the default cookie 0).
            cookie=next_xid(),
        )
        # Target this FlowMod's xid specifically: a count-based
        # blackhole would race with concurrent churn FlowMods already
        # in flight to the same switch.
        deployment.switch(self.node).blackhole_flowmod(mod.xid)
        deployment.controller.send_flowmod(
            self.node, mod, confirm=deployment.confirm_mode
        )
        # The expected-table rule inherits the FlowMod's cookie.
        record.nodes = {self.node}
        record.cookies = {mod.cookie}
        record.description = (
            f"blackholed FlowMod {mod.match!r} on {self.node!r}"
        )


@dataclass(frozen=True)
class ChannelDegradation(FailureSpec):
    """Lose control messages of one switch (chaos, not a fault).

    Drops each message on the node's control channel, both directions,
    with probability ``loss`` for ``duration`` seconds (forever when
    ``None``); ``loss=1.0`` with a ``duration`` is a control-plane flap.
    Probe sends, probe observations, and FlowMods all traverse that
    channel, so every control interaction of the switch is exposed.
    Being chaos, the injection never *explains* an alarm: a ``missing``
    alarm caused by a lost probe is a false alarm the monitor's
    hysteresis must suppress.
    """

    node: Hashable = None
    loss: float = 0.0
    duration: float | None = None

    kind = "channel_degradation"
    chaos = True

    def check(self) -> None:
        if not 0.0 < self.loss <= 1.0:
            raise FailureSpecError(
                f"degradation of {self.node!r} needs a loss in (0, 1], "
                f"got {self.loss!r}"
            )
        if self.duration is not None and self.duration <= 0.0:
            raise FailureSpecError(
                f"degradation of {self.node!r} needs a positive "
                f"duration, got {self.duration!r}"
            )

    def inject(
        self,
        deployment: FleetDeployment,
        record: Injection,
        rng: DeterministicRandom,
    ) -> None:
        self.check()
        if self.node not in deployment.network.channels:
            raise FailureSpecError(
                f"no control channel for {self.node!r}"
            )
        conditioner = deployment.network.conditioner(self.node)
        token = conditioner.apply(self.loss)
        if self.duration is not None:
            deployment.sim.schedule(
                self.duration, lambda: conditioner.remove(token)
            )
        record.nodes = {self.node}
        record.chaos = True
        window = (
            f"for {self.duration}s"
            if self.duration is not None
            else "permanently"
        )
        record.description = (
            f"degrade channel of {self.node!r} {window}: loss={self.loss}"
        )


def inject_now(
    deployment: FleetDeployment,
    spec: FailureSpec,
    record: Injection,
    *,
    rng: DeterministicRandom,
) -> None:
    """Apply ``spec`` to the deployment at the current sim time.

    The fire-time body of :func:`arm_failure`: stamps ``record`` with
    the clock, injects, and emits the trace event.  A
    :class:`FailureSpecError` is recorded, never raised.
    """
    record.time = deployment.sim.now
    try:
        spec.inject(deployment, record, rng)
    except FailureSpecError as exc:
        record.error = str(exc)
        record.nodes = set()
        record.cookies = set()
        record.description = f"injection failed: {exc}"
    if deployment.obs.enabled:
        # One trace event per armed failure, stamped at the
        # injection's exact sim time: trace-only detection
        # replay (repro.obs.analyze) keys off this record.
        deployment.obs.emit(
            "failure.injected",
            kind=record.kind,
            nodes=sorted(repr(n) for n in record.nodes),
            cookies=sorted(record.cookies),
            broad=record.broad,
            chaos=record.chaos,
            description=record.description,
            error=record.error,
        )


def arm_failure(
    deployment: FleetDeployment, spec: FailureSpec, index: int
) -> Injection:
    """Arm one spec on the deployment's sim clock; returns its record.

    ``index`` is the spec's position in the scenario's failure list: it
    selects the spec-indexed random stream (:func:`failure_rng`), so
    victims do not depend on which deployment — the whole fleet or one
    shard of it — arms the spec.
    """
    record = Injection(kind=spec.kind, time=spec.at, chaos=spec.chaos)
    deployment.sim.at(
        spec.at,
        lambda: inject_now(
            deployment, spec, record, rng=failure_rng(deployment, index)
        ),
    )
    return record


def schedule_failures(
    deployment: FleetDeployment,
    specs: "tuple[FailureSpec, ...] | list[FailureSpec]",
) -> list[Injection]:
    """Arm every spec on the deployment's sim clock.

    Victim selection happens at fire time (production rules must exist
    by then); the returned records are filled in place as specs fire.
    A spec that cannot be injected (no victim rule, no spare port)
    records its :class:`FailureSpecError` on ``Injection.error``
    instead of crashing the simulation; such an injection can never be
    detected, so the scenario reports it as a failure.
    """
    return [
        arm_failure(deployment, spec, index)
        for index, spec in enumerate(specs)
    ]
