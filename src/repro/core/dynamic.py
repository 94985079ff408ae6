"""Dynamic (reconfiguration) monitoring — paper §4.

:class:`DynamicMonitor` wraps a :class:`~repro.core.monitor.Monitor` and
intercepts FlowMods on their way to the switch:

* **additions** are probed like steady-state rules, assuming the rule is
  installed; transient absence is tolerated (no alarm) and the update is
  acknowledged to the controller the moment a probe confirms the rule in
  the data plane (§4.1).
* **deletions** use the same probe but are confirmed when the probe
  starts hitting the underlying lower-priority outcome (§4.1).
* **modifications** use the altered-table construction: lower-priority
  rules removed, the original rule re-inserted one priority level below
  the new version, then standard probe generation (§4.1).
* FlowMods whose match overlaps a yet-unconfirmed update are **queued**
  until that update confirms (§4.2's implementation choice).
* optional **drop-postponing** (§4.3) converts drop-rule additions into
  a tag-and-forward stand-in that is positively confirmable, then swaps
  the real drop in after the acknowledgment.

Every path forwards its FlowMod and hands its probes to one
``_begin``, which tracks the update and gives each probe a
:class:`_Piece`: confirmed by a caught probe when the new state is
observable, by quiet negative rounds (§3.3) when it is a drop.
Confirmations are surfaced as an :class:`UpdateAck` control message
sent to the controller.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.droppostpone import finalize_drop_rule, postpone_drop_rule
from repro.core.monitor import Monitor, OutstandingProbe, backoff_gap
from repro.core.probegen import ProbeResult
from repro.obs import Histogram
from repro.openflow.messages import FlowMod, FlowModCommand, Message, next_xid
from repro.openflow.rule import Rule
from repro.openflow.table import FlowTable
from repro.openflow.tuplespace import TupleSpaceIndex


@dataclass
class UpdateAck(Message):
    """Monocle -> controller: the update is provably in the data plane."""

    flowmod_xid: int = 0
    switch_number: int = 0


@dataclass
class PendingUpdate:
    """One FlowMod being confirmed."""

    mod: FlowMod
    started: float
    #: Probes that must all confirm (non-strict deletes may need several).
    remaining: int
    confirmed: bool = False
    gave_up: bool = False
    #: For drop-postponing: the finalize FlowMod to send after confirm.
    finalize: FlowMod | None = None
    #: Key in the monitor's unconfirmed-update overlap index.
    token: int = 0
    #: Rule keys this update actually touched (resolved per path at
    #: start time); fed to the scheduler as reprobe hints on confirm.
    #: Empty for deletions — a removed rule cannot be re-probed.
    hint_keys: tuple = ()
    #: Trace span id tying the update's pending/confirmed/gaveup
    #: events together (0 when observability is disabled).
    span: int = 0


@dataclass
class _Piece:
    """One probed piece of an update: an ADD or MODIFY is one piece, a
    non-strict DELETE one per rule it removes.

    Positive (``negative`` False: the new state is observable): one
    long-lived probe under the monitor's update
    :class:`~repro.core.monitor.RetryPolicy` — re-sent every
    ``update_probe_interval``, then backing off 2x up to
    ``MAX_PROBE_GAP`` — until a catch confirms it or the update
    deadline passes.  Fresh installs confirm within a few ms of the
    data plane changing; backlogged ones (large batched updates, §8.4)
    are polled gently so probes don't flood the already-congested
    control channel.

    Negative (the new state is a drop: silence is the only signal):
    short rounds under the steady policy, which tolerates nothing — a
    probe returning with the *old* state ends its round with an alarm,
    and the next round starts after a backed-off delay; a fully quiet
    round confirms, and once the deadline has passed the update is
    given up.  This inherits negative probing's false-positive caveat
    (§3.3); enable drop-postponing (§4.3) for the reliable variant.

    A piece launches nothing for an update another piece already gave
    up (or confirmed).  The probe and the next round's timer hold these
    bound methods and nothing here holds them, so a piece forms no
    cycle: a confirmed update is freed by reference counting.
    """

    dynamic: DynamicMonitor
    update: PendingUpdate
    result: ProbeResult
    confirm_on: str
    negative: bool
    rounds: int = 0

    def launch(self) -> None:
        if self.update.confirmed or self.update.gave_up:
            return
        monitor = self.dynamic.monitor
        monitor.launch_probe(
            self.result,
            monitor.steady_policy if self.negative else monitor.update_policy,
            self.confirmed,
            self.alarmed,
            confirm_on=self.confirm_on,
        )

    def confirmed(self, _probe: OutstandingProbe) -> None:
        self.dynamic._confirm_piece(self.update, monitorable=True)

    def alarmed(self, _probe: OutstandingProbe, _kind: str) -> None:
        update = self.update
        if update.confirmed or update.gave_up:
            return
        dynamic = self.dynamic
        policy = dynamic.monitor.update_policy
        late = dynamic.sim.now - update.started > policy.timeout
        if late or not self.negative:
            dynamic._give_up(update)
            return
        self.rounds += 1
        delay = backoff_gap(policy.gap, policy.backoff, self.rounds)
        dynamic.sim.schedule(delay, self.launch)


class DynamicMonitor:
    """Per-switch update confirmation layered over a Monitor."""

    def __init__(
        self,
        monitor: Monitor,
        use_drop_postponing: bool,
        drop_postpone_port: int | None,
    ) -> None:
        self.monitor = monitor
        self.sim = monitor.sim
        self.obs = monitor.obs
        #: Update-confirmation latencies, observed only under
        #: ``obs.enabled``.
        self.confirm_histogram: Histogram | None = None
        if self.obs.enabled:
            self.confirm_histogram = Histogram()
        self.use_drop_postponing = use_drop_postponing
        self.drop_postpone_port = drop_postpone_port
        #: FlowMods held back by an overlapping unconfirmed update, in
        #: arrival order, each with its key in ``_queued_matches``.
        self.queue: list[tuple[int, FlowMod]] = []
        self.updates_confirmed = 0
        self.updates_given_up = 0
        #: Tuple-space indexes over the in-flight update matches (the
        #: in-flight set itself) and the queued ones, so the per-FlowMod
        #: "does this overlap anything unconfirmed?" check visits
        #: O(overlap candidates).  Tokens identify entries; an update's
        #: token is dropped the moment it confirms or gives up.
        self._next_token = 0
        self._unconfirmed = TupleSpaceIndex()
        self._queued_matches = TupleSpaceIndex()

    # ----- controller-facing entry point ------------------------------------

    def from_controller(self, msg: Message) -> None:
        """Intercept FlowMods; pass everything else through.  A FlowMod
        overlapping an unconfirmed or a queued one joins the queue."""
        if not isinstance(msg, FlowMod):
            self.monitor.from_controller(msg)
            return
        value, mask = msg.match.packed()
        if self._unconfirmed.query(value, mask) or (
            self._queued_matches.query(value, mask)
        ):
            self._next_token += 1
            self.queue.append((self._next_token, msg))
            self._queued_matches.add(self._next_token, value, mask)
            return
        self._start_update(msg)

    # ----- in-flight bookkeeping --------------------------------------------

    def _track(self, update: PendingUpdate) -> None:
        """Register a started update in the in-flight overlap index."""
        self._next_token += 1
        update.token = self._next_token
        self._unconfirmed.add(update.token, *update.mod.match.packed())
        if self.obs.enabled:
            update.span = self.obs.next_span()
            self.obs.emit(
                "update.pending",
                node=self.monitor.node,
                span=update.span,
                xid=update.mod.xid,
                command=update.mod.command.name,
                priority=update.mod.priority,
                match=update.mod.match,
                pieces=update.remaining,
            )

    def _give_up(self, update: PendingUpdate) -> None:
        if update.confirmed or update.gave_up:
            return
        update.gave_up = True
        self.updates_given_up += 1
        self._unconfirmed.discard(update.token)
        if self.obs.enabled:
            self.obs.emit(
                "update.gaveup",
                node=self.monitor.node,
                span=update.span or None,
                xid=update.mod.xid,
                waited_seconds=self.sim.now - update.started,
            )
        self._drain_queue()

    # ----- update lifecycle ------------------------------------------------

    def _start_update(self, mod: FlowMod) -> None:
        command = mod.command
        if command is FlowModCommand.ADD:
            self._start_add(mod)
        elif command in (FlowModCommand.MODIFY, FlowModCommand.MODIFY_STRICT):
            self._start_modify(mod)
        elif command in (FlowModCommand.DELETE, FlowModCommand.DELETE_STRICT):
            self._start_delete(mod)
        else:  # pragma: no cover - enum is exhaustive
            self.monitor.from_controller(mod)

    def _start_add(self, mod: FlowMod) -> None:
        if (
            self.use_drop_postponing
            and not mod.actions.forwarding_set()
            and self.drop_postpone_port is not None
        ):
            self._start_postponed_drop(mod)
            return
        # Track in the expected table and forward to the switch.
        self.monitor.from_controller(mod)
        rule = self.monitor.expected.get(mod.priority, mod.match)
        assert rule is not None
        result = self.monitor.probe_for_rule(rule)
        self._begin(mod, [result], "present", hint_keys=(rule.key(),))

    def _start_postponed_drop(self, mod: FlowMod) -> None:
        """§4.3: install a tag-and-forward stand-in, confirm, then drop.
        The stand-in and the final drop rule share the original rule's
        (priority, match) key."""
        rule = Rule(
            priority=mod.priority,
            match=mod.match,
            actions=mod.actions,
            cookie=mod.cookie,
        )
        stand_in = postpone_drop_rule(rule, self.drop_postpone_port)
        finalize = replace(
            mod,
            xid=next_xid(),
            command=FlowModCommand.MODIFY_STRICT,
            actions=finalize_drop_rule(stand_in).actions,
        )
        self.monitor.from_controller(
            replace(mod, command=FlowModCommand.ADD, actions=stand_in.actions)
        )
        tracked = self.monitor.expected.get(rule.priority, rule.match)
        assert tracked is not None
        result = self.monitor.probe_for_rule(tracked)
        self._begin(mod, [result], "present", (rule.key(),), finalize)

    def _start_modify(self, mod: FlowMod) -> None:
        old_rule = self.monitor.expected.get(mod.priority, mod.match)
        if old_rule is None:
            # OF 1.0: modify with no match behaves like add.
            self._start_add(mod)
            return
        new_rule = old_rule.with_actions(mod.actions)
        result = self._modification_probe(old_rule, new_rule)
        self.monitor.from_controller(mod)
        self._begin(mod, [result], "present", hint_keys=(old_rule.key(),))

    def _modification_probe(
        self, old_rule: Rule, new_rule: Rule
    ) -> ProbeResult | None:
        """The §4.1 altered-table construction.

        Copy the expected table, drop all rules with lower priority,
        reinsert the old version one priority level below, and run
        standard probe generation for the new version.

        By the §5.4 lemma only rules overlapping the modified match can
        enter the probe's constraints, so the altered table is built
        from the overlap candidates instead of a full table copy —
        churning one rule of an N-rule table costs O(overlap) installs,
        not O(N).
        """
        if old_rule.priority == 0:
            return None  # cannot demote below priority 0
        altered = FlowTable()
        key = old_rule.key()
        for rule in self.monitor.expected.overlapping(old_rule.match):
            # Equal priority is not lower: a tied overlapping rule
            # stays, for the generator to avoid.
            if rule.priority >= old_rule.priority and rule.key() != key:
                altered.install(rule)
        altered.install(new_rule)
        altered.install(old_rule.with_priority(old_rule.priority - 1))
        return self.monitor.generator.generate(altered, new_rule)

    def _start_delete(self, mod: FlowMod) -> None:
        # Identify the doomed rules *before* updating the expected table.
        if mod.command is FlowModCommand.DELETE_STRICT:
            target = self.monitor.expected.get(mod.priority, mod.match)
            doomed = [target] if target is not None else []
        else:
            # Index-pruned: coverage implies overlap, so the candidate
            # pool is the overlap set, not the whole expected table.
            doomed = self.monitor.expected.covered_rules(mod.match)
        results = [self.monitor.probe_for_rule(rule) for rule in doomed]
        self.monitor.from_controller(mod)
        self._begin(mod, results, "absent")

    def _begin(
        self,
        mod: FlowMod,
        results: list[ProbeResult | None],
        confirm_on: str,
        hint_keys: tuple = (),
        finalize: FlowMod | None = None,
    ) -> None:
        """Start confirming ``mod``, already forwarded to the switch:
        one piece per probe in ``results`` (see :class:`_Piece`).

        A piece with no usable probe (unmonitorable), and a DELETE that
        matched no rule, is acknowledged optimistically, but counted.
        """
        pieces = results or [None]  # a DELETE that matched no rule
        update = PendingUpdate(
            mod=mod,
            started=self.sim.now,
            remaining=len(pieces),
            finalize=finalize,
            hint_keys=hint_keys,
        )
        self._track(update)
        for result in pieces:
            if result is None or not result.ok:
                self._confirm_piece(update, monitorable=False)
                continue
            present, absent = self.monitor.observations(result)
            target = present if confirm_on == "present" else absent
            _Piece(self, update, result, confirm_on, not target).launch()

    def _confirm_piece(self, update: PendingUpdate, monitorable: bool) -> None:
        update.remaining -= 1
        if update.remaining > 0 or update.confirmed:
            return
        update.confirmed = True
        self.updates_confirmed += 1
        self._unconfirmed.discard(update.token)
        if self.obs.enabled:
            latency = self.sim.now - update.started
            self.obs.emit(
                "update.confirmed",
                node=self.monitor.node,
                span=update.span or None,
                xid=update.mod.xid,
                latency_seconds=latency,
                monitorable=monitorable,
            )
            self.confirm_histogram.observe(latency)  # type: ignore[union-attr]
        if update.finalize is not None:
            # Drop-postponing: swap the real drop rule in (§4.3).
            self.monitor.from_controller(update.finalize)
        # Post-confirmation reprobe hints (``hint_keys``): the scheduler
        # measures how long each touched rule waits for its next steady
        # probe (the cycle order itself never changes).
        for key in update.hint_keys:
            self.monitor.scheduler.touch(key)
        self.monitor.to_controller(
            self.monitor.node,
            UpdateAck(
                flowmod_xid=update.mod.xid,
                switch_number=self.monitor.switch_number,
            ),
        )
        self._drain_queue()

    def _drain_queue(self) -> None:
        """Release queued FlowMods that no longer overlap anything.

        Per-mod blocking checks run against the unconfirmed-update
        index plus an index of the mods already seen this pass (queue
        order is preserved: a released mod still blocks later
        overlapping ones, exactly as the old linear scan did).
        """
        if not self.queue:
            return
        still_queued: list[tuple[int, FlowMod]] = []
        released: list[FlowMod] = []
        ahead = TupleSpaceIndex()
        for token, mod in self.queue:
            value, mask = mod.match.packed()
            blocked = bool(self._unconfirmed.query(value, mask)) or bool(
                ahead.query(value, mask)
            )
            ahead.add(token, value, mask)
            if blocked:
                still_queued.append((token, mod))
            else:
                released.append(mod)
                self._queued_matches.discard(token)
        self.queue = still_queued
        for mod in released:
            self._start_update(mod)
