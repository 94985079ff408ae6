"""Tests for the incremental probe scheduler (repro.core.schedule).

The load-bearing property: ``round_robin`` over the delta-maintained
key set emits the *same probe sequence* as the historical
rebuild-per-FlowMod loop (a from-scratch ``_rebuild_cycle`` reference
reimplemented here), under randomized churn — while the scheduler's
``cycle_rebuilds`` counter stays at 1 (mirroring the PR 4
``index_builds`` no-rebuild contract).
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.catching import CATCH_PRIORITY
from repro.core.monitor import MonitorConfig
from repro.core.multiplexer import MonocleSystem
from repro.core.schedule import ProbeScheduler
from repro.network import Network
from repro.openflow.actions import output
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod, FlowModCommand
from repro.openflow.rule import Rule
from repro.openflow.table import FlowTable
from repro.sim.kernel import Simulator
from repro.switches.switch import apply_flowmod
from repro.topology.generators import star


def _rule(priority: int, dst: int, port: int = 1) -> Rule:
    return Rule(
        priority=priority,
        match=Match.build(nw_dst=dst),
        actions=output(port),
    )


class ReferenceCycler:
    """The historical Monitor cycle: full rebuild on every FlowMod.

    Byte-for-byte reimplementation of the pre-PR-5
    ``Monitor._rebuild_cycle`` + ``_next_cycle_rule`` pair (sans the
    in-flight check): rebuild the key list from the whole table after
    every operation, keep the cursor where it was.
    """

    def __init__(self, table: FlowTable) -> None:
        self.table = table
        self.keys: list[tuple] = []
        self.position = 0
        self.rebuild()

    def rebuild(self) -> None:
        self.keys = [rule.key() for rule in self.table]

    def next(self) -> Rule | None:
        if not self.keys:
            return None
        for _ in range(len(self.keys)):
            self.position = (self.position + 1) % len(self.keys)
            rule = self.table.get(*self.keys[self.position])
            if rule is None:
                continue
            return rule
        return None


def _random_flowmod(rng: random.Random, live: dict) -> FlowMod:
    """One churn op over a bounded (priority, dst) key pool."""
    priority = rng.choice((50, 100, 150, 200))
    dst = 0x0A000000 + rng.randrange(24)
    key_pool = list(live)
    roll = rng.random()
    if live and roll < 0.35:
        priority, dst = rng.choice(key_pool)
        command = FlowModCommand.DELETE_STRICT
    elif live and roll < 0.55:
        priority, dst = rng.choice(key_pool)
        command = FlowModCommand.MODIFY_STRICT
    else:
        command = FlowModCommand.ADD
    mod = FlowMod(
        command=command,
        match=Match.build(nw_dst=dst),
        priority=priority,
        actions=output(1 + rng.randrange(4)),
    )
    if command is FlowModCommand.DELETE_STRICT:
        live.pop((priority, dst), None)
    else:
        live[(priority, dst)] = True
    return mod


class TestRoundRobinEquivalence:
    """Delta maintenance == rebuild-per-FlowMod, probe for probe."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_probe_sequence_identical_under_churn(self, seed):
        rng = random.Random(seed)
        table = FlowTable()
        scheduler = ProbeScheduler()
        scheduler.rebuild(table)
        reference = ReferenceCycler(table)
        live: dict = {}

        for _ in range(60):
            mod = _random_flowmod(rng, live)
            affected = apply_flowmod(table, mod)
            scheduler.observe_flowmod(mod, affected)
            reference.rebuild()
            assert scheduler.keys() == reference.keys
            for _ in range(rng.randrange(4)):
                ours = scheduler.next_rule(table)
                theirs = reference.next()
                assert (
                    ours is theirs
                ), f"diverged: {ours!r} vs {theirs!r} (seed {seed})"
        # The one construction-time build is the only full iteration.
        assert scheduler.stats.cycle_rebuilds == 1

    def test_no_rebuild_after_250_step_churn_run(self):
        """Regression mirroring PR 4's index_builds: a churn-heavy run
        through a real Monitor must never rebuild the cycle."""
        sim = Simulator()
        net = Network(sim, star(4), seed=7)
        system = MonocleSystem(
            net, config=MonitorConfig(probe_rate=500.0), dynamic=False
        )
        monitor = system.monitor("hub")
        for i in range(8):
            system.preinstall_production_rule(
                "hub", _rule(100, 0x0A000100 + i)
            )
        assert monitor.scheduler.stats.cycle_rebuilds == 1
        rng = random.Random(11)
        live: dict = {}
        for _ in range(250):
            monitor.from_controller(_random_flowmod(rng, live))
        sim.run_for(0.2)
        stats = monitor.scheduler.stats
        assert stats.cycle_rebuilds == 1
        assert stats.keys_added > 0 and stats.keys_removed > 0
        # The scheduler's view tracks the expected table exactly.
        expected_keys = [
            r.key()
            for r in monitor.expected
            if r.priority != CATCH_PRIORITY
        ]
        assert monitor.scheduler.keys() == expected_keys

    def test_busy_keys_are_skipped(self):
        table = FlowTable()
        rules = [_rule(100, 0x0A000000 + i) for i in range(3)]
        scheduler = ProbeScheduler()
        for rule in rules:
            table.install(rule)
            scheduler.add(rule)
        busy_key = rules[1].key()
        served = [
            scheduler.next_rule(table, busy=lambda k: k == busy_key)
            for _ in range(4)
        ]
        assert busy_key not in [r.key() for r in served]

    def test_infrastructure_rules_excluded(self):
        scheduler = ProbeScheduler(
            is_infrastructure=lambda r: r.priority == CATCH_PRIORITY
        )
        catch = _rule(CATCH_PRIORITY, 0x0A000001)
        prod = _rule(100, 0x0A000002)
        scheduler.add(catch)
        scheduler.add(prod)
        assert scheduler.keys() == [prod.key()]


class TestNextRules:
    """``next_rules`` — the per-tick drain the Monitor calls — is a loop
    over the ``next_rule`` primitive with in-drain distinctness."""

    def _setup(self, num_rules: int = 10):
        table = FlowTable()
        scheduler = ProbeScheduler()
        rules = [_rule(100, 0x0A000000 + i) for i in range(num_rules)]
        for rule in rules:
            table.install(rule)
            scheduler.add(rule)
        return table, scheduler, rules

    def test_limit_caps_the_drain(self):
        table, scheduler, _rules = self._setup()
        assert scheduler.next_rules(table, limit=0) == []
        assert len(scheduler.next_rules(table, limit=4)) == 4
        assert len(scheduler.next_rules(table)) == 1  # default limit

    def test_one_drain_never_repeats_a_key(self):
        table, scheduler, rules = self._setup(num_rules=3)
        # A limit past the cycle length must not wrap around.
        served = scheduler.next_rules(table, limit=8)
        assert len(served) == 3
        assert {r.key() for r in served} == {r.key() for r in rules}
        # Distinctness is per drain: the next drain serves them again.
        assert len(scheduler.next_rules(table, limit=8)) == 3

    def test_busy_keys_are_skipped(self):
        table, scheduler, rules = self._setup(num_rules=4)
        busy = {rules[0].key(), rules[2].key()}
        served = scheduler.next_rules(
            table, busy=busy.__contains__, limit=4
        )
        assert {r.key() for r in served} == {
            rules[1].key(),
            rules[3].key(),
        }

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_limit_one_is_next_rule_under_churn(self, seed):
        """``next_rules(limit=1)`` and ``next_rule`` make the same
        selections, step for step, under randomized FlowMods, touches
        and busy sets."""
        rng = random.Random(seed)
        table = FlowTable()
        single = ProbeScheduler()
        drained = ProbeScheduler()
        live: dict = {}
        for _ in range(60):
            mod = _random_flowmod(rng, live)
            affected = apply_flowmod(table, mod)
            single.observe_flowmod(mod, affected)
            drained.observe_flowmod(mod, affected)
            keys = single.keys()
            if keys and rng.random() < 0.3:
                key = rng.choice(keys)
                single.touch(key)
                drained.touch(key)
            for _ in range(rng.randrange(4)):
                busy = set(rng.sample(keys, min(len(keys), 2)))
                ours = single.next_rule(table, busy.__contains__)
                theirs = drained.next_rules(table, busy.__contains__, 1)
                assert theirs == ([] if ours is None else [ours])
            assert single.stats == drained.stats
            assert single.position == drained.position


class TestMonitorIntegration:
    """The Monitor serves probes through the scheduler end to end."""

    def _system(self):
        sim = Simulator()
        net = Network(sim, star(4), seed=5)
        system = MonocleSystem(
            net, config=MonitorConfig(probe_rate=500.0), dynamic=False
        )
        rules = []
        for i in range(6):
            rule = Rule(
                priority=100,
                match=Match.build(nw_dst=0x0A000000 + i),
                actions=output(net.port_toward["hub"][f"leaf{i % 4}"]),
            )
            system.preinstall_production_rule("hub", rule)
            rules.append(rule)
        return sim, net, system, rules

    def test_confirmed_update_feeds_reprobe_hint(self):
        """Dynamic-mode confirmation touches the rule the update
        installed, so the scheduler's wait measurement restarts there;
        a confirmed deletion (whose rule can no longer be probed)
        carries no hint."""
        sim = Simulator()
        net = Network(sim, star(4), seed=9)
        system = MonocleSystem(
            net, config=MonitorConfig(probe_rate=500.0), dynamic=True
        )
        monitor = system.monitor("hub")
        dynamic = system.dynamic("hub")
        monitor.start_steady_state()
        #: (updates confirmed when touched, key): the FlowMod's own
        #: touch lands before its confirmation, the hint right after.
        touches: list = []
        touch = monitor.scheduler.touch
        monitor.scheduler.touch = lambda key: (
            touches.append((dynamic.updates_confirmed, key)),
            touch(key),
        )
        add = FlowMod(
            command=FlowModCommand.ADD,
            match=Match.build(nw_dst=0x0A000042),
            priority=120,
            actions=output(net.port_toward["hub"]["leaf0"]),
        )
        system.send_to_switch("hub", add)
        sim.run_for(0.3)
        assert dynamic.updates_confirmed == 1
        hints = [key for confirmed, key in touches if confirmed == 1]
        assert hints == [(add.priority, add.match)]
        assert monitor.alarms == []
        delete = FlowMod(
            command=FlowModCommand.DELETE_STRICT,
            match=add.match,
            priority=add.priority,
        )
        system.send_to_switch("hub", delete)
        sim.run_for(0.5)
        assert dynamic.updates_confirmed == 2
        # The deletion confirmed without a hint: nothing left to probe.
        assert [key for confirmed, key in touches if confirmed == 2] == []

    def test_steady_state_confirms_without_alarms(self):
        sim, net, system, _ = self._system()
        monitor = system.monitor("hub")
        monitor.start_steady_state()
        sim.run_for(0.5)
        assert monitor.probes_confirmed > 0
        assert monitor.alarms == []
