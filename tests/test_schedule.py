"""Tests for the incremental probe scheduler (repro.core.schedule).

The load-bearing property: ``round_robin`` over the delta-maintained
key set emits the *same probe sequence* as the historical
rebuild-per-FlowMod loop (a from-scratch ``_rebuild_cycle`` reference
reimplemented here), under randomized churn — while the scheduler's
``cycle_rebuilds`` counter stays at 1 (mirroring the PR 4
``index_builds`` no-rebuild contract).  Plus ``churn_first``: promotion
with bounded starvation.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.catching import CATCH_PRIORITY
from repro.core.monitor import MonitorConfig
from repro.core.multiplexer import MonocleSystem
from repro.core.schedule import POLICIES, PROMOTION_BURST, ProbeScheduler
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
        scheduler = ProbeScheduler(policy="round_robin")
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

    def _setup(self, policy: str, num_rules: int = 10):
        table = FlowTable()
        scheduler = ProbeScheduler(policy=policy)
        rules = [_rule(100, 0x0A000000 + i) for i in range(num_rules)]
        for rule in rules:
            table.install(rule)
            scheduler.add(rule)
        return table, scheduler, rules

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_limit_caps_the_drain(self, policy):
        table, scheduler, _rules = self._setup(policy)
        assert scheduler.next_rules(table, limit=0) == []
        assert len(scheduler.next_rules(table, limit=4)) == 4
        assert len(scheduler.next_rules(table)) == 1  # default limit

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_one_drain_never_repeats_a_key(self, policy):
        table, scheduler, rules = self._setup(policy, num_rules=3)
        # A limit past the cycle length must not wrap around.
        served = scheduler.next_rules(table, limit=8)
        assert len(served) == 3
        assert {r.key() for r in served} == {r.key() for r in rules}
        # Distinctness is per drain: the next drain serves them again.
        assert len(scheduler.next_rules(table, limit=8)) == 3

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_busy_keys_are_skipped(self, policy):
        table, scheduler, rules = self._setup(policy, num_rules=4)
        busy = {rules[0].key(), rules[2].key()}
        served = scheduler.next_rules(
            table, busy=busy.__contains__, limit=4
        )
        assert {r.key() for r in served} == {
            rules[1].key(),
            rules[3].key(),
        }

    def test_promoted_out_receives_only_promotions(self):
        table, scheduler, rules = self._setup("churn_first")
        hot = {rules[7].key(), rules[4].key()}
        for key in hot:
            scheduler.touch(key)
        promoted: set = set()
        served = scheduler.next_rules(
            table, limit=5, promoted_out=promoted
        )
        assert promoted == hot
        assert hot < {r.key() for r in served}
        assert scheduler.stats.scheduler_promotions == 2

        table, scheduler, _rules = self._setup("round_robin")
        promoted = set()
        scheduler.next_rules(table, limit=5, promoted_out=promoted)
        assert promoted == set()

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_limit_one_is_next_rule_under_churn(self, policy, seed):
        """``next_rules(limit=1)`` and ``next_rule`` make the same
        selections and the same promotion accounting, step for step,
        under randomized FlowMods, touches and busy sets."""
        rng = random.Random(seed)
        table = FlowTable()
        single = ProbeScheduler(policy=policy)
        drained = ProbeScheduler(policy=policy)
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
                promoted: set = set()
                before = drained.stats.scheduler_promotions
                theirs = drained.next_rules(
                    table, busy.__contains__, 1, promoted
                )
                assert theirs == ([] if ours is None else [ours])
                assert promoted == (
                    {ours.key()}
                    if drained.stats.scheduler_promotions > before
                    else set()
                )
            assert single.stats == drained.stats


class TestRecentChurnFirst:
    def _setup(self, num_rules=12):
        table = FlowTable()
        scheduler = ProbeScheduler(policy="churn_first")
        rules = [_rule(100, 0x0A000000 + i) for i in range(num_rules)]
        for rule in rules:
            table.install(rule)
            scheduler.add(rule)
        return table, scheduler, rules

    def test_touched_rule_jumps_the_queue(self):
        table, scheduler, rules = self._setup()
        hot = rules[-1]
        scheduler.touch(hot.key())
        assert scheduler.next_rule(table) is hot
        assert scheduler.stats.scheduler_promotions == 1

    def test_starvation_bounded_full_cycle_completes(self):
        """Under sustained churn the base cycle still visits every
        rule within (PROMOTION_BURST + 1) * N ticks."""
        table, scheduler, rules = self._setup(num_rules=10)
        served: set = set()
        rng = random.Random(3)
        ticks = (PROMOTION_BURST + 1) * (len(rules) + 1)
        for _ in range(ticks):
            # Adversarial: re-touch a random rule before every tick.
            scheduler.touch(rng.choice(rules).key())
            rule = scheduler.next_rule(table)
            assert rule is not None
            served.add(rule.key())
        assert served == {rule.key() for rule in rules}

    def test_removed_key_is_not_promoted(self):
        table, scheduler, rules = self._setup(num_rules=3)
        doomed = rules[1]
        scheduler.touch(doomed.key())
        table.remove(doomed)
        scheduler.discard(doomed.key())
        for _ in range(4):
            rule = scheduler.next_rule(table)
            assert rule is not None and rule.key() != doomed.key()


class TestPolicyRegistry:
    def test_make_policy_names(self):
        """Each policy name makes a scheduler that answers to it."""
        assert sorted(POLICIES) == ["churn_first", "round_robin"]
        for name in POLICIES:
            assert ProbeScheduler(policy=name).policy == name

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="nope"):
            ProbeScheduler(policy="nope")


class TestMonitorIntegration:
    """The Monitor serves probes through the scheduler end to end."""

    def _system(self, policy: str):
        sim = Simulator()
        net = Network(sim, star(4), seed=5)
        system = MonocleSystem(
            net,
            config=MonitorConfig(probe_rate=500.0, probe_policy=policy),
            dynamic=False,
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

    def test_per_switch_policy_selection(self):
        sim, net, system, _ = self._system("churn_first")
        assert (
            system.monitor("hub").scheduler.policy == "churn_first"
        )

    def test_churn_first_probes_churned_rule_promptly(self):
        sim, net, system, rules = self._system("churn_first")
        monitor = system.monitor("hub")
        monitor.start_steady_state()
        sim.run_for(0.1)
        mod = FlowMod(
            command=FlowModCommand.MODIFY_STRICT,
            match=rules[2].match,
            priority=rules[2].priority,
            actions=output(net.port_toward["hub"]["leaf3"]),
        )
        promotions = monitor.scheduler.stats.scheduler_promotions
        monitor.from_controller(mod)
        sim.run_for(0.05)
        assert monitor.scheduler.stats.scheduler_promotions > promotions

    def test_confirmed_update_feeds_reprobe_hint(self):
        """Dynamic-mode confirmation routes the touched rule's key into
        the scheduler as an update hint, and the steady cycle serves it
        as a promotion once the update's own probes free the rule; a
        confirmed deletion (whose rule can no longer be probed) carries
        none."""
        sim = Simulator()
        net = Network(sim, star(4), seed=9)
        system = MonocleSystem(
            net,
            config=MonitorConfig(probe_rate=500.0, probe_policy="churn_first"),
            dynamic=True,
        )
        monitor = system.monitor("hub")
        monitor.start_steady_state()
        stats = monitor.scheduler.stats
        hints: list = []
        note_update = monitor.scheduler.note_update
        monitor.scheduler.note_update = lambda key: (
            hints.append(key),
            note_update(key),
        )
        add = FlowMod(
            command=FlowModCommand.ADD,
            match=Match.build(nw_dst=0x0A000042),
            priority=120,
            actions=output(net.port_toward["hub"]["leaf0"]),
        )
        system.send_to_switch("hub", add)
        sim.run_for(0.3)
        dynamic = system.dynamic("hub")
        assert dynamic.updates_confirmed == 1
        assert hints == [(add.priority, add.match)]
        assert stats.scheduler_promotions == 1
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
        assert len(hints) == 1
        assert stats.scheduler_promotions == 1

    def test_steady_state_still_confirms_under_all_policies(self):
        for policy in POLICIES:
            sim, net, system, _ = self._system(policy)
            monitor = system.monitor("hub")
            monitor.start_steady_state()
            sim.run_for(0.5)
            assert monitor.probes_confirmed > 0, policy
            assert monitor.alarms == [], policy
