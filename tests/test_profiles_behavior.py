"""Tests for switch profiles and behaviour models."""

import pytest

from repro.openflow.messages import next_xid
from repro.sim.random import DeterministicRandom
from repro.switches.behavior import (
    FaithfulBehavior,
    PrematureAckBehavior,
    ReorderingBehavior,
    behavior_for,
)
from repro.switches.profiles import (
    DELL_8132F,
    DELL_S4810,
    DELL_S4810_SAME_PRIO,
    HP_5406ZL,
    IDEAL,
    OVS,
    PICA8,
)

ALL_PROFILES = (
    HP_5406ZL,
    DELL_S4810,
    DELL_S4810_SAME_PRIO,
    DELL_8132F,
    PICA8,
    OVS,
    IDEAL,
)


class TestProfiles:
    def test_paper_packet_rates(self):
        # §8.3.1 measurements are calibration constants of the profiles.
        assert HP_5406ZL.packetout_rate == 7006
        assert HP_5406ZL.packetin_rate == 5531
        assert DELL_S4810.packetout_rate == 850
        assert DELL_S4810.packetin_rate == 401
        assert DELL_8132F.packetout_rate == 9128
        assert DELL_8132F.packetin_rate == 1105

    def test_costs_are_inverse_rates(self):
        for profile in ALL_PROFILES:
            assert profile.flowmod_cost == pytest.approx(
                1.0 / profile.flowmod_rate
            )
            assert profile.packetout_cost == pytest.approx(
                1.0 / profile.packetout_rate
            )
            assert profile.barrier_cost < profile.flowmod_cost

    def test_misbehaviour_flags(self):
        assert HP_5406ZL.premature_ack and not HP_5406ZL.reorders
        assert PICA8.premature_ack and PICA8.reorders
        assert not IDEAL.premature_ack and not IDEAL.reorders
        assert not OVS.premature_ack

    def test_equal_priority_s4810_has_higher_baseline(self):
        # The "**" configuration's whole point: higher FlowMod rate.
        assert DELL_S4810_SAME_PRIO.flowmod_rate > 5 * DELL_S4810.flowmod_rate

    def test_profiles_frozen(self):
        with pytest.raises(Exception):
            HP_5406ZL.flowmod_rate = 1.0


class TestBehaviors:
    def rng(self):
        return DeterministicRandom(1)

    def test_faithful_semantics(self):
        behavior = FaithfulBehavior(IDEAL, self.rng())
        assert behavior.barrier_waits_for_dataplane()
        assert behavior.preserves_order()

    def test_premature_semantics(self):
        behavior = PrematureAckBehavior(HP_5406ZL, self.rng())
        assert not behavior.barrier_waits_for_dataplane()
        assert behavior.preserves_order()

    def test_reordering_semantics(self):
        behavior = ReorderingBehavior(PICA8, self.rng())
        assert not behavior.barrier_waits_for_dataplane()
        assert not behavior.preserves_order()

    def test_install_delay_positive_and_jittered(self):
        behavior = FaithfulBehavior(HP_5406ZL, self.rng())
        delays = [behavior.install_delay() for _ in range(100)]
        assert all(d >= 0 for d in delays)
        assert len(set(delays)) > 50  # actually jittered

    def test_reordering_has_heavy_tail(self):
        behavior = ReorderingBehavior(PICA8, self.rng())
        delays = [behavior.install_delay() for _ in range(500)]
        base = PICA8.install_latency * (1 + PICA8.install_jitter)
        tail = [d for d in delays if d > base]
        # Roughly TAIL_PROBABILITY of installs land in the long tail.
        assert 0.05 < len(tail) / len(delays) < 0.4

    def test_factory_dispatch(self):
        rng = self.rng()
        assert type(behavior_for(PICA8, rng)) is ReorderingBehavior
        assert type(behavior_for(HP_5406ZL, rng)) is PrematureAckBehavior
        assert type(behavior_for(OVS, rng)) is FaithfulBehavior


class TestXids:
    def test_xids_monotonic_unique(self):
        values = [next_xid() for _ in range(100)]
        assert values == sorted(values)
        assert len(set(values)) == 100
