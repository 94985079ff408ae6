"""Tests for switch profiles and behaviour models, and the control-plane
interference the profiles calibrate (Figures 6 and 7, §8.3.1)."""

import pytest

from repro.openflow.actions import CONTROLLER_PORT, output
from repro.openflow.fields import FieldName
from repro.openflow.match import Match
from repro.openflow.messages import (
    FlowMod,
    FlowModCommand,
    PacketOut,
    next_xid,
)
from repro.openflow.rule import Rule
from repro.packets.craft import craft_packet
from repro.sim.kernel import Simulator
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
from repro.switches.switch import SimulatedSwitch

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


#: The four switches of Figures 6 and 7.
MEASURED = (HP_5406ZL, DELL_8132F, DELL_S4810, DELL_S4810_SAME_PRIO)
PACKET = craft_packet(
    {
        FieldName.DL_TYPE: 0x0800,
        FieldName.NW_PROTO: 17,
        FieldName.NW_DST: 0x0A0000FE,
    },
    b"probe",
)


def flowmod_rate(profile, seconds, packetouts=0, packetins_per_s=0.0):
    """FlowMods/s of a switch kept busy for ~``seconds`` with
    delete + add pairs, with ``packetouts`` PacketOuts queued after
    each pair, or data-plane traffic sent to the controller at
    ``packetins_per_s`` while ``seconds`` last."""
    sim = Simulator()
    switch = SimulatedSwitch(sim, switch_id=1, profile=profile)
    switch.attach_port(1, lambda frame: None)
    switch.send_to_controller = lambda msg: None
    switch.install_directly(
        Rule(
            priority=1,
            match=Match.wildcard(),
            actions=output(CONTROLLER_PORT),
        )
    )
    last = [0.0]
    complete = switch._complete_flowmod

    def record_completion(mod):
        complete(mod)
        last[0] = sim.now

    switch._complete_flowmod = record_completion

    def traffic():
        switch.inject_raw(PACKET, in_port=1)
        if sim.now < seconds:
            sim.schedule(1.0 / packetins_per_s, traffic)

    if packetins_per_s:
        sim.schedule(0.0, traffic)
    for pair in range(int(seconds * profile.flowmod_rate / 2) + 1):
        match = Match.build(nw_dst=0x0A000000 + pair % 4096)
        switch.receive_message(
            FlowMod(
                command=FlowModCommand.DELETE_STRICT, match=match, priority=10
            )
        )
        switch.receive_message(
            FlowMod(
                command=FlowModCommand.ADD,
                match=match,
                priority=10,
                actions=output(1),
            )
        )
        for _ in range(packetouts):
            switch.receive_message(PacketOut(payload=PACKET, out_port=1))
    sim.run()
    return switch.stats.flowmods_processed / last[0]


class TestControlPlaneInterference:
    def test_figure6_packetouts_slow_flowmods(self):
        """Figure 6 (0.5 s of pre-queued work per point): the FlowMod
        rate, normalized to none, falls monotonically with the
        PacketOut:FlowMod ratio; every switch but the equal-priority
        S4810 keeps >= 80 % up to 5 PacketOuts per 2 FlowMods, and that
        one degrades fastest.  §8.3.1: 2000 PacketOuts flood out at the
        paper's PacketOut rate."""
        at = {}
        for profile in MEASURED:
            base = flowmod_rate(profile, 0.5)
            at[profile] = {
                k: flowmod_rate(profile, 0.5, packetouts=k) / base
                for k in (5, 40)
            }
            assert at[profile][40] < at[profile][5] <= 1.05
            if profile is not DELL_S4810_SAME_PRIO:
                assert at[profile][5] >= 0.80
        assert at[DELL_S4810_SAME_PRIO][5] < min(
            at[p][5] for p in MEASURED[:3]
        )
        for profile in MEASURED:
            sim = Simulator()
            switch = SimulatedSwitch(sim, switch_id=1, profile=profile)
            sent = []
            switch.attach_port(1, lambda frame: sent.append(sim.now))
            for _ in range(2000):
                switch.receive_message(PacketOut(payload=PACKET, out_port=1))
            sim.run()
            assert len(sent) / sent[-1] == pytest.approx(
                profile.packetout_rate, rel=0.05
            )

    def test_figure7_packetins_slow_flowmods(self):
        """Figure 7 (1 s of traffic per point): up to 5000 PacketIns/s
        leave the HP, the 8132F and the S4810 at >= 80 % of their
        FlowMod rate, while the equal-priority S4810 falls to <= 60 %.
        (The PacketIn token bucket starts full, so a short window
        over-weights its first burst; over 3 s the three keep >= 85 %.)
        """
        for profile in MEASURED:
            base = flowmod_rate(profile, 1.0)
            at = {
                rate: flowmod_rate(profile, 1.0, packetins_per_s=rate) / base
                for rate in (100, 200, 300, 400, 1000, 5000)
            }
            if profile is DELL_S4810_SAME_PRIO:
                assert at[5000] <= 0.60
            else:
                assert min(at.values()) >= 0.80
