"""Figure 7 (+ §8.3.1 PacketIn rates): PacketIn impact on rule mods.

Paper setup: perform a continuous update (delete+add pairs) while data
plane packets arrive at a fixed rate r, each producing a PacketIn; plot
the FlowMod rate normalized to the PacketIn-free baseline.

Paper result: PacketIns barely affect any switch — except the Dell
S4810 in its equal-priority configuration (high FlowMod baseline),
which loses up to ~60%.  Beyond a switch's maximum PacketIn rate,
PacketIns are dropped rather than slowing rule updates further.
"""

from repro.analysis import format_table
from repro.openflow.actions import CONTROLLER_PORT, output
from repro.openflow.fields import FieldName
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod, FlowModCommand
from repro.openflow.rule import Rule
from repro.packets.craft import craft_packet
from repro.sim.kernel import Simulator
from repro.switches.profiles import (
    DELL_8132F,
    DELL_S4810,
    DELL_S4810_SAME_PRIO,
    HP_5406ZL,
)
from repro.switches.switch import SimulatedSwitch

from .conftest import print_header

RATES = [0, 100, 200, 300, 400, 1000, 5000]
PROFILES = [HP_5406ZL, DELL_8132F, DELL_S4810, DELL_S4810_SAME_PRIO]
MEASURE_TIME = 3.0

TRAFFIC_PACKET = craft_packet(
    {
        FieldName.DL_TYPE: 0x0800,
        FieldName.NW_PROTO: 17,
        FieldName.NW_DST: 0x0A0000FE,
    },
    b"production traffic",
)


def flowmod_rate_under_packetins(profile, packetin_rate: float) -> float:
    """FlowMod throughput while the data plane generates PacketIns.

    The FlowMod queue is pre-saturated; traffic arrives on a timer at
    ``packetin_rate`` and is steered to the controller by a catch-all
    rule, stealing control-CPU per the profile's interference model.
    """
    sim = Simulator()
    switch = SimulatedSwitch(sim, switch_id=1, profile=profile)
    switch.attach_port(1, lambda raw: None)
    switch.send_to_controller = lambda msg: None
    # A rule steering the traffic to the controller: every injected
    # packet becomes a PacketIn (up to the rate cap).
    switch.install_directly(
        Rule(
            priority=1, match=Match.wildcard(), actions=output(CONTROLLER_PORT)
        )
    )

    last_completion = [0.0]
    original = switch._complete_flowmod

    def spy(mod):
        original(mod)
        last_completion[0] = sim.now

    switch._complete_flowmod = spy

    if packetin_rate > 0:
        interval = 1.0 / packetin_rate

        def traffic():
            switch.inject_raw(TRAFFIC_PACKET, in_port=1)
            if sim.now < MEASURE_TIME:
                sim.schedule(interval, traffic)

        sim.schedule(0.0, traffic)

    batches = int(MEASURE_TIME * profile.flowmod_rate / 2) + 1
    for batch in range(batches):
        match = Match.build(nw_dst=0x0A000000 + batch % 4096)
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
    sim.run()
    return switch.stats.flowmods_processed / max(last_completion[0], 1e-9)


def test_figure7_packetin_overhead(benchmark):
    baselines = {p.name: flowmod_rate_under_packetins(p, 0) for p in PROFILES}

    rows = []
    normalized = {p.name: {} for p in PROFILES}
    for rate in RATES:
        row = [str(rate)]
        for profile in PROFILES:
            achieved = flowmod_rate_under_packetins(profile, rate)
            norm = achieved / baselines[profile.name]
            normalized[profile.name][rate] = norm
            row.append(f"{norm:.2f}")
        rows.append(row)

    print_header("Figure 7 — normalized FlowMod rate vs PacketIn rate")
    print(format_table(["PacketIn/s"] + [p.name for p in PROFILES], rows))
    print(
        "\npaper shape: negligible impact on all switches except Dell "
        "S4810 with\nequal-priority rules, which drops by up to ~60%."
    )

    for profile in (HP_5406ZL, DELL_8132F, DELL_S4810):
        # "Almost unaffected": >= 85% at every tested rate.
        worst = min(normalized[profile.name].values())
        assert worst >= 0.85, (profile.name, worst)
    # The equal-priority S4810 visibly degrades at high PacketIn rates.
    assert normalized[DELL_S4810_SAME_PRIO.name][5000] <= 0.60

    benchmark.pedantic(
        lambda: flowmod_rate_under_packetins(HP_5406ZL, 1000),
        rounds=2,
        iterations=1,
    )
