"""Switch performance profiles (calibration for §8.3.1 and Figures 6-8).

Each profile fixes the serial control-plane costs and data-plane install
latencies of one switch model.  The maximum PacketOut/PacketIn rates are
taken directly from the paper's measurements; FlowMod rates and install
latencies are calibrated from the companion study [16] ("What You Need
to Know About SDN Flow Tables") so the normalized Figure 6/7 curves and
the Figure 5 blackhole windows reproduce.

The control plane is modelled as a single server: processing a message
of type ``t`` costs ``1 / max_rate(t)`` seconds.  PacketIns mostly
travel a separate path (line cards -> CPU) and only *interfere* with
FlowMod processing by a profile-specific factor; beyond the maximum
PacketIn rate the switch drops them, which is exactly what the paper
observed.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SwitchProfile:
    """Control- and data-plane performance model of one switch.

    Attributes:
        name: display name.
        flowmod_rate: sustained FlowMods/s with mixed priorities.
        packetout_rate: max PacketOut/s (paper §8.3.1).
        packetin_rate: max PacketIn/s before drops (paper §8.3.1).
        packetin_interference: fraction of FlowMod capacity consumed
            when the PacketIn path is saturated (Figure 7 calibration).
        install_latency: mean extra seconds between the control plane
            accepting a FlowMod and the data plane honouring it.
        install_jitter: relative jitter on ``install_latency``.
        premature_ack: acknowledges barriers before the data plane
            caught up (HP 5406zl and Pica8 per [16]).
        reorders: may apply FlowMods to the data plane out of order
            (Pica8 per [16]).  Reordering implies premature barriers:
            such a switch acknowledges barriers before the data plane
            caught up whatever ``premature_ack`` says, as the Pica8 of
            [16] does.
    """

    name: str
    flowmod_rate: float
    packetout_rate: float
    packetin_rate: float
    packetin_interference: float
    install_latency: float
    install_jitter: float
    premature_ack: bool
    reorders: bool

    @property
    def flowmod_cost(self) -> float:
        """Control-plane seconds consumed by one FlowMod."""
        return 1.0 / self.flowmod_rate

    @property
    def packetout_cost(self) -> float:
        """Control-plane seconds consumed by one PacketOut."""
        return 1.0 / self.packetout_rate

    @property
    def barrier_cost(self) -> float:
        """Barriers are cheap: a fraction of a FlowMod."""
        return self.flowmod_cost / 10.0


#: HP ProCurve 5406zl: 7006 PacketOut/s and 5531 PacketIn/s measured by
#: the paper; acks rules before the data plane installs them.
HP_5406ZL = SwitchProfile(
    name="HP 5406zl",
    flowmod_rate=275.0,
    packetout_rate=7006.0,
    packetin_rate=5531.0,
    packetin_interference=0.05,
    install_latency=0.030,
    install_jitter=0.5,
    premature_ack=True,
    reorders=False,
)

#: Dell S4810 (production-grade): 850 PacketOut/s, 401 PacketIn/s.
DELL_S4810 = SwitchProfile(
    name="Dell S4810",
    flowmod_rate=48.0,
    packetout_rate=850.0,
    packetin_rate=401.0,
    packetin_interference=0.10,
    install_latency=0.025,
    install_jitter=0.4,
    premature_ack=False,
    reorders=False,
)

#: Dell S4810 with all rules at equal priority (the paper's "**"
#: configuration): much higher baseline FlowMod rate, hence much more
#: sensitive to control-channel competition.
DELL_S4810_SAME_PRIO = SwitchProfile(
    name="Dell S4810**",
    flowmod_rate=970.0,
    packetout_rate=850.0,
    packetin_rate=401.0,
    packetin_interference=0.60,
    install_latency=0.010,
    install_jitter=0.4,
    premature_ack=False,
    reorders=False,
)

#: Dell 8132F with experimental OpenFlow: 9128 PacketOut/s, 1105 PacketIn/s.
DELL_8132F = SwitchProfile(
    name="Dell 8132F",
    flowmod_rate=750.0,
    packetout_rate=9128.0,
    packetin_rate=1105.0,
    packetin_interference=0.08,
    install_latency=0.015,
    install_jitter=0.4,
    premature_ack=False,
    reorders=False,
)

#: Pica8 behaviour per [16]: reorders FlowMods and answers barriers
#: prematurely; update speed comparable to HP but with heavier tails.
PICA8 = SwitchProfile(
    name="Pica8 (emulated)",
    flowmod_rate=300.0,
    packetout_rate=5000.0,
    packetin_rate=3000.0,
    packetin_interference=0.05,
    install_latency=0.040,
    install_jitter=1.0,
    premature_ack=True,
    reorders=True,
)

#: OpenVSwitch: software switch, near-instant and truthful.
OVS = SwitchProfile(
    name="OpenVSwitch",
    flowmod_rate=20000.0,
    packetout_rate=50000.0,
    packetin_rate=50000.0,
    packetin_interference=0.01,
    install_latency=0.0002,
    install_jitter=0.2,
    premature_ack=False,
    reorders=False,
)

#: The "ideal switch with reliable acknowledgments" of §8.4: like OVS
#: but with hardware-scale FlowMod throughput for a fair Figure 8
#: comparison.
IDEAL = SwitchProfile(
    name="Ideal",
    flowmod_rate=2000.0,
    packetout_rate=50000.0,
    packetin_rate=50000.0,
    packetin_interference=0.0,
    install_latency=0.0005,
    install_jitter=0.1,
    premature_ack=False,
    reorders=False,
)
