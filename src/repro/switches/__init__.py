"""Simulated OpenFlow switches.

The paper evaluates against hardware (HP ProCurve 5406zl, Pica8, Dell
S4810, Dell 8132F) and OpenVSwitch instances, some behind proxies that
emulate misbehaviour.  We substitute discrete-event switch models that
reproduce the *protocol-visible* behaviour those experiments depend on:

* a serial control-plane processor with per-message-type costs
  (:class:`~repro.switches.profiles.SwitchProfile`, calibrated to the
  §8.3.1 message-rate measurements),
* a data plane (TCAM) whose updates lag the control plane by a
  profile-specific latency,
* the two misbehaviours of [16], read from the profile's flags:
  premature barrier acknowledgments (HP-like), and FlowMod reordering,
  which implies premature barriers (Pica8-like),
* fault injection: silently removing rules from the data plane,
  corrupting actions, failing ports — the §8.1.1 failure scenarios.
"""

from repro.switches.profiles import (
    SwitchProfile,
    DELL_8132F,
    DELL_S4810,
    DELL_S4810_SAME_PRIO,
    HP_5406ZL,
    IDEAL,
    OVS,
    PICA8,
)
from repro.switches.switch import SimulatedSwitch

__all__ = [
    "SwitchProfile",
    "DELL_8132F",
    "DELL_S4810",
    "DELL_S4810_SAME_PRIO",
    "HP_5406ZL",
    "IDEAL",
    "OVS",
    "PICA8",
    "SimulatedSwitch",
]
