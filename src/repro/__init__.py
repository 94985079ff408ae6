"""Monocle: dynamic, fine-grained data plane monitoring — reproduction.

A full Python reproduction of *Monocle* (Peresini, Kuzniar, Kostic,
CoNEXT 2015): SAT-based per-rule probe generation, steady-state and
dynamic data-plane monitoring, catching-rule planning via vertex
coloring, and the complete simulated substrate (OpenFlow 1.0 data
model, packet crafting, CDCL SAT solver, switch/network simulators)
the evaluation needs.

Quickstart::

    from repro import FlowTable, Match, Rule, ProbeGenerator
    from repro.openflow.actions import output

    table = FlowTable()
    table.install(Rule(priority=10,
                       match=Match.build(nw_src=0x0A000001),
                       actions=output(1)))
    generator = ProbeGenerator(catch_match=Match.build(dl_vlan=3))
    probe = generator.generate(table, table.rules()[0])
    assert probe.ok

See ``examples/`` for full scenarios; ``tests/test_integration.py``
and its neighbours hold the paper's figures as seconds-scale tests, and
``python3 -m bench`` measures what the system costs.
"""

from repro.openflow import FlowTable, Match, Rule
from repro.core.probegen import ProbeGenerator, ProbeResult, verify_probe
from repro.core.monitor import Monitor, MonitorConfig
from repro.core.dynamic import DynamicMonitor, UpdateAck
from repro.core.multiplexer import MonocleSystem
from repro.core.catching import plan_catching_rules, CatchingPlan
from repro.sim import Simulator
from repro.network import Network

__version__ = "1.0.0"

__all__ = [
    "FlowTable",
    "Match",
    "Rule",
    "ProbeGenerator",
    "ProbeResult",
    "verify_probe",
    "Monitor",
    "MonitorConfig",
    "DynamicMonitor",
    "UpdateAck",
    "MonocleSystem",
    "plan_catching_rules",
    "CatchingPlan",
    "Simulator",
    "Network",
    "__version__",
]
