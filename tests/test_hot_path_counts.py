"""What a probe costs on the read path, what a regenerated probe leaves
behind on the write path, and that nothing simulated moved.

Two small probing fleets, seconds each:

* ``clean``: ring-6 x 16 rules at the default configuration (the
  paper's section-3 steady state) with two rule drops and two
  corruptions;
* ``lossy``: star-5 x 32 rules, an 8-deep probe window, 3-strike alarm
  hysteresis and 5 % loss each way on every control channel, with four
  rule drops.

``PINS`` was recorded on the commit *before* the read path was put on
its diet (launch memo, header carrier between hops, tuple event heap,
idle conditioner) and must never need re-recording for a change that
claims to move no simulated quantity.  The call-count tests hold the
diet itself: a later change that re-introduces a per-hop codec pass or
a per-message conditioner call fails here, in tier-1, not in a
benchmark.  One pass is held too: crafting and parsing a probe frame is
a handful of Python-level calls and builds no per-layer header object.

And one small ``churn_fleet``: two islands of 8 switches x 8 disjoint
rules under a 400 FlowMods/s add/modify/delete stream, every update
confirmed dynamically.  ``CHURN_PINS`` was recorded on the commit
*before* a probe's constraints became assumptions; the guard beside it
holds that change: a regenerated probe adds no clause group and no
clause to its switch's solver, and costs exactly one core solve.
"""

from __future__ import annotations

import sys

import pytest

import repro.core.monitor
import repro.packets.craft
import repro.packets.parse
from repro.core.monitor import MonitorConfig
from repro.core.probegen import ProbeGenerator
from repro.fleet.deployment import FleetDeployment
from repro.fleet.failures import (
    ChannelDegradation,
    RuleCorruption,
    RuleDrop,
    schedule_failures,
)
from repro.fleet.metrics import collect_fleet_metrics
from repro.fleet.workloads import RuleChurn, SteadyRules
from repro.network.conditioning import ChannelConditioner
from repro.openflow.fields import (
    ETHERTYPE_IPV4,
    IPPROTO_ICMP,
    IPPROTO_TCP,
    IPPROTO_UDP,
    FieldName,
)
from repro.packets.payload import ProbeMetadata
from repro.sat.solver import SatSolver
from repro.topology.generators import islands, ring, star


def run_clean():
    return _run(
        ring(6),
        MonitorConfig(),
        rules=16,
        loss=0.0,
        faults=[
            RuleDrop(at=0.11, node="sw0", rule_index=3),
            RuleCorruption(at=0.17, node="sw2", rule_index=9),
            RuleDrop(at=0.23, node="sw4", rule_index=12),
            RuleCorruption(at=0.29, node="sw5", rule_index=0),
        ],
        duration=0.6,
        dynamic=True,
    )


def run_lossy():
    return _run(
        star(4),
        MonitorConfig(
            probe_rate=250.0, probe_window=8, alarm_confirmations=3
        ),
        rules=32,
        loss=0.05,
        faults=[
            RuleDrop(at=0.21, node="hub", rule_index=5),
            RuleDrop(at=0.33, node="leaf0", rule_index=17),
            RuleDrop(at=0.45, node="leaf2", rule_index=30),
            RuleDrop(at=0.57, node="leaf3", rule_index=8),
        ],
        duration=1.2,
        dynamic=False,
    )


def _run(topology, config, rules, loss, faults, duration, dynamic):
    deployment = FleetDeployment(
        topology, config=config, dynamic=dynamic, seed=7
    )
    SteadyRules(rules).setup(deployment)
    chaos = [
        ChannelDegradation(at=0.0, node=node, loss=loss)
        for node in deployment.nodes
        if loss
    ]
    injections = schedule_failures(deployment, chaos + faults)
    deployment.start_monitoring()
    deployment.run(duration)
    metrics = collect_fleet_metrics(
        deployment, injections=injections, duration=duration
    )
    return deployment, metrics


def run_churn():
    deployment = FleetDeployment(
        islands(16),
        config=MonitorConfig(probe_rate=20.0),
        dynamic=True,
        seed=7,
    )
    SteadyRules(8).setup(deployment)
    churn = RuleChurn(rate=400.0, start=0.1, stop=0.6)
    churn.setup(deployment)
    deployment.start_monitoring()
    deployment.run(1.1)
    return deployment, churn


def churn_facts(deployment, churn) -> dict:
    stats = deployment.probegen_stats()
    dynamics = deployment.system.dynamics.values()
    return {
        "probes_generated": stats.probes_generated,
        "cache_hits": stats.cache_hits,
        "revalidations": stats.revalidations,
        "updates_sent": len(churn.records),
        "updates_confirmed": sum(d.updates_confirmed for d in dynamics),
        "updates_given_up": sum(d.updates_given_up for d in dynamics),
        "alarms": sum(
            len(deployment.monitor(node).alarms) for node in deployment.nodes
        ),
    }


CHURN_PINS = {
    "probes_generated": 286,
    "cache_hits": 203,
    "revalidations": 5,
    "updates_sent": 206,
    "updates_confirmed": 206,
    "updates_given_up": 0,
    "alarms": 0,
}


def conditioner_total(deployment, counter: str) -> int:
    """One conditioner counter summed over every node and direction."""
    return sum(
        direction[counter]
        for node in deployment.nodes
        for direction in deployment.network.conditioner(node)
        .stats_summary()
        .values()
    )


def facts(deployment, metrics) -> dict:
    monitors = [deployment.monitor(node) for node in deployment.nodes]
    return {
        "alarm_timeline": [tuple(row) for row in metrics.alarm_timeline],
        "probes_sent": sum(m.probes_sent for m in monitors),
        "probes_confirmed": sum(m.probes_confirmed for m in monitors),
        "probes_timed_out": sum(m.probes_timed_out for m in monitors),
        "events_dispatched": deployment.sim.events_dispatched,
        "conditioner_dropped": conditioner_total(deployment, "dropped"),
        "undetected": [
            d.injection.description or d.injection.kind
            for d in metrics.detections
            if not d.injection.chaos and not d.detected
        ],
        "false_alarms": len(metrics.false_alarms),
    }


PINS: dict[str, dict] = {
    "clean": {
        "alarm_timeline": [
            (0.1806402000000001, "'sw2'", 'misbehaving',
             'Match(nw_dst=0x60002009)'),
            (0.21264000000000013, "'sw2'", 'misbehaving',
             'Match(nw_dst=0x60002009)'),
            (0.24464020000000017, "'sw2'", 'misbehaving',
             'Match(nw_dst=0x60002009)'),
            (0.2766404000000001, "'sw2'", 'misbehaving',
             'Match(nw_dst=0x60002009)'),
            (0.2840000000000001, "'sw0'", 'missing',
             'Match(nw_dst=0x60000003)'),
            (0.30864040000000015, "'sw2'", 'misbehaving',
             'Match(nw_dst=0x60002009)'),
            (0.3226400000000002, "'sw5'", 'misbehaving',
             'Match(nw_dst=0x60005000)'),
            (0.3406402000000002, "'sw2'", 'misbehaving',
             'Match(nw_dst=0x60002009)'),
            (0.35464000000000023, "'sw5'", 'misbehaving',
             'Match(nw_dst=0x60005000)'),
            (0.3726404000000002, "'sw2'", 'misbehaving',
             'Match(nw_dst=0x60002009)'),
            (0.38664000000000026, "'sw5'", 'misbehaving',
             'Match(nw_dst=0x60005000)'),
            (0.3980000000000002, "'sw4'", 'missing',
             'Match(nw_dst=0x6000400c)'),
            (0.4046402000000003, "'sw2'", 'misbehaving',
             'Match(nw_dst=0x60002009)'),
            (0.4186400000000003, "'sw5'", 'misbehaving',
             'Match(nw_dst=0x60005000)'),
            (0.43600000000000017, "'sw0'", 'missing',
             'Match(nw_dst=0x60000003)'),
            (0.43664040000000026, "'sw2'", 'misbehaving',
             'Match(nw_dst=0x60002009)'),
            (0.4506400000000003, "'sw5'", 'misbehaving',
             'Match(nw_dst=0x60005000)'),
            (0.4686404000000003, "'sw2'", 'misbehaving',
             'Match(nw_dst=0x60002009)'),
            (0.48264000000000035, "'sw5'", 'misbehaving',
             'Match(nw_dst=0x60005000)'),
            (0.5006402000000003, "'sw2'", 'misbehaving',
             'Match(nw_dst=0x60002009)'),
            (0.5146400000000003, "'sw5'", 'misbehaving',
             'Match(nw_dst=0x60005000)'),
            (0.5326404000000003, "'sw2'", 'misbehaving',
             'Match(nw_dst=0x60002009)'),
            (0.5466400000000003, "'sw5'", 'misbehaving',
             'Match(nw_dst=0x60005000)'),
            (0.5500000000000003, "'sw4'", 'missing',
             'Match(nw_dst=0x6000400c)'),
            (0.5646404000000004, "'sw2'", 'misbehaving',
             'Match(nw_dst=0x60002009)'),
            (0.5786400000000004, "'sw5'", 'misbehaving',
             'Match(nw_dst=0x60005000)'),
            (0.5880000000000003, "'sw0'", 'missing',
             'Match(nw_dst=0x60000003)'),
            (0.5966404000000004, "'sw2'", 'misbehaving',
             'Match(nw_dst=0x60002009)'),
        ],
        "probes_sent": 1810,
        "probes_confirmed": 1758,
        "probes_timed_out": 5,
        "events_dispatched": 16076,
        "conditioner_dropped": 0,
        "undetected": [],
        "false_alarms": 0,
    },
    "lossy": {
        "alarm_timeline": [
            (0.6700000000000004, "'hub'", 'missing',
             'Match(nw_dst=0x60000005)'),
            (0.8180000000000005, "'leaf0'", 'missing',
             'Match(nw_dst=0x60001011)'),
            (0.9220000000000006, "'leaf2'", 'missing',
             'Match(nw_dst=0x6000301e)'),
            (1.0420000000000007, "'leaf3'", 'missing',
             'Match(nw_dst=0x60004008)'),
            (1.1560000000000004, "'hub'", 'missing',
             'Match(nw_dst=0x60000005)'),
        ],
        "probes_sent": 6328,
        "probes_confirmed": 5644,
        "probes_timed_out": 18,
        "events_dispatched": 49170,
        "conditioner_dropped": 602,
        "undetected": [],
        "false_alarms": 0,
    },
}


@pytest.mark.parametrize("name", ["clean", "lossy"])
def test_nothing_simulated_moves(name):
    run = run_clean if name == "clean" else run_lossy
    assert facts(*run()) == PINS[name]


# ----- call counts --------------------------------------------------------


class _Calls:
    """Count calls of ``owner.attr``; a module function is rebound in
    every ``repro`` namespace that imported it by name."""

    def __init__(self, monkeypatch, owner, attr):
        self.count = 0
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            self.count += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)
        if isinstance(owner, type):
            return
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is owner:
                continue
            for alias, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, alias, wrapper)


@pytest.fixture
def calls(monkeypatch):
    return {
        "craft": _Calls(monkeypatch, repro.packets.craft, "craft_packet"),
        "parse": _Calls(monkeypatch, repro.packets.parse, "parse_packet"),
        "is_active": _Calls(monkeypatch, ChannelConditioner, "is_active"),
        "plan": _Calls(monkeypatch, ChannelConditioner, "plan"),
        "observations": _Calls(
            monkeypatch, repro.core.monitor, "outcome_observations"
        ),
        "solve": _Calls(monkeypatch, SatSolver, "solve"),
        "generate": _Calls(monkeypatch, ProbeGenerator, "generate"),
    }


def test_steady_probe_pays_two_codec_passes_and_no_conditioner(calls):
    """Per confirmed probe: Monocle's craft + the catching switch's
    PacketIn craft, the emitting switch's PacketOut parse + Monocle's
    parse.  No hop in between touches bytes, no message asks a
    conditioner anything, and a cached result's observation sets are
    not recomputed."""
    deployment, _ = _run(
        ring(6), MonitorConfig(), 16, 0.0, [], duration=0.1, dynamic=True
    )
    monitors = [deployment.monitor(node) for node in deployment.nodes]
    assert deployment.probegen_stats().probes_generated == 6 * 16

    def confirmed():
        return sum(m.probes_confirmed for m in monitors)

    before = {name: c.count for name, c in calls.items()}
    done = confirmed()
    deployment.run(0.4)
    probes = confirmed() - done
    spent = {name: c.count - before[name] for name, c in calls.items()}
    assert probes > 1000
    # Two probes per switch are in flight at either end of the window.
    edge = 2 * len(monitors)
    assert 2 * probes - edge <= spent["craft"] <= 2 * probes + edge
    assert 2 * probes - edge <= spent["parse"] <= 2 * probes + edge
    assert spent["is_active"] == spent["plan"] == 0
    assert spent["observations"] == 0


@pytest.mark.parametrize("proto", [IPPROTO_ICMP, IPPROTO_TCP, IPPROTO_UDP])
def test_one_codec_pass_is_a_handful_of_calls_and_no_header_object(proto):
    """Craft, then parse, one probe frame (802.1Q-tagged IPv4 with a
    ``ProbeMetadata`` payload): each walks the frame once.  The layered
    codec made 19-20 Python-level calls here, four of them frozen
    dataclass ``__init__``s; the one-pass codec makes 4.  Exact for an
    input, so a "small helper per layer" cannot quietly grow back."""
    header = {
        FieldName.DL_SRC: 0x020000000001,
        FieldName.DL_DST: 0x020000000002,
        FieldName.DL_TYPE: ETHERTYPE_IPV4,
        FieldName.DL_VLAN: 0x123,
        FieldName.DL_VLAN_PCP: 3,
        FieldName.NW_SRC: 0x0A000001,
        FieldName.NW_DST: 0x60002009,
        FieldName.NW_PROTO: proto,
        FieldName.NW_TOS: 0x15,
        FieldName.TP_SRC: 8,
        FieldName.TP_DST: 0,
    }
    payload = ProbeMetadata(switch_id=2, rule_cookie=9, nonce=41).encode()
    called = []

    def profiler(frame, event, arg):
        if event == "call":
            called.append(frame.f_code.co_name)

    craft_packet = repro.packets.craft.craft_packet
    parse_packet = repro.packets.parse.parse_packet
    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        values, parsed_payload = parse_packet(craft_packet(header, payload))
    finally:
        sys.setprofile(previous)
    assert parsed_payload == payload
    assert all(values[name] == value for name, value in header.items())
    assert len(called) <= 8, called
    assert "__init__" not in called


def test_observation_sets_once_per_result_not_per_launch(calls):
    """``outcome_observations`` runs twice (present, absent) per
    distinct probe result the monitors were served, however many times
    each result is launched."""
    deployment, metrics = run_clean()
    sent = facts(deployment, metrics)["probes_sent"]
    results = deployment.probegen_stats().probes_generated
    assert sent > 10 * results
    assert calls["observations"].count == 2 * results


def test_lossy_channel_still_plans_every_message(calls):
    """An overlay in force is consulted once per message."""
    deployment, _ = run_lossy()
    planned = conditioner_total(deployment, "conditioned")
    assert planned == calls["plan"].count > 1000


def test_regenerated_probe_adds_nothing_and_solves_once(calls):
    """The write path's guard.  On disjoint rules a probe's whole
    constraint is its Hit bits and the negated guard of the catching
    rule above it, all assumed: once a switch's guards are defined its
    solver never grows again, whatever the FlowMod stream does."""
    deployment, churn = run_churn()
    assert churn_facts(deployment, churn) == CHURN_PINS
    # One core solve per probe: the contexts' and the cold generator's
    # (DynamicMonitor's modification probes), none answered from a memo.
    stats = deployment.probegen_stats()
    cold = calls["generate"].count
    assert cold > 0
    assert calls["solve"].count == stats.probes_generated + cold
    assert stats.probes_generated > 2 * 16 * 8  # mostly regeneration
    generated = 0
    for node in deployment.nodes:
        monitor = deployment.monitor(node)
        context = monitor.probe_context
        solver = context.solver
        assert solver.stats.groups_created == 0
        assert not solver._groups and not solver._group_vars
        assert solver.stats.solves == context.stats.probes_generated
        generated += solver.stats.solves
        # Permanent definitions alone: the catching match, the in_port
        # domain, and one guard per match ever placed above a probe.
        assert solver.num_clauses == solver._solver.num_clauses
        assert solver.dead_clauses == 0
        size = (solver.num_vars, solver.num_clauses)
        context._cache.clear()
        for key in monitor.scheduler.keys():  # the rules it probes
            assert context.probe_for(context.table.get(*key)).ok
        assert (solver.num_vars, solver.num_clauses) == size
    assert generated == stats.probes_generated


if __name__ == "__main__":  # record PINS: python tests/test_hot_path_counts.py
    import pprint

    pprint.pprint(
        {"clean": facts(*run_clean()), "lossy": facts(*run_lossy())},
        width=76,
    )
    pprint.pprint(churn_facts(*run_churn()), width=76)
