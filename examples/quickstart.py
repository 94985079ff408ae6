#!/usr/bin/env python3
"""Quickstart: generate data-plane probes for a small flow table.

Walks through the paper's §3 examples:

1. a basic unicast rule (probe found),
2. the §3.1 subtlety where naive constraint formulations fail,
3. a rewrite rule distinguishable only by its ToS rewrite (§3.2),
4. a drop rule (negative probing, §3.3),
5. an unmonitorable rule (§3.5).

Run:  python examples/quickstart.py
"""

from repro import FlowTable, Match, ProbeGenerator, Rule, verify_probe
from repro.openflow.actions import drop, output
from repro.openflow.fields import FieldName
from repro.packets.ipv4 import ip_to_str, str_to_ip

CATCH = Match.build(dl_vlan=0xF03)  # the downstream catching rule's match


def show(title, table, probed, result):
    print(f"\n=== {title} ===")
    for rule in table.rules():
        marker = " <-- probed" if rule.key() == probed.key() else ""
        print(
            f"  prio={rule.priority:<3} {rule.match!r} "
            f"-> {rule.actions!r}{marker}"
        )
    if not result.ok:
        print(f"  probe: NONE ({result.reason.value})")
        return
    header = result.header
    print(
        f"  probe: src={ip_to_str(header[FieldName.NW_SRC])} "
        f"dst={ip_to_str(header[FieldName.NW_DST])} "
        f"tos={header[FieldName.NW_TOS]:#x} "
        f"vlan={header[FieldName.DL_VLAN]:#x}"
    )
    print(f"  raw packet: {len(result.packet)} bytes")
    print(
        "  if rule present -> ports "
        f"{sorted(result.outcome_present.ports())}; "
        f"if missing -> ports {sorted(result.outcome_absent.ports())}"
    )
    valid, why = verify_probe(table, probed, header, CATCH)
    print(f"  independent verification: {why}")
    print(f"  generated in {result.generation_time * 1000:.2f} ms "
          f"({result.cnf_vars} vars, {result.cnf_clauses} clauses)")


def main():
    generator = ProbeGenerator(catch_match=CATCH)
    src = str_to_ip("10.0.0.1")
    dst = str_to_ip("10.0.0.2")

    # 1. Basic unicast rule over a default route.
    default = Rule(priority=0, match=Match.wildcard(), actions=output(1))
    probed = Rule(
        priority=10, match=Match.build(nw_dst=dst), actions=output(2)
    )
    table = FlowTable(rules=[default, probed])
    show(
        "Basic unicast rule", table, probed, generator.generate(table, probed)
    )

    # 2. The paper's §3.1 example: the probed rule forwards to the SAME
    # port as the default, yet a probe exists because a middle rule
    # would divert the traffic if the probed rule were missing.
    rlowest = Rule(priority=0, match=Match.wildcard(), actions=output(1))
    rlower = Rule(priority=5, match=Match.build(nw_src=src), actions=output(2))
    rprobed = Rule(
        priority=10, match=Match.build(
            nw_src=src, nw_dst=dst
        ), actions=output(1)
    )
    table = FlowTable(rules=[rlowest, rlower, rprobed])
    show("§3.1: distinguishing via a middle rule", table, rprobed,
         generator.generate(table, rprobed))

    # 3. Rewrite rule: same output port as the default, but it marks
    # traffic with ToS 0x2A ("voice"): a probe with any other ToS works.
    marked = Rule(
        priority=10, match=Match.build(
            nw_src=src
        ), actions=output(1, nw_tos=0x2A)
    )
    table = FlowTable(rules=[rlowest, marked])
    show("§3.2: rewrite-distinguished rule", table, marked,
         generator.generate(table, marked))

    # 4. Drop rule: negative probing (silence = installed).
    dropper = Rule(priority=10, match=Match.build(nw_dst=dst), actions=drop())
    table = FlowTable(rules=[rlowest, dropper])
    result = generator.generate(table, dropper)
    show("§3.3: drop rule (negative probing)", table, dropper, result)
    print(f"  expects probe back: {result.expects_return()}")

    # 5. Unmonitorable: same outcome as the rule below it.
    clone = Rule(priority=10, match=Match.build(nw_dst=dst), actions=output(1))
    table = FlowTable(rules=[rlowest, clone])
    show("§3.5: unmonitorable rule", table, clone,
         generator.generate(table, clone))


if __name__ == "__main__":
    main()
