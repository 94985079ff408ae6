"""Tests for network wiring: links, channels, hosts, topology maps."""

from frame_helpers import craft

from repro.network import ControlChannel, Link, Network
from repro.network.traffic import (
    FlowSpec,
    TrafficGenerator,
    decode_flow_payload,
    encode_flow_payload,
)
from repro.openflow.actions import output
from repro.openflow.fields import FieldName
from repro.openflow.match import Match
from repro.openflow.messages import EchoRequest
from repro.openflow.rule import Rule
from repro.sim.kernel import Simulator
from repro.topology.generators import triangle


class TestLink:
    def test_delivery_with_latency(self):
        sim = Simulator()
        link = Link(sim, latency=0.005)
        arrived = []
        link.connect(
            lambda raw: None, lambda raw: arrived.append((sim.now, raw))
        )
        link.send_from_a(b"x")
        sim.run()
        assert arrived == [(0.005, b"x")]

    def test_bidirectional(self):
        sim = Simulator()
        link = Link(sim)
        a_got, b_got = [], []
        link.connect(a_got.append, b_got.append)
        link.send_from_a(b"to-b")
        link.send_from_b(b"to-a")
        sim.run()
        assert a_got == [b"to-a"]
        assert b_got == [b"to-b"]

    def test_failure_drops_both_directions(self):
        sim = Simulator()
        link = Link(sim)
        got = []
        link.connect(got.append, got.append)
        link.fail()
        link.send_from_a(b"x")
        link.send_from_b(b"y")
        sim.run()
        assert got == []
        assert link.dropped == 2


class TestControlChannel:
    def test_both_directions_with_latency(self):
        sim = Simulator()
        channel = ControlChannel(sim, latency=0.002)
        down, up = [], []
        channel.down_handler = lambda m: down.append((sim.now, m))
        channel.up_handler = lambda m: up.append((sim.now, m))
        msg = EchoRequest()
        channel.send_down(msg)
        channel.send_up(msg)
        sim.run()
        assert down[0][0] == 0.002
        assert up[0][0] == 0.002
        assert channel.messages_down == 1
        assert channel.messages_up == 1


class TestNetwork:
    def make(self):
        sim = Simulator()
        return sim, Network(sim, triangle(), seed=1)

    def test_switches_created(self):
        _, net = self.make()
        assert set(net.switches) == {"s1", "s2", "s3"}
        assert len(net.links) == 3

    def test_port_maps_consistent(self):
        _, net = self.make()
        for u, v in net.topology.edges:
            port_u = net.port_toward[u][v]
            assert net.neighbor_on_port[u][port_u] == v

    def test_packet_crosses_link(self):
        sim, net = self.make()
        s1, s2 = net.switch("s1"), net.switch("s2")
        s1.install_directly(
            Rule(
                priority=5,
                match=Match.wildcard(),
                actions=output(net.port_toward["s1"]["s2"]),
            )
        )
        raw = craft({FieldName.DL_TYPE: 0x0800, FieldName.NW_PROTO: 6}, b"x")
        s1.inject_raw(raw, in_port=net.port_toward["s1"]["s3"])
        sim.run_for(0.1)
        # s2 received and (having no rules) dropped it.
        assert s2.stats.packets_dropped == 1

    def test_fail_link(self):
        sim, net = self.make()
        net.fail_link("s1", "s2")
        s1, s2 = net.switch("s1"), net.switch("s2")
        s1.install_directly(
            Rule(
                priority=5,
                match=Match.wildcard(),
                actions=output(net.port_toward["s1"]["s2"]),
            )
        )
        raw = craft({FieldName.DL_TYPE: 0x0800, FieldName.NW_PROTO: 6})
        s1.inject_raw(raw, in_port=net.port_toward["s1"]["s3"])
        sim.run_for(0.1)
        assert s2.stats.packets_dropped == 0  # nothing arrived

    def test_hosts(self):
        sim, net = self.make()
        h1 = net.add_host("h1", "s1")
        h2 = net.add_host("h2", "s2")
        s1, s2 = net.switch("s1"), net.switch("s2")
        s1.install_directly(
            Rule(
                priority=5,
                match=Match.wildcard(),
                actions=output(net.port_toward["s1"]["s2"]),
            )
        )
        s2.install_directly(
            Rule(
                priority=5,
                match=Match.wildcard(),
                actions=output(net.port_toward["s2"]["h2"]),
            )
        )
        h1.send(
            nw_dst=0x0A000002, dl_type=0x0800, nw_proto=17, payload=b"hello"
        )
        sim.run_for(0.1)
        assert len(h2.received) == 1
        assert h2.received[0].payload == b"hello"

    def test_switch_facing_ports_exclude_hosts(self):
        _, net = self.make()
        net.add_host("h1", "s1")
        facing = net.switch_facing_ports("s1")
        host_port = net.port_toward["s1"]["h1"]
        assert host_port not in facing
        assert len(facing) == 2

    def test_upstream_options(self):
        _, net = self.make()
        options = net.upstream_options("s1")
        port_from_s2 = net.port_toward["s1"]["s2"]
        assert options[port_from_s2] == ("s2", net.port_toward["s2"]["s1"])

    def test_duplicate_host_rejected(self):
        import pytest

        _, net = self.make()
        net.add_host("h1", "s1")
        with pytest.raises(ValueError):
            net.add_host("h1", "s2")

    def test_switch_numbers_stable(self):
        _, net = self.make()
        numbers = [net.switch_number(n) for n in ("s1", "s2", "s3")]
        assert numbers == [1, 2, 3]


class TestTraffic:
    def test_flow_payload_roundtrip(self):
        payload = encode_flow_payload(42, 1000)
        assert decode_flow_payload(payload) == (42, 1000)
        assert decode_flow_payload(b"junk") is None

    def test_generator_rate(self):
        sim = Simulator()
        net = Network(sim, triangle(), seed=1)
        host = net.add_host("h1", "s1")
        spec = FlowSpec(
            flow_id=1,
            header_fields=(
                ("dl_type", 0x0800), ("nw_proto", 17), ("nw_dst", 5)
            ),
        )
        gen = TrafficGenerator(sim, host, spec, rate=100.0)
        gen.start()
        sim.run_for(0.5)
        # ~50 packets in 0.5 s at 100/s (first fires at t=0).
        assert 48 <= host.sent_count <= 52

    def test_generator_stop(self):
        sim = Simulator()
        net = Network(sim, triangle(), seed=1)
        host = net.add_host("h1", "s1")
        spec = FlowSpec(
            flow_id=1, header_fields=(("dl_type", 0x0800), ("nw_proto", 17))
        )
        gen = TrafficGenerator(sim, host, spec, rate=100.0)
        gen.start()
        sim.run_for(0.1)
        gen.stop()
        count = host.sent_count
        sim.run_for(0.5)
        assert host.sent_count <= count + 1
