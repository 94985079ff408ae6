"""Edge-case tests for hosts, traffic accounting and update helpers."""

import pytest

from repro.network.host import Host
from repro.openflow.fields import HEADER, VLAN_NONE, FieldName
from repro.packets.parse import parse_packet
from repro.network.traffic import FlowSpec, TrafficGenerator
from repro.sim.kernel import Simulator


class TestHost:
    def test_unattached_host_send_raises(self):
        host = Host(Simulator(), "h1")
        with pytest.raises(RuntimeError):
            host.send_raw(b"x")

    def test_receive_records_unparseable_bytes(self):
        sim = Simulator()
        host = Host(sim, "h1")
        host.receive(b"\x00\x01")
        assert len(host.received) == 1
        assert host.received[0].payload == b"\x00\x01"
        assert host.received[0].values == {}

    def test_send_without_dl_vlan_is_untagged(self):
        """A frame names its VLAN or has none: in a packed header a
        ``dl_vlan`` left at 0 would be a tag for VLAN 0."""
        host = Host(Simulator(), "h1")
        sent = []
        host.transmit = sent.append
        host.send(b"x", dl_type=0x0800, nw_proto=17, nw_dst=7)
        (raw,) = sent
        assert raw[12:14] == b"\x08\x00"  # the ethertype: no 802.1Q tag
        assert len(raw) == 14 + 20 + 8 + 1
        header, payload = parse_packet(raw)
        assert HEADER.unpack(header)[FieldName.DL_VLAN] == VLAN_NONE
        assert payload == b"x"
        host.send(b"x", dl_type=0x0800, nw_proto=17, dl_vlan=0)
        assert sent[1][12:16] == b"\x81\x00\x00\x00"  # VLAN 0, tagged

    def test_send_refuses_a_value_wider_than_its_field(self):
        host = Host(Simulator(), "h1")
        host.transmit = lambda raw: None
        with pytest.raises(ValueError, match="exceeds width 48"):
            host.send(dl_type=0x0800, nw_proto=17, dl_dst=1 << 48)
        assert host.sent_count == 0

    def test_receive_unpacks_every_field(self):
        host = Host(Simulator(), "h1")
        sent = []
        host.transmit = sent.append
        host.send(b"p", dl_type=0x0806, nw_src=1, nw_dst=2)
        host.receive(sent[0])
        values = host.received[0].values
        assert list(values) == HEADER.names()
        assert values[FieldName.NW_DST] == 2
        assert values[FieldName.NW_PROTO] == 0  # ARP carries none
        assert host.received[0].payload == b"p"

    def test_on_receive_callback(self):
        sim = Simulator()
        host = Host(sim, "h1")
        seen = []
        host.on_receive = seen.append
        host.receive(b"\x00" * 20)
        assert len(seen) == 1

    def test_record_packets_can_be_disabled(self):
        sim = Simulator()
        host = Host(sim, "h1")
        host.record_packets = False
        host.receive(b"\x00" * 20)
        assert host.received == []


class TestTrafficGeneratorEdge:
    def make(self, rate=100.0):
        sim = Simulator()
        host = Host(sim, "h1")
        sent = []
        host.transmit = sent.append
        spec = FlowSpec(
            flow_id=1,
            header_fields=(("dl_type", 0x0800), ("nw_proto", 17)),
        )
        return sim, host, sent, TrafficGenerator(sim, host, spec, rate=rate)

    def test_zero_rate_rejected(self):
        sim = Simulator()
        host = Host(sim, "h1")
        spec = FlowSpec(flow_id=1, header_fields=())
        with pytest.raises(ValueError):
            TrafficGenerator(sim, host, spec, rate=0)

    def test_double_start_is_idempotent(self):
        sim, host, sent, generator = self.make()
        generator.start()
        generator.start()
        sim.run_for(0.1)
        # Single stream at 100/s: ~10 packets, not ~20.
        assert len(sent) <= 12

    def test_sequence_numbers_increase(self):
        from repro.network.traffic import decode_flow_payload

        sim, host, sent, generator = self.make()
        generator.start()
        sim.run_for(0.1)
        seqs = []
        for raw in sent:
            _, payload = parse_packet(raw)
            decoded = decode_flow_payload(payload)
            assert decoded is not None
            seqs.append(decoded[1])
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)

    def test_jitter_offsets_first_packet(self):
        sim, host, sent, generator = self.make(rate=10.0)
        times = []
        host.transmit = lambda raw: times.append(sim.now)
        generator.start(jitter=0.033)
        sim.run_for(0.2)
        assert times[0] == pytest.approx(0.033)
