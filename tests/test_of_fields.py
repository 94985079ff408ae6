"""Tests for the abstract header layout."""

import pytest

from repro.openflow.fields import (
    HEADER,
    HEADER_BITS,
    ETHERTYPE_IPV4,
    FieldName,
)
from repro.openflow.match import Match
from repro.openflow.table import pack_header


def fixed_bits(match):
    """Header bit indices (0 = the first field's MSB) ``match`` fixes,
    read from its packed mask."""
    _, mask = match.packed()
    return [i for i in range(HEADER_BITS) if mask >> (HEADER_BITS - 1 - i) & 1]


class TestLayout:
    def test_twelve_fields(self):
        assert len(HEADER) == 12

    def test_total_bits(self):
        # 16+48+48+16+12+3+32+32+8+6+16+16 = 253... recomputed from widths
        assert HEADER_BITS == sum(f.width for f in HEADER)

    def test_offsets_are_contiguous(self):
        offset = 0
        for field in HEADER:
            assert field.offset == offset
            offset += field.width
        assert offset == HEADER_BITS

    def test_field_lookup(self):
        field = HEADER.field(FieldName.NW_SRC)
        assert field.width == 32

    def test_names_in_layout_order(self):
        names = HEADER.names()
        assert names[0] == FieldName.IN_PORT
        assert names[-1] == FieldName.TP_DST

    def test_bit_of(self):
        """A field's fixed bits sit at ``offset .. offset + width - 1``
        of the abstract header (0 = field MSB)."""
        nw_src = HEADER.field(FieldName.NW_SRC)
        bits = fixed_bits(Match.build(nw_src=1))
        assert bits == list(range(nw_src.offset, nw_src.offset + 32))


class TestPacking:
    def test_pack_unpack_roundtrip(self):
        values = {
            FieldName.IN_PORT: 3,
            FieldName.DL_SRC: 0xAABBCCDDEEFF,
            FieldName.DL_TYPE: ETHERTYPE_IPV4,
            FieldName.NW_SRC: 0x0A000001,
            FieldName.TP_DST: 443,
        }
        packed = pack_header(values)
        unpacked = HEADER.unpack(packed)
        for name, value in values.items():
            assert unpacked[name] == value

    def test_unpack_fills_missing_with_zero(self):
        unpacked = HEADER.unpack(0)
        assert all(v == 0 for v in unpacked.values())

    def test_pack_cuts_oversized_value(self):
        """``pack_header`` keeps a value's low bits, within its field."""
        assert pack_header({FieldName.DL_VLAN: 1 << 12 | 5}) == pack_header(
            {FieldName.DL_VLAN: 5}
        )

    def test_unpack_rejects_too_wide_header(self):
        with pytest.raises(ValueError):
            HEADER.unpack(1 << HEADER_BITS)


class TestFieldSemantics:
    def test_conditional_parents(self):
        tp_src = HEADER.field(FieldName.TP_SRC)
        assert tp_src.parent == FieldName.NW_PROTO
        nw_proto = HEADER.field(FieldName.NW_PROTO)
        assert nw_proto.parent == FieldName.DL_TYPE

    def test_limited_domains(self):
        dl_type = HEADER.field(FieldName.DL_TYPE)
        assert ETHERTYPE_IPV4 in dl_type.valid_values
        nw_proto = HEADER.field(FieldName.NW_PROTO)
        assert 6 in nw_proto.valid_values  # TCP

    def test_contains(self):
        vlan = HEADER.field(FieldName.DL_VLAN)
        assert vlan.contains(0xFFF)
        assert not vlan.contains(0x1000)
        assert not vlan.contains(-1)

    def test_bit_positions(self):
        pcp = HEADER.field(FieldName.DL_VLAN_PCP)
        positions = fixed_bits(Match.build(dl_vlan_pcp=5))
        assert len(positions) == 3
        assert positions[0] == pcp.offset
