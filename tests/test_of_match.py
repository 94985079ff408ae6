"""Tests for OpenFlow matches: semantics, overlap, covering, packing."""

import pytest

from overlap_reference import fields_overlap, overlaps
from repro.openflow.fields import HEADER, FieldName
from repro.openflow.match import FieldMatch, Match
from repro.openflow.table import pack_header

#: The constraint of a field a match leaves out.
ANY = FieldMatch(0, 0)


class TestFieldMatch:
    def test_exact_matches_only_value(self):
        field = HEADER.field(FieldName.NW_SRC)
        fm = FieldMatch.exact(field, 0x0A000001)
        assert fm.matches(0x0A000001)
        assert not fm.matches(0x0A000002)

    def test_exact_rejects_out_of_range(self):
        field = HEADER.field(FieldName.DL_VLAN)
        with pytest.raises(ValueError):
            FieldMatch.exact(field, 1 << 12)

    def test_prefix_matches_subtree(self):
        field = HEADER.field(FieldName.NW_DST)
        fm = FieldMatch.prefix(field, 0x0A000000, 8)
        assert fm.matches(0x0A123456)
        assert not fm.matches(0x0B000000)

    def test_prefix_zero_len_is_wildcard(self):
        field = HEADER.field(FieldName.NW_DST)
        fm = FieldMatch.prefix(field, 0x0A000000, 0)
        assert fm.is_wildcard()
        assert fm.matches(0xFFFFFFFF)

    def test_prefix_masks_low_bits_of_value(self):
        field = HEADER.field(FieldName.NW_DST)
        fm = FieldMatch.prefix(field, 0x0A0000FF, 24)
        assert fm.value == 0x0A000000

    def test_value_outside_mask_rejected(self):
        with pytest.raises(ValueError):
            FieldMatch(value=0b10, mask=0b01)

    def test_overlap_exact_vs_exact(self):
        field = HEADER.field(FieldName.NW_SRC)
        a = FieldMatch.exact(field, 1)
        b = FieldMatch.exact(field, 1)
        c = FieldMatch.exact(field, 2)
        assert fields_overlap(a, b)
        assert not fields_overlap(a, c)

    def test_overlap_prefix_containment(self):
        field = HEADER.field(FieldName.NW_DST)
        wide = FieldMatch.prefix(field, 0x0A000000, 8)
        narrow = FieldMatch.prefix(field, 0x0A010000, 16)
        other = FieldMatch.prefix(field, 0x0B000000, 8)
        assert fields_overlap(wide, narrow)
        assert fields_overlap(narrow, wide)
        assert not fields_overlap(narrow, other)

    def test_covers(self):
        field = HEADER.field(FieldName.NW_DST)
        wide = FieldMatch.prefix(field, 0x0A000000, 8)
        narrow = FieldMatch.prefix(field, 0x0A010000, 16)
        assert wide.covers(narrow)
        assert not narrow.covers(wide)


class TestMatch:
    def test_wildcard_matches_everything(self):
        match = Match.wildcard()
        assert match.matches({FieldName.NW_SRC: 123})
        assert match.is_wildcard()

    def test_build_exact(self):
        match = Match.build(nw_src=0x0A000001, dl_type=0x0800)
        assert match.matches(
            {FieldName.NW_SRC: 0x0A000001, FieldName.DL_TYPE: 0x0800}
        )
        assert not match.matches(
            {FieldName.NW_SRC: 0x0A000002, FieldName.DL_TYPE: 0x0800}
        )

    def test_build_prefix_tuple(self):
        match = Match.build(nw_dst=(0x0A000000, 24))
        assert match.matches({FieldName.NW_DST: 0x0A0000FE})
        assert not match.matches({FieldName.NW_DST: 0x0A000100})

    def test_missing_fields_default_to_zero(self):
        match = Match.build(in_port=0)
        assert match.matches({})

    def test_equality_and_hash(self):
        a = Match.build(nw_src=1, nw_dst=2)
        b = Match.build(nw_dst=2, nw_src=1)
        assert a == b
        assert hash(a) == hash(b)

    def test_wildcard_fields_dropped_from_identity(self):
        field = HEADER.field(FieldName.NW_SRC)
        explicit = Match({FieldName.NW_SRC: FieldMatch.prefix(field, 0, 0)})
        assert explicit == Match.wildcard()

    def test_overlaps_disjoint_fields_always(self):
        a = Match.build(nw_src=1)
        b = Match.build(nw_dst=2)
        assert overlaps(a, b)

    def test_overlaps_same_field_conflict(self):
        a = Match.build(nw_src=1)
        b = Match.build(nw_src=2)
        assert not overlaps(a, b)

    def test_overlap_is_symmetric(self):
        a = Match.build(nw_src=1, nw_dst=(0x0A000000, 8))
        b = Match.build(nw_dst=(0x0A010000, 16))
        assert overlaps(a, b) == overlaps(b, a)

    def test_covers_requires_all_fields(self):
        wide = Match.build(nw_src=1)
        narrow = Match.build(nw_src=1, nw_dst=2)
        assert wide.covers(narrow)
        assert not narrow.covers(wide)

    def test_wildcard_covers_all(self):
        assert Match.wildcard().covers(Match.build(nw_src=5, tp_dst=80))

    def test_matches_packed_roundtrip(self):
        match = Match.build(nw_src=0x0A000001, tp_dst=80)
        header = pack_header(
            {FieldName.NW_SRC: 0x0A000001, FieldName.TP_DST: 80}
        )
        assert match.matches(HEADER.unpack(header))

    def test_bit_constraints_count(self):
        # A match's bit constraints are the set bits of its packed mask.
        value, mask = Match.build(dl_vlan=3).packed()
        assert mask.bit_count() == 12  # dl_vlan is 12 bits wide
        # Value 3 = 0b000000000011: two set bits.
        assert value.bit_count() == 2

    def test_bit_constraints_prefix_only_covers_prefix(self):
        _, mask = Match.build(nw_dst=(0x0A000000, 8)).packed()
        assert mask.bit_count() == 8

    def test_packed_overlap_agrees_with_fieldwise(self):
        pairs = [
            (Match.build(nw_src=1), Match.build(nw_src=1, nw_dst=2)),
            (Match.build(nw_src=1), Match.build(nw_src=2)),
            (
                Match.build(nw_dst=(0x0A000000, 8)),
                Match.build(nw_dst=(0x0A0B0000, 16)),
            ),
            (Match.wildcard(), Match.build(tp_src=80)),
        ]
        for a, b in pairs:
            fieldwise = all(
                fields_overlap(
                    a.fields.get(name, ANY), b.fields.get(name, ANY)
                )
                for name in set(a.fields) | set(b.fields)
            )
            assert overlaps(a, b) == fieldwise

    def test_repr_readable(self):
        match = Match.build(nw_src=0x0A000001)
        assert "nw_src" in repr(match)
        assert repr(Match.wildcard()) == "Match(*)"
