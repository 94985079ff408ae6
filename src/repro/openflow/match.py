"""OpenFlow 1.0 match structures.

A :class:`Match` is a set of per-field ``(value, mask)`` constraints over
the abstract header.  A header bit participates in matching iff the
corresponding mask bit is 1, which uniformly covers:

* exact matches (mask = all ones),
* wildcards (mask = 0, the field is absent from the match),
* CIDR prefixes on ``nw_src``/``nw_dst`` (mask = high ``k`` bits).

Two matches *overlap* iff some packet satisfies both — equivalently, their
fixed bits agree wherever both masks care.  This test powers the paper's
§5.4 optimization (only overlapping rules need to enter the SAT instance);
:class:`~repro.openflow.tuplespace.TupleSpaceIndex` answers it for a
whole table at once, on the packed forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.openflow.fields import HEADER, Field, FieldName


@dataclass(frozen=True)
class FieldMatch:
    """A single field's ``(value, mask)`` constraint.

    ``mask`` selects the bits that must equal the corresponding bits of
    ``value``; bits outside the mask are wildcarded.  ``value`` must be
    zero outside the mask so that equality of two FieldMatches is
    canonical.
    """

    value: int
    mask: int

    def __post_init__(self) -> None:
        if self.value & ~self.mask:
            raise ValueError(
                f"value {self.value:#x} has bits outside mask {self.mask:#x}"
            )

    @classmethod
    def exact(cls, field: Field, value: int) -> "FieldMatch":
        """Match the field exactly."""
        if not field.contains(value):
            raise ValueError(f"{field.name}={value:#x} out of range")
        return cls(value=value, mask=field.max_value)

    @classmethod
    def prefix(cls, field: Field, value: int, prefix_len: int) -> "FieldMatch":
        """Match the top ``prefix_len`` bits (CIDR-style)."""
        if not 0 <= prefix_len <= field.width:
            raise ValueError(f"prefix length {prefix_len} out of range")
        mask = ((1 << prefix_len) - 1) << (field.width - prefix_len)
        return cls(value=value & mask, mask=mask)

    def matches(self, value: int) -> bool:
        """Does a concrete field value satisfy this constraint?"""
        return (value & self.mask) == self.value

    def covers(self, other: "FieldMatch") -> bool:
        """Does every value matching ``other`` also match ``self``?"""
        if self.mask & ~other.mask:
            return False  # self cares about a bit other wildcards
        return (other.value & self.mask) == self.value

    def is_wildcard(self) -> bool:
        """True when the constraint accepts every value."""
        return self.mask == 0


_WILDCARD = FieldMatch(0, 0)  # frozen: one serves every unconstrained field


class Match:
    """A full OpenFlow 1.0 match: per-field constraints over the header.

    Construct with keyword-style field constraints::

        Match.build(nw_src=("10.0.0.0", 24), dl_type=0x0800)

    Integer values mean exact matches; ``(value, prefix_len)`` tuples mean
    prefix matches (only sensible on ``nw_src``/``nw_dst`` but allowed on
    any field); omitted fields are wildcarded.
    """

    __slots__ = ("_fields", "_hash", "_packed")

    def __init__(
        self, fields: Mapping[FieldName, FieldMatch] | None = None
    ) -> None:
        cleaned: dict[FieldName, FieldMatch] = {}
        if fields:
            for name, fm in fields.items():
                if not fm.is_wildcard():
                    cleaned[name] = fm
        self._fields = cleaned
        self._hash = hash(frozenset(self._fields.items()))
        self._packed: tuple[int, int] | None = None

    @classmethod
    def wildcard(cls) -> "Match":
        """The match-everything match."""
        return cls()

    @classmethod
    def build(cls, **kwargs: int | tuple[int, int]) -> "Match":
        """Build a match from keyword field constraints.

        Keyword names are :class:`FieldName` values (e.g. ``nw_src``).
        """
        fields: dict[FieldName, FieldMatch] = {}
        for key, spec in kwargs.items():
            name = FieldName(key)
            field = HEADER.field(name)
            if isinstance(spec, tuple):
                value, prefix_len = spec
                fields[name] = FieldMatch.prefix(field, value, prefix_len)
            else:
                fields[name] = FieldMatch.exact(field, spec)
        return cls(fields)

    @property
    def fields(self) -> Mapping[FieldName, FieldMatch]:
        """Read-only view of the non-wildcard field constraints."""
        return self._fields

    def is_wildcard(self) -> bool:
        """True when every field is wildcarded."""
        return not self._fields

    def matches(self, header_values: Mapping[FieldName, int]) -> bool:
        """Does a concrete header (dict of field values) match?"""
        for name, fm in self._fields.items():
            if not fm.matches(header_values.get(name, 0)):
                return False
        return True

    def packed(self) -> tuple[int, int]:
        """``(value, mask)`` over the whole abstract header as bigints.

        Bit ``i`` of the header maps to bit ``HEADER_BITS-1-i`` of the
        integers.  Enables the one-op overlap test used by the §5.4
        pre-filter on large tables, and is the bridge to the SAT
        encoding: ``Matches(P, R)`` is "``P`` agrees with ``value``
        wherever ``mask`` is set" (paper Table 3).
        """
        if self._packed is None:
            value = 0
            mask = 0
            for name, fm in self._fields.items():
                shift = HEADER.spans[name][0]
                value |= fm.value << shift
                mask |= fm.mask << shift
            self._packed = (value, mask)
        return self._packed

    def covers(self, other: "Match") -> bool:
        """Does every packet matching ``other`` also match ``self``?"""
        for name, fm in self._fields.items():
            other_fm = other._fields.get(name, _WILDCARD)
            if not fm.covers(other_fm):
                return False
        return True

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Match):
            return NotImplemented
        return self._fields == other._fields

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if not self._fields:
            return "Match(*)"
        parts = []
        for field in HEADER:
            fm = self._fields.get(field.name)
            if fm is None:
                continue
            if fm.mask == field.max_value:
                parts.append(f"{field.name}={fm.value:#x}")
            else:
                parts.append(f"{field.name}={fm.value:#x}/{fm.mask:#x}")
        return f"Match({', '.join(parts)})"
