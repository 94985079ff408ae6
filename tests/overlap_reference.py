"""The §5.4 overlap test, written out for the tests to check against.

The table index (:class:`~repro.openflow.tuplespace.TupleSpaceIndex`)
and probe generation answer "which rules overlap this match" without
ever comparing two matches one pair at a time; these are that pairwise
comparison, the brute-force answer their results are held to.
"""

from __future__ import annotations

from repro.openflow.match import FieldMatch, Match


def overlaps(a: Match, b: Match) -> bool:
    """Does some packet match both?  Two matches overlap iff their
    fixed bits agree wherever both masks care."""
    v1, m1 = a.packed()
    v2, m2 = b.packed()
    return not ((v1 ^ v2) & m1 & m2)


def fields_overlap(a: FieldMatch, b: FieldMatch) -> bool:
    """Does some value satisfy both field constraints?"""
    common = a.mask & b.mask
    return (a.value & common) == (b.value & common)
