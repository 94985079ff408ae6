"""Property-based tests for match semantics (hypothesis).

The key invariants the probe generator's correctness rests on:

* ``overlaps`` (the pairwise reference) is symmetric and consistent
  with its definition (some concrete header satisfies both),
* ``covers`` implies every matching header of the covered also
  matches the coverer,
* the packed bigint overlap test equals the field-wise test,
* the packed ``(value, mask)`` exactly characterizes ``matches``.
"""

from hypothesis import given, settings, strategies as st

from overlap_reference import overlaps
from repro.openflow.fields import HEADER, FieldName
from repro.openflow.match import FieldMatch, Match
from repro.openflow.table import pack_header

# A compact universe so exhaustive cross-checks stay cheap.
FIELDS = [
    FieldName.NW_SRC, FieldName.NW_DST, FieldName.NW_TOS, FieldName.TP_DST
]


@st.composite
def field_match(draw, name):
    field = HEADER.field(name)
    kind = draw(st.sampled_from(["exact", "prefix", "wildcard"]))
    if kind == "wildcard":
        return None
    if kind == "exact":
        return FieldMatch.exact(
            field, draw(st.integers(0, min(field.max_value, 7)))
        )
    prefix_len = draw(st.integers(1, min(field.width, 6)))
    value = draw(st.integers(0, min(field.max_value, 63))) << (
        field.width - min(field.width, 6)
    )
    return FieldMatch.prefix(field, value, prefix_len)


@st.composite
def match_strategy(draw):
    fields = {}
    for name in FIELDS:
        fm = draw(field_match(name))
        if fm is not None:
            fields[name] = fm
    return Match(fields)


@st.composite
def header_strategy(draw):
    return {
        name: draw(st.integers(0, min(HEADER.field(name).max_value, 255)))
        << max(0, HEADER.field(name).width - 8)
        for name in FIELDS
    }


@settings(max_examples=200, deadline=None)
@given(match_strategy(), match_strategy())
def test_overlap_symmetric(a, b):
    assert overlaps(a, b) == overlaps(b, a)


@settings(max_examples=200, deadline=None)
@given(match_strategy(), header_strategy())
def test_bit_constraints_characterize_matches(match, header):
    """A header matches iff every fixed bit (the packed mask's) agrees
    with the packed value."""
    value, mask = match.packed()
    bits_agree = not (pack_header(header) ^ value) & mask
    assert match.matches(header) == bits_agree


@settings(max_examples=200, deadline=None)
@given(match_strategy(), match_strategy(), header_strategy())
def test_covers_implication(a, b, header):
    """If a covers b, every b-matching header matches a."""
    if a.covers(b) and b.matches(header):
        assert a.matches(header)


@settings(max_examples=200, deadline=None)
@given(match_strategy(), match_strategy(), header_strategy())
def test_common_header_implies_overlap(a, b, header):
    """A shared concrete header witnesses overlap."""
    if a.matches(header) and b.matches(header):
        assert overlaps(a, b)


@settings(max_examples=200, deadline=None)
@given(match_strategy())
def test_self_overlap_and_cover(match):
    assert overlaps(match, match)
    assert match.covers(match)
    assert Match.wildcard().covers(match)
    assert overlaps(match, Match.wildcard())


