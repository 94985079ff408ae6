"""Packet crafting and parsing.

This is the library that turns the *abstract* probe header produced by the
SAT stage into a real, wire-valid packet (paper §5.2), and parses caught
probes back into abstract headers.  A header is one int throughout,
packed in :meth:`~repro.openflow.match.Match.packed`'s layout: the codec
reads and writes it field by field with shifts, and there is no dict
form beside it.

* :mod:`repro.packets.checksum` — the Internet checksum as arithmetic
  mod 0xFFFF (``sum16``), so a codec can add it up from integers.
* :mod:`repro.packets.craft` — the §5.2 normalization steps
  (limited-domain spare-value substitution, elimination of
  conditionally-excluded fields), then packed header -> raw bytes in
  one pass (``craft_packet``): one precompiled ``struct`` per fixed
  header, each packed once with its checksum in place; and
  ``wire_header``, the packed header a craft -> parse round trip
  returns, for a switch to apply after a rewrite.
* :mod:`repro.packets.parse` — raw bytes -> packed header in one pass
  (``parse_packet``), every length field checked against the bytes.
* :mod:`repro.packets.payload` — probe metadata carried in the packet
  payload (§4.2: which rule is under test, expected outcome), untouched
  by switches.
* :mod:`repro.packets.ipv4` — dotted-quad text for ``nw_src``/``nw_dst``.

The layered codec this replaced (a header object and an encode/decode
pair per protocol, on header dicts) is the test oracle,
``tests/packet_reference.py``, with the dict ``wire_header``:
``tests/test_packets.py`` holds the one-pass codec to it byte for byte.
"""

from repro.packets.craft import (
    CraftError,
    craft_packet,
    normalize_abstract_header,
)
from repro.packets.parse import ParseError, parse_packet
from repro.packets.payload import ProbeMetadata

__all__ = [
    "CraftError",
    "craft_packet",
    "normalize_abstract_header",
    "ParseError",
    "parse_packet",
    "ProbeMetadata",
]
