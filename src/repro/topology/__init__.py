"""Topology generators and corpora.

* :mod:`repro.topology.generators` — the concrete experiment topologies:
  the §8.1.1 star, the §8.1.2 triangle, the §8.4 k=4 FatTree (20
  switches), plus linear/ring utilities.
* :mod:`repro.topology.corpus` — a synthetic stand-in for the Internet
  Topology Zoo (261 graphs) used by Figure 9, with matched size and
  degree characteristics.
"""

from repro.topology.generators import fat_tree, linear, ring, star, triangle
from repro.topology.corpus import topology_zoo_like_corpus

__all__ = [
    "fat_tree",
    "linear",
    "ring",
    "star",
    "triangle",
    "topology_zoo_like_corpus",
]
