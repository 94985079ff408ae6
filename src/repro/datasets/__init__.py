"""Synthetic ACL rule tables (the Table 2 workloads).

The paper measures probe-generation time on two real rule sets it could
not publish: the Stanford backbone router "yoza" configuration (2755
rules, from the Header Space Analysis dataset) and ACLs from a large
campus network (10958 rules).  We generate ClassBench-style synthetic
tables with the same sizes and the structural properties probe
generation is sensitive to — prefix-structured overlaps, first-match
priority ordering, a mix of permit/deny actions, and a realistic share
of shadowed or outcome-redundant rules (which is what makes some rules
unmonitorable, §3.5).
"""

from repro.datasets.acl import (
    AclProfile,
    CAMPUS_PROFILE,
    STANFORD_PROFILE,
    campus_table,
    generate_acl_table,
    stanford_table,
)

__all__ = [
    "AclProfile",
    "CAMPUS_PROFILE",
    "STANFORD_PROFILE",
    "campus_table",
    "generate_acl_table",
    "stanford_table",
]
