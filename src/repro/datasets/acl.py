"""ClassBench-style ACL table generation.

ACLs are first-match rule lists; we map list position to OpenFlow
priority (earlier = higher).  A generated rule matches on a destination
prefix, optionally a source prefix, optionally a protocol, and
optionally a destination port (only with TCP/UDP, keeping rules
well-formed per §5.2); the action is a forward to one of a few ports or
a drop.

Two structural knobs control how many rules end up unmonitorable:

* ``shadow_fraction`` — rules generated strictly inside an earlier
  (higher-priority) rule's match: completely hidden, never probe-able.
* ``redundant_fraction`` — rules whose outcome equals that of the rule
  that would match their traffic anyway: nothing distinguishes them.

The Stanford profile uses more aggressive nesting (a backbone router
mixing forwarding prefixes and ACL entries), the Campus profile is a
flatter permit/deny list — yielding "probes found" ratios in the same
band as the paper's Table 2 (~89% and ~97%).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.openflow.actions import ActionList, Drop, output
from repro.openflow.fields import IPPROTO_TCP, IPPROTO_UDP
from repro.openflow.match import Match
from repro.openflow.rule import Rule
from repro.openflow.table import FlowTable
from repro.sim.random import DeterministicRandom


@dataclass(frozen=True)
class AclProfile:
    """Structural parameters of one synthetic ACL family."""

    name: str
    num_rules: int
    #: Number of distinct /8 networks destinations are drawn from.
    dst_universes: int
    #: Probability a rule constrains the source prefix.
    p_src: float
    #: Probability a rule constrains the IP protocol.
    p_proto: float
    #: Probability a (TCP/UDP) rule constrains the destination port.
    p_port: float
    #: Probability the action is a drop (deny).
    p_drop: float
    #: Fraction of rules nested strictly inside an earlier rule.
    shadow_fraction: float
    #: Fraction of rules duplicating the underlying outcome.
    redundant_fraction: float
    #: Output ports forwarding rules choose from.
    num_ports: int
    #: Whether the table ends with a default (lowest-priority) rule and
    #: whether it drops (deny-all) or forwards.
    default_drop: bool


STANFORD_PROFILE = AclProfile(
    name="Stanford",
    num_rules=2755,
    dst_universes=12,
    p_src=0.35,
    p_proto=0.45,
    p_port=0.55,
    p_drop=0.25,
    shadow_fraction=0.05,
    redundant_fraction=0.04,
    num_ports=8,
    default_drop=False,
)

CAMPUS_PROFILE = AclProfile(
    name="Campus",
    num_rules=10958,
    dst_universes=24,
    p_src=0.55,
    p_proto=0.60,
    p_port=0.60,
    p_drop=0.05,
    shadow_fraction=0.012,
    redundant_fraction=0.012,
    num_ports=4,
    default_drop=True,
)

_COMMON_PORTS = (22, 25, 53, 80, 110, 123, 143, 443, 993, 3306, 5432, 8080)


def _random_prefix(
    rng: DeterministicRandom,
    universe: int,
    min_len: int = 16,
    max_len: int = 32,
) -> tuple[int, int]:
    """A (value, prefix_len) destination prefix inside ``universe``/8."""
    prefix_len = rng.randint(min_len, max_len)
    value = (universe << 24) | rng.getrandbits(24)
    mask = ((1 << prefix_len) - 1) << (32 - prefix_len)
    return value & mask, prefix_len


def _narrow_inside(
    rng: DeterministicRandom, value: int, prefix_len: int
) -> tuple[int, int]:
    """A strictly longer prefix inside the given one."""
    new_len = rng.randint(min(prefix_len + 1, 32), 32)
    extra_bits = new_len - prefix_len
    suffix = rng.getrandbits(extra_bits) << (32 - new_len) if extra_bits else 0
    mask = ((1 << new_len) - 1) << (32 - new_len)
    return (value | suffix) & mask, new_len


def _rule_match(rng: DeterministicRandom, profile: AclProfile) -> Match:
    universe = 10 + rng.randint(0, profile.dst_universes - 1)
    dst_value, dst_len = _random_prefix(rng, universe)
    kwargs: dict = {"dl_type": 0x0800, "nw_dst": (dst_value, dst_len)}
    if rng.random() < profile.p_src:
        src_universe = 10 + rng.randint(0, profile.dst_universes - 1)
        src_value, src_len = _random_prefix(rng, src_universe, min_len=8)
        kwargs["nw_src"] = (src_value, src_len)
    if rng.random() < profile.p_proto:
        proto = IPPROTO_TCP if rng.random() < 0.7 else IPPROTO_UDP
        kwargs["nw_proto"] = proto
        if rng.random() < profile.p_port:
            kwargs["tp_dst"] = rng.choose(_COMMON_PORTS)
    return Match.build(**kwargs)


def _rule_actions(rng: DeterministicRandom, profile: AclProfile) -> ActionList:
    if rng.random() < profile.p_drop:
        return ActionList((Drop(),))
    return output(1 + rng.randint(0, profile.num_ports - 1))


def generate_acl_table(
    profile: AclProfile, seed: int = 0
) -> FlowTable:
    """Generate a synthetic ACL flow table for ``profile``.

    Priorities descend from ``num_rules`` down to 1, with an optional
    default rule at priority 0.
    """
    rng = DeterministicRandom(seed)
    #: (match, actions) in first-match order; priorities assigned below.
    specs: list[tuple[Match, ActionList]] = []

    shadow_count = int(profile.num_rules * profile.shadow_fraction)
    # Each redundant rule is a (specific, covering) pair: two slots.
    redundant_count = int(profile.num_rules * profile.redundant_fraction)
    base_count = max(
        1, profile.num_rules - 1 - shadow_count - 2 * redundant_count
    )

    for _ in range(base_count):
        specs.append((_rule_match(rng, profile), _rule_actions(rng, profile)))

    # Shadowed rules: strictly inside an earlier rule, lower priority.
    for _ in range(shadow_count):
        parent_match, _parent_actions = rng.choose(specs)
        specs.append(
            (_shrink_match(rng, parent_match), _rule_actions(rng, profile))
        )

    # Redundant rules: the specific rule sits above a covering rule with
    # the same outcome, so removing the specific rule is unobservable.
    trailing: list[tuple[Match, ActionList]] = []
    for _ in range(redundant_count):
        covering = _rule_match(rng, profile)
        actions = _rule_actions(rng, profile)
        specs.append((_shrink_match(rng, covering), actions))
        trailing.append((covering, actions))
    specs.extend(trailing)

    specs = specs[: profile.num_rules - 1]

    # Default rule at the bottom.
    if profile.default_drop:
        default_actions: ActionList = ActionList((Drop(),))
    else:
        default_actions = output(1)
    table = FlowTable(check_overlap=False)
    for index, (match, actions) in enumerate(specs):
        table.install(
            Rule(priority=len(specs) - index, match=match, actions=actions)
        )
    table.install(
        Rule(
            priority=0,
            match=Match.build(dl_type=0x0800),
            actions=default_actions,
        )
    )
    return table


def _shrink_match(rng: DeterministicRandom, match: Match) -> Match:
    """A match strictly contained in ``match`` (narrower dst prefix)."""
    from repro.openflow.fields import FieldName
    from repro.openflow.match import FieldMatch

    fields = dict(match.fields)
    dst = fields.get(FieldName.NW_DST)
    if dst is not None:
        prefix_len = bin(dst.mask).count("1")
        base = dst.value
    else:
        prefix_len = 8
        base = 0x0A000000
    value, new_len = _narrow_inside(rng, base, prefix_len)
    field = None
    from repro.openflow.fields import HEADER

    field = HEADER.field(FieldName.NW_DST)
    fields[FieldName.NW_DST] = FieldMatch.prefix(field, value, new_len)
    return Match(fields)


def stanford_table(seed: int = 11) -> FlowTable:
    """The Stanford-like table (2755 rules)."""
    return generate_acl_table(STANFORD_PROFILE, seed=seed)


def campus_table(seed: int = 21) -> FlowTable:
    """The Campus-like table (10958 rules)."""
    return generate_acl_table(CAMPUS_PROFILE, seed=seed)
