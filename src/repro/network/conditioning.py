"""Seed-deterministic control-channel loss (the chaos layer).

A :class:`ChannelConditioner` sits inside a
:class:`~repro.network.channel.ControlChannel` and drops messages.
Loss is the only perturbation: the channel models the OpenFlow TCP
connection Monocle proxies (§7), which delivers what it delivers in
order and exactly once, so what a conditioned channel does not drop
arrives as it would have unconditioned.  Every decision is drawn from
a per-direction :class:`~repro.sim.random.DeterministicRandom` stream
forked from the network seed, so a degraded run is a pure function of
its spec + seed — what lets the lossy-channel tests
(``tests/test_hysteresis.py``) assert exact outcomes.

Overlays stack: failure specs push a loss probability onto both
directions and remove it when the degradation window closes.  One
overlay's loss is used exactly as given; several are independent
events and combine as ``1 - prod(1 - p_i)``.

When no overlay is active the conditioner is never called and draws
**nothing** from its streams — an unconditioned run is byte-identical
to one built without a conditioner at all.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.random import DeterministicRandom

#: The two control-channel directions (controller->switch, switch->
#: controller).
DIRECTIONS = ("down", "up")


@dataclass
class ConditionerStats:
    """Per-direction delivery counters."""

    conditioned: int = 0
    dropped: int = 0


class ChannelConditioner:
    """Per-channel, per-direction message loss.

    Args:
        rng: the conditioner's base stream; one independent stream is
            forked per direction so down-path chaos never perturbs
            up-path draws (and vice versa).
    """

    def __init__(self, rng: DeterministicRandom) -> None:
        self._rngs: dict[str, DeterministicRandom] = {
            direction: rng.fork(index)
            for index, direction in enumerate(DIRECTIONS)
        }
        #: Overlays in force, in the order applied: token -> loss.
        self._overlays: dict[int, float] = {}
        #: The stacked loss probability, the same in both directions.
        self.loss = 0.0
        #: Directions with a lossy overlay in force: the channel calls
        #: :meth:`plan` for these only, an idle one costs nothing.
        self.active: frozenset[str] = frozenset()
        self._next_token = 0
        self.stats: dict[str, ConditionerStats] = {
            direction: ConditionerStats() for direction in DIRECTIONS
        }

    # ----- overlay management ---------------------------------------------

    def apply(self, loss: float) -> int:
        """Push a loss overlay on both directions; returns a token for
        :meth:`remove`."""
        token = self._next_token
        self._next_token += 1
        self._overlays[token] = loss
        self._recompute()
        return token

    def remove(self, token: int) -> None:
        """Pop the overlay identified by ``token`` (idempotent)."""
        if self._overlays.pop(token, None) is not None:
            self._recompute()

    def is_active(self, direction: str) -> bool:
        """True when the direction has a lossy overlay in force."""
        return direction in self.active

    def _recompute(self) -> None:
        overlays = list(self._overlays.values())
        if len(overlays) == 1:
            self.loss = overlays[0]
        else:
            keep = 1.0
            for loss in overlays:
                keep *= 1.0 - loss
            self.loss = 1.0 - keep
        self.active = frozenset(DIRECTIONS) if self.loss else frozenset()

    # ----- the hot path ----------------------------------------------------

    def plan(self, direction: str) -> bool:
        """Draw this message's fate: True to deliver, False to drop.

        Callers must only invoke this for a direction in :attr:`active`
        — an idle conditioner draws nothing, which keeps unconditioned
        runs byte-identical to runs without a conditioner.
        """
        stats = self.stats[direction]
        stats.conditioned += 1
        if self._rngs[direction].random() < self.loss:
            stats.dropped += 1
            return False
        return True

    # ----- reporting -------------------------------------------------------

    def stats_summary(self) -> dict[str, dict[str, int]]:
        """Counters per direction, JSON-friendly."""
        return {
            direction: {
                "conditioned": stats.conditioned,
                "dropped": stats.dropped,
            }
            for direction, stats in self.stats.items()
        }

    def __repr__(self) -> str:
        inner = f"loss={self.loss}" if self.active else "idle"
        return f"ChannelConditioner({inner})"
