"""Seed-deterministic control-channel conditioning (the chaos layer).

A :class:`ChannelConditioner` sits inside a
:class:`~repro.network.channel.ControlChannel` and perturbs message
delivery: loss, fixed extra delay, uniform jitter, duplication, and
reordering (an extra delay drawn inside a reorder window, letting a
message overtake its successors).  Every decision is drawn from a
per-direction :class:`~repro.sim.random.DeterministicRandom` stream
forked from the network seed, so a degraded run is a pure function of
its spec + seed — the property all chaos benchmarks gate on.

Conditions stack: failure specs overlay a :class:`ChannelConditions`
per direction and remove it when the degradation window closes.  The
composition of overlays treats losses/duplicates/reorders as
independent events (probabilities combine as ``1 - prod(1 - p_i)``),
delays and jitters add, and reorder windows take the max.

When no overlay is active the conditioner is never called and draws
**nothing** from its streams — an unconditioned run is byte-identical
to one built without a conditioner at all.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.random import DeterministicRandom

#: The two control-channel directions (controller->switch, switch->
#: controller); ``"both"`` fans out to the pair.
DIRECTIONS = ("down", "up")


@dataclass(frozen=True)
class ChannelConditions:
    """One overlay of channel degradation knobs.

    Attributes:
        loss: probability in ``[0, 1]`` that a message is dropped.
        delay: fixed extra one-way delay in seconds.
        jitter: extra uniform delay in ``[0, jitter]`` seconds.
        duplicate: probability that a surviving message is delivered
            twice (the copy draws its own delay/jitter).
        reorder: probability that a surviving message is pushed
            ``uniform(0, reorder_window)`` further into the future,
            letting later messages overtake it.
        reorder_window: span in seconds of the reorder push.
    """

    loss: float = 0.0
    delay: float = 0.0
    jitter: float = 0.0
    duplicate: float = 0.0
    reorder: float = 0.0
    reorder_window: float = 0.0

    def validate(self) -> None:
        for name in ("loss", "duplicate", "reorder"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(
                    f"{name} must be a probability in [0, 1], "
                    f"got {value!r}"
                )
        for name in ("delay", "jitter", "reorder_window"):
            value = getattr(self, name)
            if value < 0.0:
                raise ValueError(
                    f"{name} must be >= 0, got {value!r}"
                )
        if self.reorder > 0.0 and self.reorder_window <= 0.0:
            raise ValueError(
                "reorder > 0 requires a positive reorder_window"
            )

    @property
    def active(self) -> bool:
        """True when any knob perturbs delivery."""
        return self != PERFECT

    @staticmethod
    def combine(
        overlays: "list[ChannelConditions]",
    ) -> "ChannelConditions":
        """Stack overlays into one effective set of conditions."""
        if len(overlays) == 1:
            return overlays[0]
        keep = 1.0
        no_dup = 1.0
        no_reorder = 1.0
        delay = 0.0
        jitter = 0.0
        window = 0.0
        for overlay in overlays:
            keep *= 1.0 - overlay.loss
            no_dup *= 1.0 - overlay.duplicate
            no_reorder *= 1.0 - overlay.reorder
            delay += overlay.delay
            jitter += overlay.jitter
            window = max(window, overlay.reorder_window)
        return ChannelConditions(
            loss=1.0 - keep,
            delay=delay,
            jitter=jitter,
            duplicate=1.0 - no_dup,
            reorder=1.0 - no_reorder,
            reorder_window=window,
        )


#: The identity overlay — combining with it changes nothing.
PERFECT = ChannelConditions()


@dataclass
class ConditionerStats:
    """Per-direction delivery perturbation counters."""

    conditioned: int = 0
    dropped: int = 0
    duplicated: int = 0
    reordered: int = 0


class ChannelConditioner:
    """Per-channel, per-direction delivery perturbation.

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
        self._overlays: dict[str, list[tuple[int, ChannelConditions]]] = {
            direction: [] for direction in DIRECTIONS
        }
        self.effective: dict[str, ChannelConditions] = {
            direction: PERFECT for direction in DIRECTIONS
        }
        #: Directions with a perturbing overlay in force: the channel
        #: calls :meth:`plan` for these only, an idle one costs nothing.
        self.active: frozenset[str] = frozenset()
        self._next_token = 0
        self.stats: dict[str, ConditionerStats] = {
            direction: ConditionerStats() for direction in DIRECTIONS
        }

    # ----- overlay management ---------------------------------------------

    def apply(
        self,
        conditions: ChannelConditions,
        direction: str = "both",
    ) -> int:
        """Push an overlay; returns a token for :meth:`remove`."""
        conditions.validate()
        token = self._next_token
        self._next_token += 1
        for dirn in self._directions(direction):
            self._overlays[dirn].append((token, conditions))
            self._recompute(dirn)
        return token

    def remove(self, token: int) -> None:
        """Pop the overlay identified by ``token`` (idempotent)."""
        for dirn in DIRECTIONS:
            overlays = self._overlays[dirn]
            kept = [entry for entry in overlays if entry[0] != token]
            if len(kept) != len(overlays):
                self._overlays[dirn] = kept
                self._recompute(dirn)

    def is_active(self, direction: str) -> bool:
        """True when the direction has any perturbing overlay."""
        return direction in self.active

    def _directions(self, direction: str) -> tuple[str, ...]:
        if direction == "both":
            return DIRECTIONS
        if direction not in DIRECTIONS:
            raise ValueError(
                f"direction must be one of {DIRECTIONS + ('both',)}, "
                f"got {direction!r}"
            )
        return (direction,)

    def _recompute(self, direction: str) -> None:
        overlays = [entry[1] for entry in self._overlays[direction]]
        self.effective[direction] = (
            ChannelConditions.combine(overlays) if overlays else PERFECT
        )
        self.active = frozenset(
            dirn for dirn in DIRECTIONS if self.effective[dirn].active
        )

    # ----- the hot path ----------------------------------------------------

    def plan(self, direction: str) -> list[float]:
        """Draw this message's fate: one extra delay per delivered copy.

        An empty list means the message is dropped.  ``[0.0]`` is a
        clean single delivery.  Callers must only invoke this for a
        direction in :attr:`active` — an idle conditioner draws
        nothing, which keeps unconditioned runs byte-identical to runs
        without a conditioner.
        """
        conditions = self.effective[direction]
        rng = self._rngs[direction]
        stats = self.stats[direction]
        stats.conditioned += 1
        if conditions.loss and rng.random() < conditions.loss:
            stats.dropped += 1
            return []

        def one_delay() -> float:
            extra = conditions.delay
            if conditions.jitter:
                extra += rng.uniform(0.0, conditions.jitter)
            return extra

        first = one_delay()
        if conditions.reorder and rng.random() < conditions.reorder:
            first += rng.uniform(0.0, conditions.reorder_window)
            stats.reordered += 1
        copies = [first]
        if conditions.duplicate and rng.random() < conditions.duplicate:
            copies.append(one_delay())
            stats.duplicated += 1
        return copies

    # ----- reporting -------------------------------------------------------

    def stats_summary(self) -> dict[str, dict[str, int]]:
        """Counters per direction, JSON-friendly."""
        return {
            direction: {
                "conditioned": stats.conditioned,
                "dropped": stats.dropped,
                "duplicated": stats.duplicated,
                "reordered": stats.reordered,
            }
            for direction, stats in self.stats.items()
        }

    def __repr__(self) -> str:
        parts = []
        for direction in DIRECTIONS:
            if self.is_active(direction):
                parts.append(f"{direction}={self.effective[direction]}")
        inner = ", ".join(parts) if parts else "idle"
        return f"ChannelConditioner({inner})"
