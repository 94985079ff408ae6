"""Tests for the control-channel chaos layer: ChannelConditions
stacking, ChannelConditioner draws, conditioned ControlChannel
delivery, and the chaos failure specs that drive them."""

import pytest

from repro.fleet.deployment import FleetDeployment
from repro.fleet.failures import (
    ChannelDegradation,
    ControlPlaneFlap,
    FailureSpecError,
    Injection,
    failure_rng,
    inject_now,
)
from repro.network.channel import ControlChannel
from repro.network.conditioning import (
    DIRECTIONS,
    PERFECT,
    ChannelConditioner,
    ChannelConditions,
)
from repro.openflow.messages import EchoRequest
from repro.sim.kernel import Simulator
from repro.sim.random import DeterministicRandom
from repro.topology.generators import ring


def _msg():
    return EchoRequest()


class TestChannelConditions:
    def test_validate_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            ChannelConditions(loss=1.5).validate()
        with pytest.raises(ValueError):
            ChannelConditions(duplicate=-0.1).validate()

    def test_validate_rejects_negative_delay(self):
        with pytest.raises(ValueError):
            ChannelConditions(delay=-0.001).validate()

    def test_reorder_requires_window(self):
        with pytest.raises(ValueError):
            ChannelConditions(reorder=0.5).validate()
        ChannelConditions(reorder=0.5, reorder_window=0.01).validate()

    def test_active(self):
        assert not PERFECT.active
        assert ChannelConditions(loss=0.1).active
        assert ChannelConditions(delay=0.002).active

    def test_combine_stacks_independent_probabilities(self):
        stacked = ChannelConditions.combine(
            [
                ChannelConditions(loss=0.5, delay=0.01, jitter=0.002),
                ChannelConditions(
                    loss=0.5,
                    delay=0.02,
                    reorder=0.25,
                    reorder_window=0.05,
                ),
            ]
        )
        assert stacked.loss == pytest.approx(0.75)
        assert stacked.delay == pytest.approx(0.03)
        assert stacked.jitter == pytest.approx(0.002)
        assert stacked.reorder == pytest.approx(0.25)
        assert stacked.reorder_window == 0.05

    def test_combine_single_overlay_is_identity(self):
        only = ChannelConditions(loss=0.3)
        assert ChannelConditions.combine([only]) is only


class TestChannelConditioner:
    def test_idle_conditioner_draws_nothing(self):
        conditioner = ChannelConditioner(DeterministicRandom(11))
        for direction in DIRECTIONS:
            assert not conditioner.is_active(direction)
            assert conditioner.stats[direction].conditioned == 0

    def test_apply_remove_restores_idle(self):
        conditioner = ChannelConditioner(DeterministicRandom(11))
        token = conditioner.apply(ChannelConditions(loss=0.5), "both")
        assert conditioner.is_active("down")
        assert conditioner.is_active("up")
        conditioner.remove(token)
        assert not conditioner.is_active("down")
        assert not conditioner.is_active("up")
        # Idempotent: a second remove of the same token is a no-op.
        conditioner.remove(token)

    def test_overlays_stack_and_unstack(self):
        conditioner = ChannelConditioner(DeterministicRandom(11))
        first = conditioner.apply(ChannelConditions(loss=0.5), "down")
        conditioner.apply(ChannelConditions(loss=0.5), "down")
        assert conditioner.effective["down"].loss == pytest.approx(0.75)
        assert not conditioner.is_active("up")
        conditioner.remove(first)
        assert conditioner.effective["down"].loss == pytest.approx(0.5)

    def test_unknown_direction_rejected(self):
        conditioner = ChannelConditioner(DeterministicRandom(11))
        with pytest.raises(ValueError):
            conditioner.apply(ChannelConditions(loss=0.5), "sideways")

    def test_plan_is_seed_deterministic(self):
        conditions = ChannelConditions(
            loss=0.3, jitter=0.002, duplicate=0.2
        )
        plans = []
        for _ in range(2):
            conditioner = ChannelConditioner(DeterministicRandom(42))
            conditioner.apply(conditions, "down")
            plans.append(
                [conditioner.plan("down") for _ in range(200)]
            )
        assert plans[0] == plans[1]

    def test_directions_draw_from_independent_streams(self):
        # Draining one direction's stream must not perturb the other:
        # two conditioners, one of which plans 100 extra "down"
        # messages, still agree on the "up" sequence.
        conditions = ChannelConditions(loss=0.5)
        one = ChannelConditioner(DeterministicRandom(42))
        two = ChannelConditioner(DeterministicRandom(42))
        for conditioner in (one, two):
            conditioner.apply(conditions, "both")
        for _ in range(100):
            one.plan("down")
        ups_one = [one.plan("up") for _ in range(50)]
        ups_two = [two.plan("up") for _ in range(50)]
        assert ups_one == ups_two

    def test_certain_loss_drops_everything(self):
        conditioner = ChannelConditioner(DeterministicRandom(5))
        conditioner.apply(ChannelConditions(loss=1.0), "up")
        for _ in range(20):
            assert conditioner.plan("up") == []
        assert conditioner.stats["up"].dropped == 20

    def test_certain_duplicate_delivers_two_copies(self):
        conditioner = ChannelConditioner(DeterministicRandom(5))
        conditioner.apply(ChannelConditions(duplicate=1.0), "down")
        for _ in range(20):
            assert len(conditioner.plan("down")) == 2
        assert conditioner.stats["down"].duplicated == 20

    def test_delay_and_jitter_bound_extra_latency(self):
        conditioner = ChannelConditioner(DeterministicRandom(5))
        conditioner.apply(
            ChannelConditions(delay=0.010, jitter=0.005), "down"
        )
        for _ in range(50):
            (extra,) = conditioner.plan("down")
            assert 0.010 <= extra <= 0.015

    def test_stats_summary_shape(self):
        conditioner = ChannelConditioner(DeterministicRandom(5))
        summary = conditioner.stats_summary()
        assert set(summary) == set(DIRECTIONS)
        assert summary["down"]["dropped"] == 0


class TestConditionedChannel:
    def _channel(self, seed=9):
        sim = Simulator()
        conditioner = ChannelConditioner(DeterministicRandom(seed))
        channel = ControlChannel(
            sim, latency=0.001, conditioner=conditioner
        )
        return sim, conditioner, channel

    def test_blackout_drops_down_traffic_only(self):
        sim, conditioner, channel = self._channel()
        down, up = [], []
        channel.down_handler = down.append
        channel.up_handler = up.append
        conditioner.apply(ChannelConditions(loss=1.0), "down")
        for _ in range(5):
            channel.send_down(_msg())
            channel.send_up(_msg())
        sim.run()
        assert down == []
        assert len(up) == 5
        assert conditioner.stats["down"].dropped == 5

    def test_duplicate_doubles_delivery(self):
        sim, conditioner, channel = self._channel()
        got = []
        channel.up_handler = got.append
        conditioner.apply(ChannelConditions(duplicate=1.0), "up")
        channel.send_up(_msg())
        sim.run()
        assert len(got) == 2

    def test_delay_shifts_delivery_time(self):
        sim, conditioner, channel = self._channel()
        times = []
        channel.down_handler = lambda msg: times.append(sim.now)
        conditioner.apply(ChannelConditions(delay=0.050), "down")
        channel.send_down(_msg())
        sim.run()
        assert times == [pytest.approx(0.051)]

    def test_removed_overlay_restores_clean_delivery(self):
        sim, conditioner, channel = self._channel()
        got = []
        channel.down_handler = got.append
        token = conditioner.apply(ChannelConditions(loss=1.0), "down")
        channel.send_down(_msg())
        conditioner.remove(token)
        channel.send_down(_msg())
        sim.run()
        assert len(got) == 1
        # Post-removal sends never touch the rng.
        assert conditioner.stats["down"].conditioned == 1


def _deployment(seed=3):
    return FleetDeployment(ring(4), dynamic=False, seed=seed)


class TestChaosFailureSpecs:
    def test_channel_degradation_overlays_and_expires(self):
        deployment = _deployment()
        spec = ChannelDegradation(
            at=0.0, node="sw0", loss=0.5, duration=0.2, direction="up"
        )
        record = Injection(kind=spec.kind, time=0.0)
        inject_now(deployment, spec, record)
        conditioner = deployment.network.conditioner("sw0")
        assert record.error is None
        assert record.chaos
        assert conditioner.is_active("up")
        assert not conditioner.is_active("down")
        deployment.run(0.3)
        assert not conditioner.is_active("up")

    def test_control_plane_flap_blacks_out_both_directions(self):
        deployment = _deployment()
        spec = ControlPlaneFlap(at=0.0, node="sw1", duration=0.1)
        record = Injection(kind=spec.kind, time=0.0)
        inject_now(deployment, spec, record)
        conditioner = deployment.network.conditioner("sw1")
        assert conditioner.effective["down"].loss == 1.0
        assert conditioner.effective["up"].loss == 1.0
        deployment.run(0.2)
        assert not conditioner.is_active("down")
        assert not conditioner.is_active("up")

    def test_degradation_with_all_knobs_zero_is_an_error(self):
        deployment = _deployment()
        spec = ChannelDegradation(at=0.0, node="sw0")
        record = Injection(kind=spec.kind, time=0.0)
        inject_now(deployment, spec, record)
        assert record.error is not None

    def test_degradation_of_unknown_node_is_an_error(self):
        deployment = _deployment()
        spec = ChannelDegradation(at=0.0, node="nope", loss=0.5)
        with pytest.raises(FailureSpecError):
            spec.inject(deployment, Injection(kind=spec.kind, time=0.0))

    def test_chaos_injection_never_explains_or_detects(self):
        record = Injection(
            kind="channel_degradation",
            time=0.0,
            nodes={"sw0"},
            chaos=True,
        )

        class Alarm:
            time = 1.0

            class rule:
                cookie = 7

        assert not record.explains("sw0", Alarm)
        assert not record.is_detection("sw0", Alarm)

    def test_failure_rng_is_a_pure_function_of_seed_and_index(self):
        # Draws elsewhere on the fleet stream must not shift a spec's
        # victim stream: fork() derives from the parent's *seed*.
        one = _deployment(seed=12)
        two = _deployment(seed=12)
        two.rng.random()
        two.rng.random()
        draws_one = [failure_rng(one, 4).random() for _ in range(5)]
        draws_two = [failure_rng(two, 4).random() for _ in range(5)]
        assert draws_one == draws_two
        # ...but distinct spec indices get distinct streams.
        assert draws_one != [
            failure_rng(one, 5).random() for _ in range(5)
        ]
