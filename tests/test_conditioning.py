"""Tests for the control-channel chaos layer: loss overlays and their
stacking, ChannelConditioner draws, conditioned ControlChannel
delivery, and the ChannelDegradation spec that drives them."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet.deployment import FleetDeployment
from repro.fleet.failures import (
    ChannelDegradation,
    FailureSpecError,
    Injection,
    failure_rng,
    inject_now,
)
from repro.network.channel import ControlChannel
from repro.network.conditioning import DIRECTIONS, ChannelConditioner
from repro.openflow.messages import EchoRequest
from repro.sim.kernel import Simulator
from repro.sim.random import DeterministicRandom
from repro.topology.generators import ring


def _msg():
    return EchoRequest()


class TestChannelConditions:
    """The loss a stack of overlays puts on both directions."""

    def test_validate_rejects_bad_probabilities(self):
        for loss in (1.5, -0.1, 0.0):
            spec = ChannelDegradation(at=0.0, node="sw0", loss=loss)
            with pytest.raises(FailureSpecError, match="loss"):
                spec.check()
        ChannelDegradation(at=0.0, node="sw0", loss=1.0).check()

    def test_active(self):
        conditioner = ChannelConditioner(DeterministicRandom(11))
        assert conditioner.active == frozenset()
        conditioner.apply(0.1)
        assert conditioner.active == frozenset(DIRECTIONS)

    def test_combine_stacks_independent_probabilities(self):
        conditioner = ChannelConditioner(DeterministicRandom(11))
        conditioner.apply(0.5)
        conditioner.apply(0.2)
        conditioner.apply(0.1)
        assert conditioner.loss == pytest.approx(1 - 0.5 * 0.8 * 0.9)

    def test_combine_single_overlay_is_identity(self):
        # 1 - (1 - 0.05) is 0.050000000000000044: one overlay's loss is
        # used exactly as given, not pushed through the product.
        assert 1.0 - (1.0 - 0.05) != 0.05
        conditioner = ChannelConditioner(DeterministicRandom(11))
        conditioner.apply(0.05)
        assert conditioner.loss == 0.05
        # ... and so is the one left standing when the others go.
        extra = conditioner.apply(0.3)
        conditioner.remove(extra)
        assert conditioner.loss == 0.05


class TestChannelConditioner:
    def test_idle_conditioner_draws_nothing(self):
        sim = Simulator()
        idle = ChannelConditioner(DeterministicRandom(11))
        channel = ControlChannel(sim, conditioner=idle)
        channel.down_handler = channel.up_handler = lambda msg: None
        for _ in range(50):
            channel.send_down(_msg())
            channel.send_up(_msg())
        sim.run()
        for direction in DIRECTIONS:
            assert not idle.is_active(direction)
            assert idle.stats[direction].conditioned == 0
        # The streams were not advanced: once lossy, the conditioner
        # draws exactly what a fresh one with the same seed draws.
        fresh = ChannelConditioner(DeterministicRandom(11))
        for conditioner in (idle, fresh):
            conditioner.apply(0.5)
        assert [idle.plan("down") for _ in range(40)] == [
            fresh.plan("down") for _ in range(40)
        ]

    def test_apply_remove_restores_idle(self):
        conditioner = ChannelConditioner(DeterministicRandom(11))
        token = conditioner.apply(0.5)
        assert conditioner.is_active("down")
        assert conditioner.is_active("up")
        conditioner.remove(token)
        assert not conditioner.is_active("down")
        assert not conditioner.is_active("up")
        assert conditioner.loss == 0.0
        # Idempotent: a second remove of the same token is a no-op.
        conditioner.remove(token)

    def test_overlays_stack_and_unstack(self):
        conditioner = ChannelConditioner(DeterministicRandom(11))
        first = conditioner.apply(0.5)
        second = conditioner.apply(0.5)
        assert conditioner.loss == pytest.approx(0.75)
        conditioner.remove(first)
        assert conditioner.loss == 0.5
        conditioner.remove(second)
        assert not conditioner.active

    def test_plan_is_seed_deterministic(self):
        plans = []
        for _ in range(2):
            conditioner = ChannelConditioner(DeterministicRandom(42))
            conditioner.apply(0.3)
            plans.append([conditioner.plan("down") for _ in range(200)])
        assert plans[0] == plans[1]
        assert 0 < plans[0].count(False) < 200

    def test_directions_draw_from_independent_streams(self):
        # Draining one direction's stream must not perturb the other:
        # two conditioners, one of which plans 100 extra "down"
        # messages, still agree on the "up" sequence.
        one = ChannelConditioner(DeterministicRandom(42))
        two = ChannelConditioner(DeterministicRandom(42))
        for conditioner in (one, two):
            conditioner.apply(0.5)
        for _ in range(100):
            one.plan("down")
        ups_one = [one.plan("up") for _ in range(50)]
        ups_two = [two.plan("up") for _ in range(50)]
        assert ups_one == ups_two

    def test_certain_loss_drops_everything(self):
        conditioner = ChannelConditioner(DeterministicRandom(5))
        conditioner.apply(1.0)
        for _ in range(20):
            assert conditioner.plan("up") is False
        assert conditioner.stats["up"].dropped == 20
        assert conditioner.stats["down"].conditioned == 0

    def test_stats_summary_shape(self):
        conditioner = ChannelConditioner(DeterministicRandom(5))
        summary = conditioner.stats_summary()
        assert set(summary) == set(DIRECTIONS)
        assert summary["down"] == {"conditioned": 0, "dropped": 0}


class TestConditionedChannel:
    def _channel(self, seed=9):
        sim = Simulator()
        conditioner = ChannelConditioner(DeterministicRandom(seed))
        channel = ControlChannel(
            sim, latency=0.001, conditioner=conditioner
        )
        return sim, conditioner, channel

    def test_removed_overlay_restores_clean_delivery(self):
        sim, conditioner, channel = self._channel()
        got = []
        channel.down_handler = got.append
        token = conditioner.apply(1.0)
        channel.send_down(_msg())
        conditioner.remove(token)
        channel.send_down(_msg())
        sim.run()
        assert len(got) == 1
        # Post-removal sends never touch the rng.
        assert conditioner.stats["down"].conditioned == 1

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**16),
        st.lists(
            st.one_of(
                st.tuples(st.just("send"), st.sampled_from(DIRECTIONS)),
                st.tuples(
                    st.just("apply"),
                    st.one_of(
                        st.sampled_from((0.05, 0.5, 1.0)),
                        st.floats(0.001, 1.0),
                    ),
                ),
                st.tuples(st.just("remove"), st.integers(0, 7)),
                st.tuples(st.just("wait"), st.floats(0.0, 0.003)),
            ),
            max_size=60,
        ),
    )
    def test_each_direction_delivers_a_subsequence_in_send_order(
        self, seed, script
    ):
        sim, conditioner, channel = self._channel(seed)
        sent = {direction: [] for direction in DIRECTIONS}
        got = {direction: [] for direction in DIRECTIONS}
        channel.down_handler = got["down"].append
        channel.up_handler = got["up"].append
        send = {"down": channel.send_down, "up": channel.send_up}
        tokens = []
        for op, arg in script:
            if op == "send":
                msg = _msg()
                sent[arg].append(msg)
                send[arg](msg)
            elif op == "apply":
                tokens.append(conditioner.apply(arg))
            elif op == "remove" and tokens:
                conditioner.remove(tokens.pop(arg % len(tokens)))
            elif op == "wait":
                sim.run_for(arg)
        sim.run()
        for direction in DIRECTIONS:
            # Delivered at most once each, in the order sent.
            position = {id(msg): i for i, msg in enumerate(sent[direction])}
            order = [position[id(msg)] for msg in got[direction]]
            assert order == sorted(set(order))
            dropped = conditioner.stats[direction].dropped
            assert len(got[direction]) == len(sent[direction]) - dropped


def _deployment(seed=3):
    return FleetDeployment(ring(4), dynamic=False, seed=seed)


class TestChaosFailureSpecs:
    def test_channel_degradation_overlays_and_expires(self):
        deployment = _deployment()
        spec = ChannelDegradation(at=0.0, node="sw0", loss=0.5, duration=0.2)
        record = Injection(kind=spec.kind, time=0.0)
        inject_now(deployment, spec, record, rng=failure_rng(deployment, 0))
        conditioner = deployment.network.conditioner("sw0")
        assert record.error is None
        assert record.chaos
        assert conditioner.is_active("up")
        assert conditioner.is_active("down")
        deployment.run(0.3)
        assert not conditioner.is_active("up")
        assert not conditioner.is_active("down")

    def test_control_plane_flap_blacks_out_both_directions(self):
        # loss=1.0 with a duration is a flap: every message either way
        # vanishes while it lasts, then the channel heals.
        deployment = _deployment()
        spec = ChannelDegradation(at=0.0, node="sw1", loss=1.0, duration=0.1)
        record = Injection(kind=spec.kind, time=0.0)
        inject_now(deployment, spec, record, rng=failure_rng(deployment, 0))
        assert record.error is None
        conditioner = deployment.network.conditioner("sw1")
        assert conditioner.loss == 1.0
        for direction in DIRECTIONS:
            assert conditioner.plan(direction) is False
        deployment.run(0.2)
        assert not conditioner.is_active("down")
        assert not conditioner.is_active("up")

    def test_degradation_with_all_knobs_zero_is_an_error(self):
        deployment = _deployment()
        spec = ChannelDegradation(at=0.0, node="sw0")
        record = Injection(kind=spec.kind, time=0.0)
        inject_now(deployment, spec, record, rng=failure_rng(deployment, 0))
        assert record.error is not None

    @pytest.mark.parametrize(
        "fields", [dict(loss=1.5), dict(loss=0.5, duration=-0.1)]
    )
    def test_malformed_degradation_is_recorded_not_raised(self, fields):
        deployment = _deployment()
        spec = ChannelDegradation(at=0.0, node="sw0", **fields)
        record = Injection(kind=spec.kind, time=0.0)
        inject_now(deployment, spec, record, rng=failure_rng(deployment, 0))
        assert record.error is not None
        assert not deployment.network.conditioner("sw0").active

    def test_degradation_of_unknown_node_is_an_error(self):
        deployment = _deployment()
        spec = ChannelDegradation(at=0.0, node="nope", loss=0.5)
        with pytest.raises(FailureSpecError):
            spec.inject(
                deployment,
                Injection(kind=spec.kind, time=0.0),
                failure_rng(deployment, 0),
            )

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
