"""The fleet runtime: spec validation, determinism, end-to-end detection."""

import re
from dataclasses import fields

import pytest

from repro.core.monitor import MonitorConfig
from repro.fleet import (
    AclTables,
    BackgroundTraffic,
    ChannelDegradation,
    FlowModBlackhole,
    LinkFailure,
    PrioritySwap,
    RuleChurn,
    RuleCorruption,
    RuleDrop,
    ScenarioError,
    ScenarioSpec,
    run_scenario,
)
from repro.fleet.deployment import FleetDeployment
from repro.fleet.report import format_fleet_report
from repro.topology.generators import ring


class TestScenarioSpecValidation:
    def test_default_spec_is_valid(self):
        ScenarioSpec().validate()

    def test_unknown_topology(self):
        with pytest.raises(ScenarioError, match="topology"):
            ScenarioSpec(topology="torus").validate()

    def test_unknown_profile(self):
        with pytest.raises(ScenarioError, match="profile"):
            ScenarioSpec(profile="cisco").validate()

    def test_unknown_algorithm(self):
        with pytest.raises(ScenarioError, match="algorithm"):
            ScenarioSpec(algorithm="quantum").validate()

    def test_bad_strategy(self):
        with pytest.raises(ScenarioError, match="strategy"):
            ScenarioSpec(strategy=3).validate()

    def test_nonpositive_duration(self):
        with pytest.raises(ScenarioError, match="duration"):
            ScenarioSpec(duration=0.0).validate()

    def test_negative_rules(self):
        with pytest.raises(ScenarioError, match="rules_per_switch"):
            ScenarioSpec(rules_per_switch=-1).validate()

    def test_unbuildable_topology_size(self):
        with pytest.raises(ScenarioError):
            ScenarioSpec(topology="ring", size=2).validate()

    def test_failure_after_scenario_end(self):
        spec = ScenarioSpec(
            duration=1.0, failures=(RuleDrop(at=2.0, node="sw0"),)
        )
        with pytest.raises(ScenarioError, match="outside"):
            spec.validate()

    def test_failure_missing_node(self):
        # The None defaults on failure specs exist only for dataclass
        # inheritance; a spec without its switch must not validate.
        spec = ScenarioSpec(failures=(RuleDrop(at=0.5),))
        with pytest.raises(ScenarioError, match="missing"):
            spec.validate()

    def test_failure_on_unknown_switch(self):
        spec = ScenarioSpec(
            topology="ring",
            size=4,
            failures=(RuleDrop(at=0.5, node="sw99"),),
        )
        with pytest.raises(ScenarioError, match="unknown switch"):
            spec.validate()

    def test_link_failure_endpoints_checked(self):
        spec = ScenarioSpec(
            topology="ring",
            size=4,
            failures=(LinkFailure(at=0.5, u="sw0", v="nope"),),
        )
        with pytest.raises(ScenarioError, match="unknown switch"):
            spec.validate()

    @pytest.mark.parametrize(
        "fields, match",
        [
            (
                dict(
                    failures=(
                        ChannelDegradation(at=0.1, node="sw0", loss=1.5),
                    )
                ),
                "loss",
            ),
            (
                dict(
                    failures=(
                        ChannelDegradation(
                            at=0.1, node="sw0", loss=0.5, duration=-0.1
                        ),
                    )
                ),
                "duration",
            ),
            (dict(workloads=(RuleChurn(rate=0.0),)), "churn rate"),
        ],
        ids=["loss", "duration", "churn_rate"],
    )
    def test_malformed_chaos_or_churn_is_refused_before_the_run(
        self, fields, match
    ):
        spec = ScenarioSpec(
            topology="ring", size=4, duration=0.5, rules_per_switch=2,
            **fields,
        )
        with pytest.raises(ScenarioError, match=match):
            run_scenario(spec)


def _ring4_spec(**overrides):
    defaults = dict(
        topology="ring",
        size=4,
        duration=1.5,
        seed=11,
        rules_per_switch=8,
        dynamic=False,
        failures=(RuleDrop(at=0.4, node="sw1", rule_index=3),),
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


class TestDeterminism:
    def test_same_seed_same_alarm_timeline(self):
        spec = _ring4_spec(
            dynamic=True,
            workloads=(RuleChurn(rate=25.0),),
            failures=(
                RuleDrop(at=0.4, node="sw1", rule_index=None),
                RuleCorruption(at=0.7, node="sw3", rule_index=None),
            ),
        )
        first = run_scenario(spec)
        # Workload state (churn records, RNG stream) resets per run, so
        # the very same spec object must reproduce the same scenario.
        second = run_scenario(spec)
        assert first.metrics.alarm_timeline == second.metrics.alarm_timeline
        assert first.metrics.alarm_timeline  # non-vacuous
        assert [d.latency for d in first.metrics.detections] == [
            d.latency for d in second.metrics.detections
        ]

    def test_different_seed_different_churn_schedule(self):
        # The Poisson churn arrivals are drawn from the deployment's
        # seeded RNG: a different seed must produce a different stream.
        churn_a = RuleChurn(rate=40.0)
        run_scenario(
            _ring4_spec(
                seed=11, dynamic=True, failures=(), workloads=(churn_a,)
            )
        )
        churn_b = RuleChurn(rate=40.0)
        run_scenario(
            _ring4_spec(
                seed=12, dynamic=True, failures=(), workloads=(churn_b,)
            )
        )
        assert [r.sent_at for r in churn_a.records] != [
            r.sent_at for r in churn_b.records
        ]


class TestRingIntegration:
    def test_single_rule_drop_detected_once_within_timeout(self):
        spec = _ring4_spec()
        result = run_scenario(spec)
        metrics = result.metrics

        (detection,) = metrics.detections
        assert detection.detected
        assert detection.detected_on == "sw1"
        assert detection.alarm_kind == "missing"
        # One cycle (8 rules / 500 per s) + probe timeout + slack.
        cycle = spec.rules_per_switch / spec.probe_rate
        assert detection.latency < cycle + 2 * spec.probe_timeout

        # Exactly one detection record, and no alarms anywhere else.
        assert not metrics.false_alarms
        for sw in metrics.per_switch:
            if sw.node != "sw1":
                assert sw.alarms == 0

    @pytest.mark.parametrize("seed", [2015, 2020])
    def test_static_churn_does_not_alarm_on_its_own_churn(self, seed):
        """``repro-fleet --no-dynamic --churn 40 --drops 1``: with no
        update confirmation, the cycle still reaches every churned rule
        in its turn; none of those probes alarms on a rule that did what
        it was told, and the drop is detected."""
        result = run_scenario(
            ScenarioSpec(
                topology="ring",
                size=6,
                duration=2.0,
                seed=seed,
                rules_per_switch=12,
                dynamic=False,
                workloads=(RuleChurn(rate=40.0),),
                failures=(RuleDrop(at=0.5, node="sw0", rule_index=0),),
            )
        )
        assert result.metrics.false_alarms == []
        assert result.metrics.all_detected

    def test_healthy_fleet_raises_no_alarms(self):
        result = run_scenario(_ring4_spec(failures=()))
        assert not result.metrics.detections
        assert not result.metrics.false_alarms
        assert result.metrics.alarm_timeline == []
        assert result.metrics.probes_confirmed > 0

    def test_churn_drives_the_incremental_engine(self):
        """Fleet churn must exercise the delta API end-to-end: rules
        added/removed through the context, only the probes they break
        regenerated, and the steady-state cycle served from cache."""
        churn = RuleChurn(rate=60.0)
        result = run_scenario(
            _ring4_spec(
                dynamic=True, duration=2.0, failures=(), workloads=(churn,)
            )
        )
        stats = result.deployment.probegen_stats()
        assert len(churn.records) > 10
        # Churn FlowMods flowed through ProbeGenContext.apply_flowmod.
        assert stats.rules_added > 0
        assert stats.invalidations > 0
        # New/changed rules forced real generations...
        assert stats.probes_generated > 0
        # ...while the steady-state cycle re-used cached probes.
        assert stats.cache_hits > stats.probes_generated
        # And the fleet metrics surface the same counters per switch.
        assert result.metrics.probes_generated == stats.probes_generated
        assert result.metrics.probe_cache_hits == stats.cache_hits

    def test_flowmod_blackhole_detected(self):
        spec = _ring4_spec(
            dynamic=True,
            duration=3.0,
            update_deadline=0.5,
            failures=(FlowModBlackhole(at=0.3, node="sw2"),),
        )
        result = run_scenario(spec)
        (detection,) = result.metrics.detections
        assert detection.detected
        assert detection.detected_on == "sw2"
        # The switch accepted but never applied the rule: the dynamic
        # monitor gives up on the unconfirmable update...
        assert result.metrics.updates_given_up >= 1
        # ...and the steady-state cycle then alarms on the ghost rule.
        assert detection.latency > spec.update_deadline
        assert not result.metrics.false_alarms
        assert result.deployment.switch("sw2").stats.installs_blackholed == 1

    def test_flowmod_blackhole_under_churn_hits_its_own_flowmod(self):
        # The blackhole must target the injected FlowMod, not whichever
        # churn FlowMod happens to reach the data plane next.
        spec = _ring4_spec(
            dynamic=True,
            duration=3.0,
            update_deadline=0.5,
            seed=3,
            workloads=(RuleChurn(rate=200.0),),
            failures=(FlowModBlackhole(at=0.3, node="sw2"),),
        )
        result = run_scenario(spec)
        assert result.metrics.all_detected
        assert not result.metrics.false_alarms
        assert result.deployment.switch("sw2").stats.installs_blackholed == 1

    def test_impossible_injection_recorded_not_raised(self):
        # Endpoint of a linear topology has a single switch-facing
        # port: corruption has no wrong port to rewire to.  The run
        # must complete, flagging the injection instead of crashing.
        spec = ScenarioSpec(
            topology="linear",
            size=3,
            duration=0.5,
            seed=5,
            rules_per_switch=4,
            dynamic=False,
            failures=(RuleCorruption(at=0.2, node="sw0", rule_index=0),),
        )
        result = run_scenario(spec)
        (detection,) = result.metrics.detections
        assert not detection.detected
        assert detection.injection.error is not None
        assert "no other port" in detection.injection.error
        assert not result.metrics.all_detected

    def test_priority_swap_detected(self):
        result = run_scenario(
            _ring4_spec(failures=(PrioritySwap(at=0.4, node="sw0"),))
        )
        (detection,) = result.metrics.detections
        assert detection.detected
        assert detection.alarm_kind == "misbehaving"
        assert not result.metrics.false_alarms

    def test_churn_confirmations_recorded(self):
        churn = RuleChurn(rate=40.0, start=0.05)
        result = run_scenario(
            _ring4_spec(dynamic=True, failures=(), workloads=(churn,))
        )
        latencies = churn.confirmation_latencies()
        assert latencies
        assert result.metrics.confirmation_latency is not None
        assert result.metrics.confirmation_latency.count == len(latencies)
        assert all(lat >= 0 for lat in latencies)

    def test_static_churn_records_no_confirmation_latency(self):
        """A static deployment sends churn fire-and-forget: nothing
        confirms an update, so none has a latency and the report
        prints no confirmation line."""
        churn = RuleChurn(rate=40.0, start=0.05)
        result = run_scenario(
            _ring4_spec(dynamic=False, failures=(), workloads=(churn,))
        )
        assert churn.records
        assert churn.confirmation_latencies() == []
        assert result.metrics.confirmation_latency is None
        report = format_fleet_report(result.metrics)
        assert "confirmation latency" not in report

    def test_background_traffic_delivered_under_monitoring(self):
        traffic = BackgroundTraffic(flows=2, rate=50.0)
        result = run_scenario(
            _ring4_spec(failures=(), workloads=(traffic,))
        )
        sent = sum(generator.seq for generator in traffic.generators)
        delivered = sum(len(sink.received) for sink in traffic.sinks)
        assert sent > 0
        # The monitored fabric still forwards production traffic.
        assert delivered > 0.9 * sent
        assert not result.metrics.false_alarms

    def test_acl_tables_do_not_false_alarm(self):
        result = run_scenario(
            _ring4_spec(
                failures=(),
                workloads=(AclTables(num_switches=2, rules_per_table=15),),
            )
        )
        assert not result.metrics.false_alarms
        # ACL rules were actually installed on the first two switches.
        assert len(result.deployment.production_rules["sw0"]) > 8


class TestLargerTopology:
    def test_ring12_multi_failure_scenario(self):
        """The acceptance scenario: >= 12 switches, every injected
        failure detected, healthy switches silent."""
        spec = ScenarioSpec(
            topology="ring",
            size=12,
            duration=2.5,
            seed=2015,
            rules_per_switch=10,
            workloads=(RuleChurn(rate=20.0),),
            failures=(
                RuleDrop(at=0.5, node="sw2", rule_index=1),
                RuleCorruption(at=1.0, node="sw8", rule_index=4),
            ),
        )
        result = run_scenario(spec)
        metrics = result.metrics
        assert len(metrics.per_switch) == 12
        assert metrics.all_detected
        assert not metrics.false_alarms
        healthy = {"sw2", "sw8"}
        for sw in metrics.per_switch:
            if sw.node not in healthy:
                assert sw.alarms == 0
            assert sw.probes_sent > 0


class TestCliRefusesBeforeTheRun:
    """A run the CLI cannot finish is refused before it starts: exit 2,
    no deployment built."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--json-out", "{missing}/x.json"], "json_out"),
            (["--trace-out", "{missing}/x.jsonl"], "trace_out"),
            (["--trace-chrome", "{missing}/x.json"], "trace_chrome"),
            (["--metrics-out", "{missing}/x.prom"], "metrics_out"),
            (["--churn", "-5"], "churn"),
            (["--traffic", "-3"], "traffic"),
            (["--drops", "-1"], "drops"),
            (["--drops", "1", "--corruptions", "-1"], "corruptions"),
            (["--link-failures", "-1"], "link_failures"),
        ],
    )
    def test_bad_output_path_or_churn_rate(
        self, argv, message, tmp_path, monkeypatch, capsys
    ):
        from repro.fleet import runner

        def never(*args, **kwargs):
            raise AssertionError("the scenario was built")

        monkeypatch.setattr(runner, "ShardWorker", never)
        missing = str(tmp_path / "no" / "such" / "dir")
        argv = [arg.format(missing=missing) for arg in argv]
        with pytest.raises(SystemExit) as exit_info:
            runner.main(["--size", "4", "--duration", "1", *argv])
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err


class TestMonitorConfigCheck:
    """A monitoring value the loop cannot run with is refused before
    anything is built: ``MonocleSystem`` (so a bare ``FleetDeployment``)
    raises ``ValueError`` and ``repro-fleet`` exits 2.  Each one used to
    crash mid-run (``ZeroDivisionError``, "cannot schedule in the past")
    or run as if it were 1."""

    @pytest.mark.parametrize(
        "name, value",
        [
            ("max_retries", -1),
            ("probe_rate", 0.0),
            ("update_probe_interval", 0.0),
            ("probe_timeout", -0.1),
            ("update_deadline", -1.0),
            ("probe_window", 0),
            ("alarm_confirmations", 0),
        ],
    )
    def test_refused_at_construction_and_by_the_cli(
        self, name, value, monkeypatch, capsys
    ):
        from repro.fleet import runner

        with pytest.raises(ValueError, match=name):
            FleetDeployment(ring(4), config=MonitorConfig(**{name: value}))

        def never(*args, **kwargs):
            raise AssertionError("the scenario was built")

        monkeypatch.setattr(runner, "ShardWorker", never)
        flag = "--" + name.replace("_", "-")
        with pytest.raises(SystemExit) as exit_info:
            runner.main(["--size", "4", "--duration", "0.5", flag, str(value)])
        assert exit_info.value.code == 2
        assert name in capsys.readouterr().err


class TestCliIsTheSpec:
    """``repro-fleet``'s flags are generated from ``ScenarioSpec``'s
    fields, ``MonitorConfig``'s included."""

    HAND_WRITTEN = {
        "--help", "--chaos", "--churn", "--traffic", "--drops",
        "--corruptions", "--link-failures", "--json-out",
    }

    def test_help_has_one_flag_per_scalar_field(self, capsys):
        from repro.fleet import runner

        with pytest.raises(SystemExit):
            runner.main(["--help"])
        listed = re.findall(
            r"^  (?:-h, )?(--[\w-]+)", capsys.readouterr().out, re.M
        )
        scalar = [
            f for f in fields(ScenarioSpec)
            if not str(f.type).startswith("tuple")
        ]
        assert {f.name for f in fields(MonitorConfig)} <= {
            f.name for f in scalar
        }
        assert len(scalar) == 24
        expected = {
            "--" + ("no-" if f.default is True else "")
            + f.name.replace("_", "-")
            for f in scalar
        }
        assert len(listed) == len(set(listed))
        assert set(listed) == expected | self.HAND_WRITTEN

    def test_no_spec_flags_parse_to_the_field_defaults(self):
        from repro.fleet import runner

        args = runner.build_parser().parse_args([])
        default = ScenarioSpec()
        for spec_field in runner.FLAG_FIELDS:
            name = spec_field.name
            assert getattr(args, name) == getattr(default, name), name

    def test_monitor_flags_reach_every_monitor(self, monkeypatch):
        from repro.fleet import runner

        results = []

        def recorded(spec):
            results.append(run_scenario(spec))
            return results[-1]

        monkeypatch.setattr(runner, "run_scenario", recorded)
        argv = [
            "--size", "4", "--duration", "0.3", "--rules-per-switch", "2",
            "--drops", "0", "--max-retries", "0",
            "--update-probe-interval", "0.01",
        ]
        assert runner.main(argv) == 0
        (result,) = results
        deployment = result.deployment
        configs = [deployment.monitor(n).config for n in deployment.nodes]
        assert len(configs) == 4
        assert {(c.max_retries, c.update_probe_interval) for c in configs} == {
            (0, 0.01)
        }


class TestReplicatedFleet:
    """Switches holding the same production rules share nothing: each
    Monitor probes from its own expected table, with its own rule
    objects, through one switch's private churn and back."""

    def test_replicas_stay_per_switch_correct_through_private_churn(self):
        from repro.core.catching import is_infrastructure
        from repro.core.probegen import verify_probe
        from repro.openflow.actions import output
        from repro.openflow.match import Match
        from repro.openflow.messages import FlowMod, FlowModCommand
        from repro.openflow.rule import Rule

        deployment = FleetDeployment(ring(4), seed=7)
        replicated = Match.build(nw_dst=0x0A000001)
        for node in deployment.nodes:
            deployment.install_production_rule(
                node, Rule(priority=100, match=replicated, actions=output(1))
            )
        deployment.start_monitoring()

        def check(expected_rules):
            cookies = set()
            for node in deployment.nodes:
                monitor = deployment.monitor(node)
                probed = [
                    rule
                    for rule in monitor.expected
                    if not is_infrastructure(rule)
                ]
                assert len(probed) == expected_rules[node]
                for rule in probed:
                    result = monitor.probe_for_rule(rule)
                    assert result.ok and result.rule is rule
                    valid, why = verify_probe(
                        monitor.expected,
                        rule,
                        result.header,
                        monitor.generator.catch_match,
                    )
                    assert valid, (node, rule, why)
                    cookies.add(rule.cookie)
                assert not monitor.alarms
            assert len(cookies) == sum(expected_rules.values())

        everywhere = dict.fromkeys(deployment.nodes, 1)
        deployment.run(0.3)
        check(everywhere)

        # One replica gets a private rule *above* the replicated one
        # and overlapping it: only its probe has to steer around it.
        victim = deployment.nodes[0]
        private = Match.build(nw_src=0xC0A80101)
        deployment.controller.send_flowmod(
            victim,
            FlowMod(
                command=FlowModCommand.ADD,
                match=private,
                priority=110,
                actions=output(2),
            ),
            confirm=deployment.confirm_mode,
        )
        deployment.run(0.4)
        check({**everywhere, victim: 2})
        steered = deployment.monitor(victim).probe_for_rule(
            deployment.monitor(victim).expected.get(100, replicated)
        )
        assert not private.matches(steered.header)

        deployment.controller.send_flowmod(
            victim,
            FlowMod(
                command=FlowModCommand.DELETE_STRICT,
                match=private,
                priority=110,
            ),
            confirm=deployment.confirm_mode,
        )
        deployment.run(0.4)
        check(everywhere)
        assert deployment.monitor(victim).probes_confirmed > 0
