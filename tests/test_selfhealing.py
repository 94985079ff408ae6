"""Tests for the self-healing shard coordinator: crash/hang detection,
deterministic rebuild-and-rerun respawn, restart budgets and degraded
completion, plus the ``workers="auto"`` resolution and the chaos CLI
parsers."""

import argparse
from dataclasses import replace

import pytest

from repro.fleet.report import format_fleet_report
from repro.fleet.runner import (
    ScenarioError,
    ScenarioSpec,
    _chaos_arg,
    _workers_arg,
    main,
    run_scenario,
)
from repro.fleet.failures import RuleDrop
from repro.fleet.shardworker import WorkerCrash, WorkerHang


def _shard_spec(**overrides):
    """A small sharded run with one real fault and a cross-shard cut."""
    spec = ScenarioSpec(
        topology="ring",
        size=8,
        duration=0.8,
        seed=5,
        rules_per_switch=4,
        probe_rate=200.0,
        workers=2,
        worker_timeout=30.0,
        failures=(RuleDrop(at=0.3, node="sw0", rule_index=1),),
    )
    return replace(spec, **overrides)


class TestSelfHealing:
    def test_crash_recovery_replays_to_identical_timeline(self):
        clean = run_scenario(_shard_spec())
        crashed = run_scenario(
            _shard_spec(chaos=(WorkerCrash(shard=0, at=0.3),))
        )
        assert crashed.restarts == 1
        assert not crashed.degraded
        assert crashed.metrics.worker_restarts == 1
        assert crashed.metrics.shards_failed == 0
        assert crashed.metrics.shard_status == ["restarted x1", "ok"]
        # The respawned worker rebuilt the shard from its deterministic
        # seed and ran it again: nothing observable changed.
        assert (
            crashed.metrics.alarm_timeline == clean.metrics.alarm_timeline
        )
        assert crashed.metrics.all_detected

    def test_crash_before_any_window_recovers(self):
        clean = run_scenario(_shard_spec())
        crashed = run_scenario(
            _shard_spec(chaos=(WorkerCrash(shard=1, at=0.0),))
        )
        assert crashed.restarts == 1
        assert not crashed.degraded
        assert (
            crashed.metrics.alarm_timeline == clean.metrics.alarm_timeline
        )

    def test_hang_detected_and_recovered(self):
        clean = run_scenario(_shard_spec())
        hung = run_scenario(
            _shard_spec(
                chaos=(WorkerHang(shard=0, at=0.3),),
                worker_timeout=1.5,
            )
        )
        assert hung.restarts >= 1
        assert not hung.degraded
        assert (
            hung.metrics.alarm_timeline == clean.metrics.alarm_timeline
        )

    def test_exhausted_budget_degrades_instead_of_aborting(self):
        # incarnation=None re-kills every respawn; with a budget of 1
        # the shard is marked failed and the survivors finish the run.
        result = run_scenario(
            _shard_spec(
                failures=(RuleDrop(at=0.3, node="sw5", rule_index=1),),
                chaos=(
                    WorkerCrash(shard=0, at=0.3, incarnation=None),
                ),
                max_worker_restarts=1,
            )
        )
        assert result.degraded
        assert result.restarts == 1
        assert result.metrics.shards_failed == 1
        assert result.metrics.shard_status[0] == "failed"
        # The fault lives on the surviving shard: still detected.
        assert result.metrics.all_detected
        report = format_fleet_report(result.metrics)
        assert "self-healing" in report


class TestChaosValidation:
    def test_chaos_requires_sharded_run(self):
        with pytest.raises(ScenarioError):
            ScenarioSpec(
                topology="ring",
                size=4,
                duration=0.5,
                chaos=(WorkerCrash(shard=0),),
            ).validate()

    def test_unknown_hook_kind_rejected(self):
        with pytest.raises(ScenarioError):
            ScenarioSpec(
                topology="ring",
                size=4,
                duration=0.5,
                workers=2,
                chaos=("explode",),
            ).validate()

    def test_negative_shard_rejected(self):
        with pytest.raises(ScenarioError):
            ScenarioSpec(
                topology="ring",
                size=4,
                duration=0.5,
                workers=2,
                chaos=(WorkerCrash(shard=-1),),
            ).validate()

    @pytest.mark.parametrize(
        "chaos",
        [
            "kill:5@0",  # ring-6 on two workers has shards 0 and 1
            "kill:0@7",  # nothing runs at or past the duration
            "hang:0@0.6",
            "kill:0@-0.1",
        ],
    )
    def test_hook_that_can_never_fire_is_refused(self, chaos, capsys):
        """A usage error (exit 2) before anything is built, not a run
        that silently skips its chaos."""
        argv = (
            "--topology ring --size 6 --duration 0.6 --rules-per-switch 4 "
            f"--probe-rate 200 --drops 1 --workers 2 --chaos {chaos}"
        ).split()
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "chaos hook" in capsys.readouterr().err

    def test_resilience_knob_bounds(self):
        base = dict(topology="ring", size=4, duration=0.5)
        with pytest.raises(ScenarioError):
            ScenarioSpec(**base, alarm_confirmations=0).validate()
        with pytest.raises(ScenarioError):
            ScenarioSpec(**base, max_worker_restarts=-1).validate()
        with pytest.raises(ScenarioError):
            ScenarioSpec(**base, worker_timeout=0.0).validate()


class TestAutoWorkers:
    def test_auto_resolves_to_affinity_mask(self, monkeypatch):
        import repro.fleet.runner as runner

        monkeypatch.setattr(
            runner.os, "sched_getaffinity", lambda pid: {0, 1, 2}
        )
        spec = ScenarioSpec(
            topology="ring", size=6, duration=0.5, workers="auto"
        )
        spec.validate()
        assert spec.resolved_workers() == 3

    def test_auto_on_single_cpu_runs_in_process(self, monkeypatch):
        import repro.fleet.runner as runner

        monkeypatch.setattr(
            runner.os, "sched_getaffinity", lambda pid: {0}
        )
        result = run_scenario(
            ScenarioSpec(
                topology="ring",
                size=4,
                duration=0.3,
                rules_per_switch=2,
                probe_rate=100.0,
                workers="auto",
            )
        )
        # Resolved to one worker: the shard runs in this process, which
        # keeps the deployment around for inspection.
        assert result.deployment is not None

    def test_explicit_int_workers_unchanged(self):
        spec = ScenarioSpec(
            topology="ring", size=4, duration=0.5, workers=4
        )
        assert spec.resolved_workers() == 4


class TestChaosCli:
    def test_workers_arg(self):
        assert _workers_arg("auto") == "auto"
        assert _workers_arg("4") == 4
        with pytest.raises(argparse.ArgumentTypeError):
            _workers_arg("many")

    def test_chaos_arg_kill_with_window(self):
        hook = _chaos_arg("kill:0@0.5")
        assert isinstance(hook, WorkerCrash)
        assert hook.shard == 0
        assert hook.at == 0.5

    def test_chaos_arg_hang_defaults_window(self):
        hook = _chaos_arg("hang:2")
        assert isinstance(hook, WorkerHang)
        assert hook.shard == 2
        assert hook.at == 0.0

    def test_chaos_arg_rejects_garbage(self):
        with pytest.raises(argparse.ArgumentTypeError):
            _chaos_arg("explode:0")
        with pytest.raises(argparse.ArgumentTypeError):
            _chaos_arg("kill:zero")
        with pytest.raises(argparse.ArgumentTypeError):
            _chaos_arg("kill:0@soon")


class TestRandomVictimDeterminism:
    def test_random_victim_identical_across_worker_counts(self):
        # rule_index=None draws the victim from the spec-indexed
        # stream, which depends only on (seed, spec position) — not on
        # which process injects it or what else consumed fleet draws.
        spec = ScenarioSpec(
            topology="ring",
            size=8,
            duration=0.8,
            seed=11,
            rules_per_switch=4,
            probe_rate=200.0,
            failures=(RuleDrop(at=0.3, node="sw1", rule_index=None),),
        )
        solo = run_scenario(spec)
        sharded = run_scenario(replace(spec, workers=2))
        # Cookies are process-local counters, so compare the victim by
        # its injection description (node + match) and by the merged
        # alarm timeline, both of which are worker-count-invariant.
        descriptions = [
            record.injection.description
            for record in (
                solo.metrics.detections + sharded.metrics.detections
            )
        ]
        assert descriptions[0] == descriptions[1]
        assert "drop" in descriptions[0]
        assert (
            solo.metrics.alarm_timeline == sharded.metrics.alarm_timeline
        )
        assert solo.metrics.alarm_timeline
