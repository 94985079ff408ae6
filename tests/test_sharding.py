"""Tests for the sharded multi-process fleet runtime.

Two layers:

* unit — shard planning (locality, cut edges, clamping);
* end-to-end — the determinism pin (a partitionable scenario produces
  a byte-identical alarm timeline at ``workers=4`` and ``workers=1``),
  worker-count parity on a failure that crosses the cut (every owning
  shard arms it, so the merged run equals the in-process one), and the
  one-shard case running in the calling process.
"""

from dataclasses import replace

import networkx as nx
import pytest

from repro.fleet.failures import LinkFailure, RuleDrop
from repro.fleet.metrics import metric_series
from repro.fleet.runner import (
    ScenarioError,
    ScenarioSpec,
    main,
    run_scenario,
)
from repro.fleet.shardworker import WorkerCrash
from repro.fleet.sharding import plan_shards
from repro.obs.metrics import prometheus_text
from repro.topology.generators import islands, linear
from test_scenario_properties import check_worker_parity


class TestShardPlan:
    def test_locality_on_islands_cuts_nothing(self):
        graph = islands(16, island=4)
        plan = plan_shards(graph, 4)
        assert plan.workers == 4
        assert not plan.cut_edges
        assert [len(shard) for shard in plan.shards] == [4, 4, 4, 4]
        # Each shard is one island: connected in the original graph.
        for shard in plan.shards:
            assert nx.is_connected(graph.subgraph(shard))

    def test_locality_on_linear_cuts_one_link_per_boundary(self):
        plan = plan_shards(linear(8), 2)
        assert len(plan.cut_edges) == 1

    def test_owner_is_consistent_with_shards(self):
        plan = plan_shards(linear(6), 2)
        for index, shard in enumerate(plan.shards):
            for node in shard:
                assert plan.owner(node) == index

    def test_workers_clamped_to_node_count(self):
        plan = plan_shards(linear(3), 8)
        assert plan.workers == 3

    def test_plans_are_deterministic(self):
        first = plan_shards(islands(16, island=4), 3)
        second = plan_shards(islands(16, island=4), 3)
        assert first.shards == second.shards
        assert first.cut_edges == second.cut_edges


def _pure_spec(**overrides):
    """Two islands of 8 switches — partitionable along island lines."""
    spec = ScenarioSpec(
        topology="islands",
        size=16,
        duration=1.0,
        seed=7,
        rules_per_switch=6,
        probe_rate=200.0,
        failures=(
            RuleDrop(at=0.3, node="isl00_sw1", rule_index=2),
            RuleDrop(at=0.4, node="isl01_sw2", rule_index=1),
        ),
    )
    return replace(spec, **overrides) if overrides else spec


class TestShardedScenarios:
    def test_determinism_pin_workers4_matches_workers1(self):
        """The headline invariant: on a partitionable scenario the
        sharded runtime's alarm timeline is byte-identical to the
        in-process run, whatever the worker count."""
        baseline = run_scenario(_pure_spec())
        sharded = run_scenario(_pure_spec(workers=4))
        b, s = baseline.metrics, sharded.metrics
        assert s.alarm_timeline == b.alarm_timeline
        assert s.probes_sent == b.probes_sent
        assert s.probes_confirmed == b.probes_confirmed
        assert s.probes_routed == b.probes_routed
        assert s.false_alarms == b.false_alarms
        assert [d.detected_at for d in s.detections] == [
            d.detected_at for d in b.detections
        ]
        # Four workers split each 8-switch island in two, so links
        # cross the cut — and the timeline STILL matches: single-node
        # failures have one owner and probe transit never crosses the
        # process boundary.
        assert s.workers == 4 and s.cut_links > 0

    def test_pipelined_window_survives_sharding(self):
        """PR 10 pin: a 4-deep probe window changes the timeline (the
        cycle speeds up) but sharding must not change it further —
        ``workers=2, probe_window=4`` is byte-identical to
        ``workers=1, probe_window=4``."""
        baseline = run_scenario(_pure_spec(probe_window=4))
        sharded = run_scenario(_pure_spec(probe_window=4, workers=2))
        b, s = baseline.metrics, sharded.metrics
        assert s.alarm_timeline == b.alarm_timeline
        assert s.probes_sent == b.probes_sent
        assert s.probes_confirmed == b.probes_confirmed
        assert not s.false_alarms and not b.false_alarms
        # The window actually engaged on both sides of the comparison.
        assert b.window_peak == s.window_peak == 4

    def test_workers2_pure_partition_is_barrier_free(self):
        baseline = run_scenario(_pure_spec())
        sharded = run_scenario(_pure_spec(workers=2))
        s = sharded.metrics
        assert s.alarm_timeline == baseline.metrics.alarm_timeline
        # Two workers on two islands: the cut is empty.
        assert s.cut_links == 0

    @pytest.mark.parametrize("workers", [2, 3])
    def test_cut_crossing_failure_matches_one_process(self, workers):
        """ROADMAP direction 1(d) on a fault that spans the cut: both
        adjacent shards arm the link failure at its own time, so
        nothing lands late and the merged run equals the in-process
        one."""
        spec = ScenarioSpec(
            topology="linear",
            size=6,
            duration=1.2,
            seed=11,
            rules_per_switch=6,
            probe_rate=200.0,
            failures=(LinkFailure(at=0.4, u="sw2", v="sw3"),),
        )
        sharded = check_worker_parity(spec, workers)
        assert sharded.cut_links >= 1
        (record,) = sharded.detections
        # The merged injection record spans the cut: both endpoints'
        # nodes and cookies were unioned by the coordinator.
        assert record.detected
        assert {"sw2", "sw3"} <= set(record.injection.nodes)

    def test_detection_tie_across_the_cut_names_the_same_switch(self):
        """``sw6`` and ``sw7`` live in different shards and both alarm
        at 0.555 s: the merge names ``sw6``, as one process does (it
        scans switches in ``repr`` order), not the lower shard's."""
        spec = ScenarioSpec(
            topology="ring",
            size=8,
            duration=1.2,
            seed=3,
            rules_per_switch=6,
            probe_rate=200.0,
            failures=(LinkFailure(at=0.4, u="sw6", v="sw7"),),
        )
        (record,) = check_worker_parity(spec, workers=2).detections
        assert record.detected_on == "sw6"

    def test_workers1_runs_in_process_with_live_handles(self):
        result = run_scenario(_pure_spec(workers=1))
        assert result.deployment is not None
        assert result.observer is result.deployment.obs
        assert result.metrics.workers == 1

    def test_plan_clamped_to_one_shard_runs_in_process(self):
        """More workers than switches: the one-shard plan runs in the
        calling process, where worker chaos hooks have no process to
        bite."""
        result = run_scenario(
            ScenarioSpec(
                topology="linear",
                size=1,
                duration=0.5,
                rules_per_switch=4,
                workers=4,
                chaos=(WorkerCrash(shard=0),),
            )
        )
        assert result.deployment is not None
        assert result.metrics.workers == 1
        assert len(result.metrics.per_switch) == 1
        assert result.restarts == 0 and not result.degraded

    def test_sharded_report_renders(self):
        from repro.fleet.report import format_fleet_report

        result = run_scenario(_pure_spec(workers=2))
        report = format_fleet_report(result.metrics)
        assert "sharding: 2 workers" in report

    def test_sharded_json_export_roundtrips(self):
        import json

        result = run_scenario(_pure_spec(workers=2))
        payload = json.loads(json.dumps(result.metrics.to_json()))
        assert payload["aggregates"]["workers"] == 2
        assert "barriers" not in payload["aggregates"]
        assert "gossip_digests_published" not in payload["aggregates"]
        assert "gossip_entries_shipped" not in payload["aggregates"]

    def test_metrics_out_at_two_workers_writes_the_merged_exposition(
        self, tmp_path
    ):
        """The exposition is rendered from the merged bundle: both
        shards' switches, and on a pure partition every counter equal
        to the in-process run's."""
        texts = {}
        for workers in (1, 2):
            path = tmp_path / f"metrics_{workers}.prom"
            spec = _pure_spec(workers=workers, metrics_out=str(path))
            merged = run_scenario(spec).metrics
            texts[workers] = path.read_text(encoding="utf-8")
        assert texts[2] == prometheus_text(
            metric_series(merged.per_switch, merged.detections)
        )
        assert "monocle_detection_latency_seconds_count 2" in texts[2]
        counters = {
            workers: [
                line
                for line in text.splitlines()
                if line.partition("{")[0].endswith("_total")
            ]
            for workers, text in texts.items()
        }
        assert len(counters[2]) == 13 * 16  # 13 families, 16 switches
        assert counters[1] == counters[2]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_unbuildable_spec_is_a_scenario_error(self, workers, capsys):
        """300 switches with no coloring outgrow the reserved dl_vlan
        range: a usage error (exit 2) whether the deployment is built in
        this process or in a worker, not a worker traceback."""
        spec = ScenarioSpec(
            topology="ring",
            size=300,
            algorithm="none",
            rules_per_switch=4,
            duration=0.1,
            workers=workers,
        )
        with pytest.raises(ScenarioError, match="exceed dl_vlan capacity"):
            run_scenario(spec)
        argv = (
            "--topology ring --size 300 --algorithm none "
            "--rules-per-switch 4 "
            f"--duration 0.1 --drops 0 --workers {workers}"
        ).split()
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "exceed dl_vlan capacity" in capsys.readouterr().err
