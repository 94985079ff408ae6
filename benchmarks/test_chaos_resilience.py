"""Benchmark: monitoring quality under substrate chaos.

Monocle's detection gates (fig. 4 family) run on a *clean* control
plane; this benchmark re-runs the detection experiment on a degraded
one and pins that the robustness layer keeps the answer honest in both
directions:

* **Loss sweep** — a ring fleet with real rule-drop faults, whose
  control channels lose 1%–30% of their probe traffic (both
  directions, applied after rule installation) via
  :class:`~repro.fleet.failures.ChannelDegradation`.  Two defense
  lines show up in the data: at 1–5% the Monitor's built-in probe
  retries absorb every loss before a single spurious timeout
  surfaces; at 20–30% retries saturate and the alarm hysteresis
  (``alarm_confirmations``) must suppress the resulting strike storm.
  The gates: every real fault detected in every arm, **zero**
  loss-caused false alarms, median detection latency within
  ``LATENCY_FACTOR`` of the loss-free arm, and the burst arms must
  show the chaos actually bit (more probe traffic than baseline) and
  the hysteresis actually worked (more suppressions than baseline).
  All arms run the same monitor config, so the comparison isolates
  the channel, not the hysteresis overhead.

* **Worker recovery** — a sharded run (cut links) whose shard-0
  worker is killed at simulated t = 0.3 via
  :class:`~repro.fleet.shardworker.WorkerCrash`.  The self-healing
  coordinator must respawn the shard and run it again from its seed: the
  merged alarm timeline must be **byte-identical** to an uncrashed
  run, with ``restarts >= 1`` and no
  :class:`~repro.fleet.coordinator.ShardRunError`.

Writes ``BENCH_chaos.json``.  Everything here is seed-deterministic —
the loss pattern, the strikes, the crash, the rerun — so the gates
are exact asserts, not statistical bounds.
"""

from __future__ import annotations

import statistics
from dataclasses import replace

from benchmarks.conftest import print_header, write_bench_artifact
from repro.fleet.failures import ChannelDegradation, RuleDrop
from repro.fleet.runner import ScenarioSpec, run_scenario
from repro.fleet.shardworker import WorkerCrash

LOSS_ARMS = (0.0, 0.01, 0.05, 0.2, 0.3)
#: Loss levels where retries saturate and strikes reach the
#: hysteresis layer (used for the "chaos actually bit" gates).
BURST_ARMS = (0.2, 0.3)
#: Missing-probe strikes before an alarm; 3 keeps even the 30% arm
#: free of false alarms (P[k consecutive strikes] ~ p_strike^k).
CONFIRMATIONS = 3
LATENCY_FACTOR = 2.0
SEED_ARMS = 3
SWITCHES = 8


def _loss_spec(seed: int, loss: float, scale: float) -> ScenarioSpec:
    """One detection run: two real faults on a lossy control plane."""
    nodes = [f"sw{i}" for i in range(SWITCHES)]
    duration = max(2.0, 2.0 * scale)
    chaos_failures = tuple(
        # Both directions lose traffic: probe PacketOuts vanish on the
        # way down (a guaranteed spurious timeout) and PacketIn
        # observations on the way up.  The degradation starts *after*
        # the steady rules are installed, so lost FlowMods do not
        # manufacture real discrepancies — this arm measures probe
        # loss, exactly what the hysteresis is for.
        ChannelDegradation(at=duration * 0.1, node=node, loss=loss)
        for node in nodes
        if loss > 0.0
    )
    faults = (
        RuleDrop(at=duration * 0.3, node="sw1", rule_index=1),
        RuleDrop(at=duration * 0.55, node="sw5", rule_index=3),
    )
    return ScenarioSpec(
        topology="ring",
        size=SWITCHES,
        duration=duration,
        seed=seed,
        rules_per_switch=6,
        probe_rate=100.0,
        alarm_confirmations=CONFIRMATIONS,
        failures=chaos_failures + faults,
    )


def test_chaos_resilience(scale: float, seed: int) -> None:
    print_header(
        "Chaos resilience: detection quality on degraded substrates"
    )

    # ----- arm 1: probe-loss sweep ------------------------------------
    arms: dict[str, dict] = {}
    medians: dict[float, float] = {}
    suppressed_by_loss: dict[float, int] = {}
    probes_by_loss: dict[float, int] = {}
    for loss in LOSS_ARMS:
        latencies: list[float] = []
        false_alarms = 0
        suppressed = 0
        probes = 0
        faults = 0
        detected = 0
        for offset in range(SEED_ARMS):
            result = run_scenario(_loss_spec(seed + offset, loss, scale))
            metrics = result.metrics
            false_alarms += len(metrics.false_alarms)
            suppressed += metrics.alarms_suppressed
            probes += metrics.probes_sent
            for record in metrics.detections:
                if record.injection.chaos:
                    continue
                faults += 1
                if record.detected:
                    detected += 1
                    latencies.append(record.latency)
        median = statistics.median(latencies) if latencies else float("inf")
        medians[loss] = median
        suppressed_by_loss[loss] = suppressed
        probes_by_loss[loss] = probes
        arms[f"loss_{loss:g}"] = {
            "loss": loss,
            "faults": faults,
            "detected": detected,
            "false_alarms": false_alarms,
            "alarms_suppressed": suppressed,
            "probes_sent": probes,
            "median_latency_s": median,
        }
        print(
            f"  loss {100 * loss:4.1f}%: {detected}/{faults} faults "
            f"detected, {false_alarms} false alarms, "
            f"{suppressed} suppressed, {probes} probes, "
            f"median latency {median:.3f}s"
        )
        assert detected == faults, (
            f"loss {loss:g}: only {detected}/{faults} real faults "
            "detected through the degraded channel"
        )
        assert false_alarms == 0, (
            f"loss {loss:g}: {false_alarms} loss-caused false alarms "
            "leaked past the hysteresis"
        )

    baseline = medians[0.0]
    for loss in LOSS_ARMS[1:]:
        assert medians[loss] <= LATENCY_FACTOR * baseline, (
            f"loss {loss:g}: median detection latency "
            f"{medians[loss]:.3f}s exceeds {LATENCY_FACTOR}x the "
            f"loss-free arm ({baseline:.3f}s)"
        )
    for loss in BURST_ARMS:
        # The burst arms must prove the chaos was real, not that the
        # conditioner silently no-opped: losses force retry traffic
        # (more probe injections) and strikes the hysteresis ate.
        assert probes_by_loss[loss] > probes_by_loss[0.0], (
            f"loss {loss:g}: no extra probe traffic — the degradation "
            "never bit"
        )
        assert suppressed_by_loss[loss] > suppressed_by_loss[0.0], (
            f"loss {loss:g}: no suppressed strikes beyond baseline — "
            "the hysteresis was never exercised"
        )

    # ----- arm 2: worker crash + deterministic rerun ------------------
    shard_spec = ScenarioSpec(
        topology="ring",
        size=SWITCHES,
        duration=max(1.0, 1.0 * scale),
        seed=seed,
        rules_per_switch=6,
        probe_rate=100.0,
        workers=2,
        worker_timeout=30.0,
        failures=(RuleDrop(at=0.3, node="sw0", rule_index=1),),
    )
    clean = run_scenario(shard_spec)
    crashed = run_scenario(
        replace(shard_spec, chaos=(WorkerCrash(shard=0, at=0.3),))
    )
    identical = (
        crashed.metrics.alarm_timeline == clean.metrics.alarm_timeline
    )
    arms["recovery"] = {
        "restarts": crashed.restarts,
        "degraded": crashed.degraded,
        "shard_status": crashed.metrics.shard_status,
        "timeline_events": len(crashed.metrics.alarm_timeline),
        "timeline_identical": identical,
    }
    print(
        f"  recovery: {crashed.restarts} restarts, "
        f"degraded={crashed.degraded}, "
        f"timeline identical={identical} "
        f"({len(crashed.metrics.alarm_timeline)} events)"
    )
    assert crashed.restarts >= 1, "the crash hook never fired"
    assert not crashed.degraded, "recovery burned the whole budget"
    assert identical, (
        "post-respawn alarm timeline diverged from the uncrashed run — "
        "the deterministic rerun is broken"
    )

    write_bench_artifact(
        "chaos",
        {
            "confirmations": CONFIRMATIONS,
            "latency_factor_gate": LATENCY_FACTOR,
            "arms": arms,
        },
    )
