"""Plain-text reporting for fleet scenarios."""

from __future__ import annotations

from typing import Any

from repro.analysis import format_table
from repro.fleet.metrics import FAMILY, FleetMetrics
from repro.obs.metrics import window_rates


def format_fleet_report(metrics: FleetMetrics) -> str:
    """Render per-switch and aggregate fleet metrics as text tables."""
    lines: list[str] = []

    rows = [
        [
            repr(m.node),
            m.rules_installed,
            m.probes_sent,
            f"{m.probe_rate(metrics.duration):.0f}",
            m.probes_confirmed,
            m.probes_timed_out,
            m.alarms,
            m.packetouts_processed,
            m.packetins_sent,
        ]
        for m in metrics.per_switch
    ]
    lines.append(
        format_table(
            [
                "switch",
                "rules",
                "probes",
                "probes/s",
                "confirmed",
                "timed out",
                "alarms",
                "PacketOut",
                "PacketIn",
            ],
            rows,
        )
    )

    if metrics.detections:
        lines.append("")
        lines.append("injected failures:")
        rows = []
        for record in metrics.detections:
            injection = record.injection
            if record.detected:
                status = (
                    f"{record.latency:.3f}s on {record.detected_on!r}"
                    f" ({record.alarm_kind})"
                )
            elif injection.error is not None:
                status = "INJECTION FAILED"
            elif injection.chaos:
                # Substrate chaos has nothing to detect; the monitor's
                # job is to ride it out without false alarms.
                status = "CHAOS"
            else:
                status = "NOT DETECTED"
            rows.append(
                [injection.kind, f"{injection.time:.3f}", status,
                 injection.description]
            )
        lines.append(format_table(["kind", "t", "detection", "detail"], rows))

    lines.append("")
    lines.append(
        f"aggregate: {metrics.probes_sent} probes "
        f"({metrics.probes_sent / metrics.duration:.0f}/s fleet-wide), "
        f"{metrics.probes_confirmed} confirmed, "
        f"{metrics.probes_routed} routed by the multiplexer, "
        f"{metrics.probes_unroutable} unroutable"
    )
    lines.append(
        f"overhead: {metrics.packetout_total} PacketOuts, "
        f"{metrics.packetin_total} PacketIns across the fleet"
    )
    served = (
        metrics.probes_generated
        + metrics.probe_cache_hits
        + metrics.probe_revalidations
    )
    if served:
        # No wall-clock numbers here: reports must be byte-identical
        # across runs of the same seed (determinism checks diff them).
        lines.append(
            f"probe generation: {metrics.probes_generated} generated, "
            f"{metrics.probe_cache_hits} cache hits, "
            f"{metrics.probe_revalidations} revalidations "
            f"({100.0 * (served - metrics.probes_generated) / served:.0f}% "
            "served without generating)"
        )
    if metrics.per_switch:
        # Counters only (no wall-clock): determinism checks diff reports.
        lines.append(
            f"scheduling: {metrics.cycle_rebuilds} cycle builds for "
            f"{len(metrics.per_switch)} switches"
        )
    if metrics.workers > 1:
        lines.append(
            f"sharding: {metrics.workers} workers, "
            f"{metrics.cut_links} cut links"
        )
    if metrics.updates_confirmed or metrics.updates_given_up:
        lines.append(
            f"updates: {metrics.updates_confirmed} confirmed, "
            f"{metrics.updates_given_up} given up"
        )
    if metrics.confirmation_latency is not None:
        s = metrics.confirmation_latency
        lines.append(
            "confirmation latency: "
            f"n={s.count} mean={s.mean * 1000:.1f}ms "
            f"median={s.median * 1000:.1f}ms p95={s.p95 * 1000:.1f}ms "
            f"max={s.maximum * 1000:.1f}ms"
        )
    if metrics.alarms_suppressed:
        lines.append(
            f"resilience: {metrics.alarms_suppressed} alarms suppressed "
            "by hysteresis"
        )
    if metrics.probe_window > 1:
        lines.append(
            f"pipelining: window {metrics.probe_window}, "
            f"peak depth {metrics.window_peak}"
        )
    if metrics.worker_restarts or metrics.shards_failed:
        lines.append(
            f"self-healing: {metrics.worker_restarts} worker restarts, "
            f"{metrics.shards_failed} shards failed "
            f"[{', '.join(metrics.shard_status)}]"
        )
    faults = [d for d in metrics.detections if not d.injection.chaos]
    detected = sum(1 for d in faults if d.detected)
    lines.append(
        f"detection: {detected}/{len(faults)} injected failures "
        f"detected, {len(metrics.false_alarms)} false alarms"
    )

    timeline_section = _format_timeline(metrics.obs_snapshots)
    if timeline_section:
        lines.append("")
        lines.extend(timeline_section)
    return "\n".join(lines)


def _format_timeline(snapshots: list[dict[str, Any]]) -> list[str]:
    """Sim-time-windowed rates from the observer's metric snapshots.

    Empty when observability was off (or only one snapshot exists —
    rates need a window).  All values derive from sim-time counters,
    so the section is as deterministic as the rest of the report.
    """
    if len(snapshots) < 2:
        return []
    probes = dict(window_rates(snapshots, FAMILY["probes_sent"]))
    alarms = dict(window_rates(snapshots, FAMILY["alarms"]))
    solves = dict(window_rates(snapshots, FAMILY["probes_generated"]))
    hits = dict(window_rates(snapshots, FAMILY["probe_cache_hits"]))
    rows = []
    for ts in sorted(probes):
        solve_rate = solves.get(ts, 0.0)
        hit_rate = hits.get(ts, 0.0)
        served = solve_rate + hit_rate
        ratio = f"{hit_rate / served:.2f}" if served > 0 else "-"
        rows.append(
            [
                f"{ts:.2f}",
                f"{probes.get(ts, 0.0):.0f}",
                f"{alarms.get(ts, 0.0):.1f}",
                f"{solve_rate:.1f}",
                ratio,
            ]
        )
    return [
        "timeline (sim-time windowed rates from obs snapshots):",
        format_table(
            ["t", "probes/s", "alarms/s", "solves/s", "cache-hit"],
            rows,
        ),
    ]
