"""Monocle core: probe generation and data-plane monitoring.

* :mod:`repro.core.constraints` — the paper's Table 1 constraints
  (Hit / Distinguish / Collect) compiled to CNF, including the
  DiffOutcome = DiffPorts | DiffRewrite analysis for unicast, rewrite,
  drop, multicast and ECMP rules (§3).
* :mod:`repro.core.probegen` — the probe generator: §5.4 overlap
  filtering, SAT solving, abstract-solution decoding, §5.2 packet
  crafting, and expected-outcome computation.
* :mod:`repro.core.monitor` — the Monitor proxy: expected flow-table
  tracking, steady-state probing cycles, retries/timeouts, alarms.
* :mod:`repro.core.schedule` — the probe cycle: a delta-maintained
  :class:`ProbeScheduler` served round-robin (§3).
* :mod:`repro.core.dynamic` — reconfiguration monitoring: probing rule
  additions, modifications and deletions, queueing of overlapping
  unconfirmed updates, and rule-installation acknowledgments (§4).
* :mod:`repro.core.droppostpone` — the drop-postponing transform for
  reliable drop-rule confirmation (§4.3).
* :mod:`repro.core.catching` — network-wide catching-rule planning via
  vertex coloring, strategies 1 and 2 (§6).
* :mod:`repro.core.multiplexer` — the Multiplexer proxy fanning
  PacketOut/PacketIn between Monitors and switches (§7).
"""

from repro.core.constraints import ConstraintCompiler
from repro.core.probegen import (
    ProbeGenContext,
    ProbeGenContextStats,
    ProbeGenerator,
    ProbeResult,
    UnmonitorableReason,
    verify_probe,
)
from repro.core.monitor import Monitor, MonitorAlarm, MonitorConfig
from repro.core.schedule import ProbeScheduler, SchedulerStats
from repro.core.dynamic import DynamicMonitor, UpdateAck
from repro.core.catching import CatchingPlan, plan_catching_rules
from repro.core.droppostpone import postpone_drop_rule, DROP_TAG_TOS

__all__ = [
    "ConstraintCompiler",
    "ProbeGenContext",
    "ProbeGenContextStats",
    "ProbeGenerator",
    "ProbeResult",
    "UnmonitorableReason",
    "verify_probe",
    "Monitor",
    "MonitorAlarm",
    "MonitorConfig",
    "ProbeScheduler",
    "SchedulerStats",
    "DynamicMonitor",
    "UpdateAck",
    "CatchingPlan",
    "plan_catching_rules",
    "postpone_drop_rule",
    "DROP_TAG_TOS",
]
