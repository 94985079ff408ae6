"""Network-wide monitoring runtime (the paper's §6 at fleet scale).

Where :mod:`repro.core.multiplexer` wires Monocle onto one network,
this package turns a *topology name* into a running, monitored,
failure-injected deployment and aggregates what happened:

* :mod:`~repro.fleet.deployment` — one sim kernel, one switch + one
  Monitor per node, catching rules installed per the coloring plan.
* :mod:`~repro.fleet.workloads` — steady-state rule populations, rule
  churn, ACL tables, background data-plane traffic.
* :mod:`~repro.fleet.failures` — rule drops, corruption, priority
  swaps, link failures, silently-ignored FlowMods, and control-message
  loss (chaos).
* :mod:`~repro.fleet.metrics` / :mod:`~repro.fleet.report` — per-switch
  and aggregate detection/overhead metrics, plain-text reports.
* :mod:`~repro.fleet.runner` — :func:`run_scenario` over a declarative
  :class:`ScenarioSpec`; also the ``repro-fleet`` console entry point.
"""

from repro.fleet.deployment import FleetDeployment
from repro.fleet.failures import (
    ChannelDegradation,
    FailureSpec,
    FailureSpecError,
    FlowModBlackhole,
    Injection,
    LinkFailure,
    PrioritySwap,
    RuleCorruption,
    RuleDrop,
    schedule_failures,
)
from repro.fleet.metrics import (
    DetectionRecord,
    FleetMetrics,
    SwitchMetrics,
    collect_fleet_metrics,
)
from repro.fleet.report import format_fleet_report
from repro.fleet.runner import (
    ScenarioError,
    ScenarioResult,
    ScenarioSpec,
    run_scenario,
)
from repro.fleet.shardworker import WorkerCrash, WorkerHang
from repro.fleet.workloads import (
    AclTables,
    BackgroundTraffic,
    RuleChurn,
    SteadyRules,
    Workload,
)

__all__ = [
    "FleetDeployment",
    "ChannelDegradation",
    "FailureSpec",
    "FailureSpecError",
    "FlowModBlackhole",
    "Injection",
    "LinkFailure",
    "PrioritySwap",
    "RuleCorruption",
    "RuleDrop",
    "schedule_failures",
    "DetectionRecord",
    "FleetMetrics",
    "SwitchMetrics",
    "collect_fleet_metrics",
    "format_fleet_report",
    "ScenarioError",
    "ScenarioResult",
    "ScenarioSpec",
    "run_scenario",
    "WorkerCrash",
    "WorkerHang",
    "AclTables",
    "BackgroundTraffic",
    "RuleChurn",
    "SteadyRules",
    "Workload",
]
