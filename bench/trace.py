"""Wall-clock spans per layer, recorded from the benchmark's side.

Nothing under ``src/`` knows about this module.  :class:`Tracer`
replaces, for the length of one traced run, the public entry points of
each layer (class attributes, and module functions in every ``repro.*``
namespace that imported them by name) with wrappers that record a span:
layer, function, start, end, parent.  Work the sim kernel dispatches
never crosses a public entry point on its way in, so ``Simulator.
schedule``/``at`` additionally wrap each scheduled callback in a span
of the layer whose module *defined* the callback — a renamed private
callback keeps its attribution.

A span's self time is its duration minus its child spans.  Spans only
open inside :meth:`Tracer.timed`, whose own span is the root, so the
layer self times plus the root's self time (``bench.unattributed``) sum
to the traced total exactly.  Aggregates (calls / total / self per
function) cover every span; full spans are kept for the first
``span_cap`` only.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
from time import perf_counter
from typing import Any, Callable, Iterator

#: layer -> entry points, ``module:function`` or ``module:Class.method``.
#: Names a refactor removed are skipped and counted (``missing``), so a
#: later change to ``src/`` cannot break the benchmark it is judged by.
ENTRY_POINTS: dict[str, tuple[str, ...]] = {
    "sim": (
        "repro.sim.kernel:Simulator.run",
        "repro.sim.kernel:Simulator.schedule",
        "repro.sim.kernel:Simulator.at",
    ),
    "packets": (
        "repro.packets.craft:craft_packet",
        "repro.packets.craft:normalize_abstract_header",
        "repro.packets.craft:wire_visible_items",
        "repro.packets.parse:parse_packet",
        "repro.packets.payload:ProbeMetadata.encode",
        "repro.packets.payload:ProbeMetadata.decode",
    ),
    "openflow": (
        "repro.openflow.table:FlowTable.process",
        "repro.openflow.table:FlowTable.lookup",
        "repro.openflow.table:FlowTable.install",
        "repro.openflow.table:FlowTable.remove",
        "repro.openflow.table:FlowTable.remove_matching",
        "repro.openflow.table:FlowTable.overlapping",
        "repro.openflow.table:FlowTable.covered_rules",
        "repro.openflow.table:FlowTable.copy",
    ),
    "switches": (
        "repro.switches.switch:SimulatedSwitch.receive_message",
        "repro.switches.switch:SimulatedSwitch.inject",
        "repro.switches.switch:SimulatedSwitch.install_directly",
        "repro.switches.switch:SimulatedSwitch.deliver_to_controller_port",
        "repro.switches.switch:SimulatedSwitch.fail_rule_in_dataplane",
        "repro.switches.switch:SimulatedSwitch.corrupt_rule_in_dataplane",
        "repro.switches.switch:apply_flowmod",
    ),
    "network": (
        "repro.network.channel:ControlChannel.send_down",
        "repro.network.channel:ControlChannel.send_up",
        "repro.network.link:Link.send_from_a",
        "repro.network.link:Link.send_from_b",
        "repro.network.conditioning:ChannelConditioner.is_active",
        "repro.network.conditioning:ChannelConditioner.plan",
        "repro.network.network:Network.upstream_options",
    ),
    "core.monitor": (
        "repro.core.monitor:Monitor.from_controller",
        "repro.core.monitor:Monitor.from_switch",
        "repro.core.monitor:Monitor.handle_caught_probe",
        "repro.core.monitor:Monitor.launch_probe",
        "repro.core.monitor:Monitor.probe_for_rule",
        "repro.core.monitor:Monitor.observe_flowmod",
        "repro.core.monitor:Monitor.preinstall",
        "repro.core.monitor:Monitor.invalidate_probe",
        "repro.core.monitor:Monitor.note_suspect",
        "repro.core.monitor:Monitor.start_steady_state",
    ),
    "core.multiplexer": (
        "repro.core.multiplexer:Multiplexer.inject",
        "repro.core.multiplexer:Multiplexer.route_packet_in",
        "repro.core.multiplexer:MonocleSystem.send_to_switch",
        "repro.core.multiplexer:MonocleSystem.preinstall_production_rule",
    ),
    "core.schedule": (
        "repro.core.schedule:ProbeScheduler.next_rule",
        "repro.core.schedule:ProbeScheduler.next_rules",
        "repro.core.schedule:ProbeScheduler.observe_flowmod",
        "repro.core.schedule:ProbeScheduler.add",
        "repro.core.schedule:ProbeScheduler.discard",
        "repro.core.schedule:ProbeScheduler.touch",
        "repro.core.schedule:ProbeScheduler.rebuild",
        "repro.core.schedule:ProbeScheduler.note_update",
        "repro.core.schedule:ProbeScheduler.record_alarm",
        "repro.core.schedule:ProbeScheduler.take_wait",
    ),
    "core.dynamic": (
        "repro.core.dynamic:DynamicMonitor.from_controller",
    ),
    "core.probegen": (
        "repro.core.probegen:ProbeGenerator.generate",
        "repro.core.probegen:ProbeGenContext.probe_for",
        "repro.core.probegen:ProbeGenContext.apply_flowmod",
        "repro.core.probegen:ProbeGenContext.add_rule",
        "repro.core.probegen:ProbeGenContext.remove_rule",
        "repro.core.probegen:ProbeGenContext.fork",
        "repro.core.probegen:ProbeGenContext.merge_cache_from",
        "repro.core.shared:SharedProbeGenContext.probe_for",
        "repro.core.shared:SharedProbeGenContext.apply_flowmod",
        "repro.core.shared:SharedProbeGenContext.add_rule",
        "repro.core.shared:SharedProbeGenContext.remove_rule",
        "repro.core.shared:SharedContextRegistry.acquire",
        "repro.core.shared:SharedContextRegistry.rededupe",
    ),
    "sat": (
        "repro.sat.solver:SatSolver.__init__",
        "repro.sat.solver:SatSolver.solve",
        "repro.sat.incremental:IncrementalSolver.solve",
        "repro.sat.incremental:IncrementalSolver.compact",
    ),
    "obs": (
        "repro.obs.observer:NullObserver.emit",
        "repro.obs.observer:NullObserver.next_span",
        "repro.obs.observer:NullObserver.install",
        "repro.obs.observer:NullObserver.snapshot_now",
    ),
    "fleet": (
        "repro.controller.controller:SdnController.send_flowmod",
        "repro.controller.controller:SdnController.handle_message",
        "repro.fleet.failures:inject_now",
        "repro.fleet.deployment:FleetDeployment.install_production_rule",
    ),
}

#: Module prefix -> layer, for callbacks the sim kernel dispatches.
#: Longest prefix wins.
MODULE_LAYERS: dict[str, str] = {
    "repro.sim": "sim",
    "repro.packets": "packets",
    "repro.openflow": "openflow",
    "repro.switches": "switches",
    "repro.network": "network",
    "repro.core.monitor": "core.monitor",
    "repro.core.multiplexer": "core.multiplexer",
    "repro.core.schedule": "core.schedule",
    "repro.core.dynamic": "core.dynamic",
    "repro.core.droppostpone": "core.dynamic",
    "repro.core": "core.probegen",
    "repro.sat": "sat",
    "repro.obs": "obs",
    "repro.fleet": "fleet",
    "repro.controller": "fleet",
}

LAYERS: tuple[str, ...] = tuple(ENTRY_POINTS)

_TRACED = "__bench_traced__"


def timed(tracer: "Tracer | None") -> contextlib.AbstractContextManager:
    """The tracer's root span, or nothing for an untraced run."""
    return tracer.timed() if tracer is not None else contextlib.nullcontext()


def layer_of_module(module: str | None) -> str | None:
    """The layer a ``repro.*`` module belongs to (None outside them)."""
    while module:
        layer = MODULE_LAYERS.get(module)
        if layer is not None:
            return layer
        module = module.rpartition(".")[0]
    return None


class Tracer:
    """Install, record, aggregate, uninstall."""

    def __init__(self, span_cap: int = 2000) -> None:
        self.span_cap = span_cap
        #: (layer, function) -> [calls, total seconds, self seconds]
        self.stats: dict[tuple[str, str], list] = {}
        #: [layer, function, start, end, parent index] for early spans.
        self.spans: list[list] = []
        self.total_s = 0.0
        self.unattributed_s = 0.0
        self.missing: list[str] = []
        self.on = False
        #: Open frames: [child seconds so far, span index or -1].
        self._stack: list[list] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self._callback_stats: dict[Any, tuple[str, str, list]] = {}

    # ----- recording ------------------------------------------------------

    def _open(self, layer: str, name: str) -> list:
        frame = [0.0, -1]
        spans = self.spans
        if len(spans) < self.span_cap:
            frame[1] = len(spans)
            spans.append([layer, name, 0.0, 0.0, self._stack[-1][1]])
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, stat: list, start: float) -> None:
        end = perf_counter()
        stack = self._stack
        stack.pop()
        elapsed = end - start
        stat[0] += 1
        stat[1] += elapsed
        stat[2] += elapsed - frame[0]
        stack[-1][0] += elapsed
        if frame[1] >= 0:
            span = self.spans[frame[1]]
            span[2] = start
            span[3] = end

    def _wrap(self, fn: Callable, layer: str, name: str) -> Callable:
        stat = self.stats.setdefault((layer, name), [0, 0.0, 0.0])
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.on:
                return fn(*args, **kwargs)
            frame = tracer._open(layer, name)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(frame, stat, start)

        setattr(wrapper, _TRACED, True)
        return wrapper

    def _bind_callback(self, action: Callable) -> Callable:
        """Give a scheduled callback a span of its defining layer."""
        func = getattr(action, "__func__", action)
        if getattr(func, _TRACED, False):
            return action
        code = getattr(func, "__code__", None)
        known = self._callback_stats.get(code)
        if known is None:
            layer = layer_of_module(getattr(func, "__module__", None))
            if layer is None or code is None:
                return action
            name = getattr(func, "__qualname__", repr(func))
            stat = self.stats.setdefault((layer, name), [0, 0.0, 0.0])
            known = self._callback_stats[code] = (layer, name, stat)
        layer, name, stat = known
        tracer = self

        def callback() -> None:
            if not tracer.on:
                action()
                return
            frame = tracer._open(layer, name)
            start = perf_counter()
            try:
                action()
            finally:
                tracer._close(frame, stat, start)

        return callback

    def _wrap_scheduler(self, fn: Callable, name: str) -> Callable:
        """``Simulator.schedule``/``at``: a sim span that also binds the
        callback it is handed."""
        traced = self._wrap(fn, "sim", name)
        tracer = self

        @functools.wraps(fn)
        def scheduler(sim: Any, *args: Any, **kwargs: Any) -> Any:
            if tracer.on:
                if "action" in kwargs:
                    kwargs["action"] = tracer._bind_callback(
                        kwargs["action"]
                    )
                elif len(args) == 2:
                    args = (args[0], tracer._bind_callback(args[1]))
            return traced(sim, *args, **kwargs)

        setattr(scheduler, _TRACED, True)
        return scheduler

    @contextlib.contextmanager
    def timed(self) -> Iterator[None]:
        """The root span: one stretch of the timed phase."""
        if self.on:
            raise RuntimeError("Tracer.timed() is not reentrant")
        root = [0.0, -1]
        self._stack.append(root)
        self.on = True
        start = perf_counter()
        try:
            yield
        finally:
            elapsed = perf_counter() - start
            self.on = False
            self._stack.pop()
            self.total_s += elapsed
            self.unattributed_s += elapsed - root[0]

    # ----- patching -------------------------------------------------------

    def _patch(self, owner: Any, attr: str, original: Any, new: Any) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Patch every entry point that still exists."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer, targets in ENTRY_POINTS.items():
            for target in targets:
                module_name, _, path = target.partition(":")
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    self.missing.append(target)
                    continue
                owner_name, _, attr = path.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name \
                    else module
                raw = getattr(owner, "__dict__", {}).get(attr)
                if raw is None:
                    self.missing.append(target)
                    continue
                self._install_one(layer, owner, attr, raw, path)

    def _install_one(
        self, layer: str, owner: Any, attr: str, raw: Any, name: str
    ) -> None:
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped: Any = type(raw)(self._wrap(raw.__func__, layer, name))
        elif layer == "sim" and attr in ("schedule", "at"):
            wrapped = self._wrap_scheduler(raw, name)
        else:
            wrapped = self._wrap(raw, layer, name)
        self._patch(owner, attr, raw, wrapped)
        if isinstance(owner, type):
            return
        # A module function: rebind every by-name import of it too.
        for module_name, module in list(sys.modules.items()):
            if module is owner or module is None:
                continue
            if not module_name.startswith("repro"):
                continue
            for alias, value in list(vars(module).items()):
                if value is raw:
                    self._patch(module, alias, raw, wrapped)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ----- results --------------------------------------------------------

    def calls(self, layer: str, *names: str) -> int:
        """Calls recorded for the named functions of a layer."""
        return sum(
            self.stats.get((layer, name), (0,))[0] for name in names
        )

    def layer_self_seconds(self) -> dict[str, float]:
        """Self time per layer (every layer present, zero if idle)."""
        out = {layer: 0.0 for layer in LAYERS}
        for (layer, _name), stat in self.stats.items():
            out[layer] = out.get(layer, 0.0) + stat[2]
        return out

    def to_json(self) -> dict[str, Any]:
        functions = [
            {
                "layer": layer,
                "function": name,
                "calls": stat[0],
                "total_s": stat[1],
                "self_s": stat[2],
            }
            for (layer, name), stat in sorted(
                self.stats.items(), key=lambda item: -item[1][2]
            )
            if stat[0]
        ]
        return {
            "total_s": self.total_s,
            "unattributed_s": self.unattributed_s,
            "layer_self_s": self.layer_self_seconds(),
            "missing_entry_points": self.missing,
            "functions": functions,
            "spans": [
                {
                    "layer": layer,
                    "function": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                }
                for layer, name, start, end, parent in self.spans
            ],
        }
