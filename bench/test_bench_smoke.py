"""Smoke test of the benchmark itself (not part of tier-1's testpaths).

    python3 -m pytest bench -q

Runs every workload shrunk to ``--scale 0.05``, one repetition per run,
and checks what the harness promises: every declared metric comes out
with its unit, simulated results repeat exactly for a seed and change
with it, the tracer's layer self times close on the traced total, and
uninstalling the tracer puts every attribute back.
"""

from __future__ import annotations

import importlib

import pytest

from bench.run import load_contract, run_once

SCALE = 0.05
CONTRACT = load_contract()
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


def _run(name: str, seed: int, trace: bool) -> dict:
    return run_once(name, seed, seconds=0.0, trace=trace, scale=SCALE,
                    min_reps=1)


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request) -> dict:
    name = request.param
    return {
        "name": name,
        "first": _run(name, 11, False),
        "again": _run(name, 11, False),
        "other": _run(name, 12, False),
        "traced": _run(name, 11, True),
    }


def test_outputs_are_correct(runs):
    for key in ("first", "again", "other", "traced"):
        result = runs[key]
        assert result["correct"], result["problems"]
        assert result["failed"] == 0
        assert result["attempted"] >= 1


def test_every_declared_metric_is_emitted_with_its_unit(runs):
    for key, declared in (
        ("first", CONTRACT["end_to_end"]),
        ("traced", CONTRACT["per_layer"]),
    ):
        metrics = runs[key]["metrics"]
        assert list(metrics) == [m["name"] for m in declared]
        for m in declared:
            assert metrics[m["name"]]["unit"] == m["unit"]
            assert isinstance(metrics[m["name"]]["value"], (int, float))
    for entry in runs["first"]["metrics"].values():
        assert entry["value"] > 0  # end-to-end metrics are never 0


def test_simulated_results_repeat_for_a_seed_and_change_with_it(runs):
    assert runs["first"]["facts"] == runs["again"]["facts"]
    assert runs["first"]["facts"] == runs["traced"]["facts"]
    assert runs["first"]["facts"] != runs["other"]["facts"]


def test_layer_self_times_close_on_the_traced_total(runs):
    if runs["name"] == "churn_sharded":
        pytest.skip("worker processes are out of the tracer's reach")
    metrics = runs["traced"]["metrics"]
    budget = sum(
        entry["value"]
        for name, entry in metrics.items()
        if name.endswith(".self_us")
    ) + metrics["bench.unattributed_us"]["value"]
    assert budget == pytest.approx(runs["traced"]["op_us"], rel=0.02)
    assert metrics["bench.trace_points_missing"]["value"] == 0


def test_acl_probegen_stays_out_of_the_simulator(runs):
    if runs["name"] != "acl_probegen":
        pytest.skip("only acl_probegen bypasses the simulator")
    metrics = runs["traced"]["metrics"]
    for layer in ("sim", "switches", "network", "core.monitor",
                  "core.multiplexer", "core.dynamic"):
        assert metrics[f"{layer}.self_us"]["value"] == 0


def test_uninstall_restores_every_patched_attribute():
    from bench.trace import ENTRY_POINTS, Tracer

    def snapshot() -> dict:
        seen = {}
        for targets in ENTRY_POINTS.values():
            for target in targets:
                module_name, _, path = target.partition(":")
                owner = importlib.import_module(module_name)
                owner_name, _, attr = path.rpartition(".")
                if owner_name:
                    owner = getattr(owner, owner_name)
                seen[target] = owner.__dict__[attr]
        # By-name imports of module functions are patched too.
        switch = importlib.import_module("repro.switches.switch")
        seen["switch.parse_packet"] = switch.parse_packet
        seen["switch.craft_packet"] = switch.craft_packet
        return seen

    before = snapshot()
    tracer = Tracer()
    tracer.install()
    patched = snapshot()
    tracer.uninstall()
    assert not tracer.missing
    assert all(patched[key] is not before[key] for key in before)
    assert snapshot() == before
