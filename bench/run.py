"""``python3 -m bench``: run one workload once, or the whole suite.

One run (what the driver of ``BENCHMARK.json`` calls)::

    python3 -m bench --workload steady_fleet --seed 7 --seconds 6 --trace 0

repeats the workload until ``--seconds`` of timed work have been
measured (a few repetitions at least, each with inputs drawn from the
seed and its own set-up), checks the outputs, prints every
metric by name with its unit and, as the last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` gives
the end-to-end metrics; ``--trace 1`` runs one untraced repetition and
then traced ones, gives the per-layer metrics and writes the spans to
``<out>/trace_<workload>.json``.  The exit code is 1 when an output
check failed.

Without ``--workload`` it runs the suite: every workload ``--repeats``
times, each run a fresh interpreter with its own seed, workloads
interleaved so machine drift hits all alike; results go to
``<out>/results.json`` for ``python3 -m bench.compare``.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
#: Stop adding repetitions this long into a run, whatever --seconds
#: says: the contract allows a run 180 s in all.
WALL_CAP_S = 120.0


def load_contract() -> dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _import_workloads():
    """The program under test lives in ``src/``; nothing is installed."""
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(
            f"bench: no program to measure: {ROOT / 'src' / 'repro'} "
            "is missing"
        )
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from bench import workloads

    return workloads


def environment(seed: int, scale: float, seconds: float) -> dict[str, Any]:
    """What a reader needs to judge whether two results compare."""
    from bench.calibrate import usable_cores

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "usable_cores": usable_cores(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
        "seed": seed,
        "scale": scale,
        "seconds": seconds,
    }


def _median_op_us(slices: list[tuple[float, float, int]], raw: bool) -> float:
    index = 1 if raw else 0
    per_op = [1e6 * s[index] / s[2] for s in slices if s[2]]
    return statistics.median(per_op) if per_op else 0.0


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run_once(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: float = 1.0,
    min_reps: int | None = None,
    out: Path | None = None,
) -> dict[str, Any]:
    """One run of one workload; returns the result object plus
    ``problems`` and ``facts`` (which the JSON line leaves out)."""
    workloads = _import_workloads()
    from bench.calibrate import HostClock
    from bench.trace import Tracer

    contract = load_contract()
    started = time.perf_counter()
    workload = workloads.WORKLOADS[name](seed, scale)
    clock = HostClock()
    if min_reps is None:
        min_reps = workload.MIN_REPS
    tracer = None
    baseline = None
    if trace:
        # Every repetition of a traced run takes the inputs of index 0,
        # so traced and untraced times compare like with like and the
        # simulated results must not move at all.
        baseline = workload.rep(clock, None, 0)
        gc.collect()
        min_reps = 1
        if workload.traceable():
            tracer = Tracer()
            tracer.install()
    reps = []
    try:
        timed = 0.0
        while len(reps) < min_reps or (
            timed < seconds
            and time.perf_counter() - started < WALL_CAP_S
        ):
            rep = workload.rep(clock, tracer, 0 if trace else len(reps))
            reps.append(rep)
            timed += sum(raw for _, raw, _ in rep.slices)
            # The finished repetition's deployment is cyclic garbage;
            # collecting it now keeps it off the next set-up's bill.
            gc.collect()
    finally:
        if tracer is not None:
            tracer.uninstall()

    every = reps if baseline is None else [baseline] + reps
    problems = [p for rep in every for p in rep.problems]
    # A traced run repeats one set of inputs, so its facts must agree.
    changed = sorted(
        {
            key
            for rep in every[1:]
            for key in rep.facts
            if rep.facts[key] != every[0].facts.get(key)
        }
    ) if trace else []
    if changed:
        problems.append(
            f"facts changed between repetitions on the same inputs: {changed}"
        )
    slices = [s for rep in reps for s in rep.slices]
    op_us = _median_op_us(slices, raw=False)
    if not op_us:
        problems.append("no operation completed in the timed phase")

    if not trace:
        values = {
            "op_us": op_us,
            "setup_s": statistics.median(r.build_s + r.warm_s for r in reps),
            "peak_rss_mb": _peak_rss_mb(),
        }
        declared = contract["end_to_end"]
    else:
        assert baseline is not None
        values = {
            k: float(v)
            for k, v in every[0].facts.items()
            if isinstance(v, (int, float))
        }
        for key in {k for rep in every for k in rep.extra}:
            values[key] = statistics.median(
                rep.extra[key] for rep in every if key in rep.extra
            )
        values.update(
            {
                # Nothing was patched for a workload out of the
                # tracer's reach, so there is no overhead to report.
                "bench.trace_overhead_x": op_us
                / (_median_op_us(baseline.slices, raw=False) or op_us)
                if tracer is not None
                else 1.0,
                "bench.op_wall_us": _median_op_us(slices, raw=True),
                "bench.ref_kernel_ms": 1e3
                * statistics.median(clock.ref_samples),
                "bench.generator_s": workload.generator_s,
                "bench.reps": len(every),
                "bench.build_s": statistics.median(r.build_s for r in every),
                "bench.first_cycle_s": statistics.median(
                    r.warm_s for r in every
                ),
            }
        )
        if tracer is not None and tracer.total_s:
            values.update(_layer_budget(tracer, op_us, reps))
            if out is not None:
                out.mkdir(parents=True, exist_ok=True)
                payload = tracer.to_json()
                payload["env"] = environment(seed, scale, seconds)
                payload["workload"] = name
                path = out / f"trace_{name}.json"
                path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
        declared = contract["per_layer"]

    metrics = {
        m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
        for m in declared
    }
    return {
        "correct": not problems,
        "attempted": max(1, sum(rep.attempted for rep in every)),
        "failed": sum(rep.failed for rep in every),
        "metrics": metrics,
        "problems": problems,
        "facts": every[0].facts,
        "op_us": op_us,
        "op": workload.op,
        "reps": len(every),
    }


def _layer_budget(tracer: Any, op_us: float, reps: list) -> dict[str, float]:
    """Layer self times as normalised us per operation (they sum, with
    ``bench.unattributed_us``, to the traced run's ``op_us``), and the
    counts the wrappers made, per operation or per repetition."""
    ops = sum(s[2] for rep in reps for s in rep.slices) or 1
    per_rep = 1.0 / len(reps)
    share = op_us / tracer.total_s
    budget = {
        f"{layer}.self_us": seconds * share
        for layer, seconds in tracer.layer_self_seconds().items()
    }
    calls = tracer.calls
    budget.update(
        {
            "bench.unattributed_us": tracer.unattributed_s * share,
            "bench.trace_points_missing": len(tracer.missing),
            "packets.crafts_per_op": calls("packets", "craft_packet") / ops,
            "packets.parses_per_op": calls("packets", "parse_packet") / ops,
            "openflow.lookups": per_rep
            * calls("openflow", "FlowTable.process", "FlowTable.lookup"),
            "openflow.overlap_queries": per_rep
            * calls(
                "openflow", "FlowTable.overlapping", "FlowTable.covered_rules"
            ),
            "openflow.installs_removes": per_rep
            * calls(
                "openflow", "FlowTable.install", "FlowTable.remove",
                "FlowTable.remove_matching",
            ),
            "network.conditioner_checks": per_rep
            * calls("network", "ChannelConditioner.is_active"),
            "network.conditioner_plans": per_rep
            * calls("network", "ChannelConditioner.plan"),
            "sat.solves": per_rep * calls("sat", "SatSolver.solve"),
        }
    )
    return budget


def report(name: str, seed: int, trace: bool, result: dict[str, Any]) -> None:
    """Every metric by name with its unit, then the JSON line."""
    print(
        f"workload {name}  seed {seed}  trace {int(trace)}  "
        f"reps {result['reps']}  (one op = {result['op']})"
    )
    for metric, entry in result["metrics"].items():
        print(f"  {metric:42s} {entry['value']:>14.6g} {entry['unit']}")
    for problem in result["problems"]:
        print(f"  PROBLEM: {problem}")
    print(
        json.dumps(
            {
                key: result[key]
                for key in ("correct", "attempted", "failed", "metrics")
            }
        )
    )


# ----- the suite ------------------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_suite(args: argparse.Namespace, names: list[str]) -> int:
    """Every workload ``--repeats`` times, one interpreter per run."""
    order = list(reversed(names)) if args.reverse else names
    runs = []
    status = 0
    for repeat in range(args.repeats):
        for name in order:
            seed = args.seed + repeat
            command = [
                sys.executable, "-m", "bench",
                "--workload", name,
                "--seed", str(seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--scale", str(args.scale),
                "--out", str(args.out),
            ]
            done = subprocess.run(
                command, cwd=ROOT, capture_output=True, text=True
            )
            lines = done.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                print(done.stdout, done.stderr, sep="\n", file=sys.stderr)
                raise SystemExit(f"bench: {name} seed {seed} gave no result")
            if done.returncode or not result["correct"]:
                status = 1
                print(done.stdout, file=sys.stderr)
            runs.append(
                {"workload": name, "seed": seed, "trace": args.trace,
                 "result": result}
            )
            print(f"[{repeat + 1}/{args.repeats}] {name} seed {seed}: "
                  f"{'ok' if result['correct'] else 'INCORRECT'}", flush=True)

    args.out.mkdir(parents=True, exist_ok=True)
    payload = {
        "env": dict(
            environment(args.seed, args.scale, args.seconds),
            repeats=args.repeats,
            order=order,
        ),
        "runs": runs,
    }
    path = args.out / "results.json"
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")

    print(f"\n{'workload':14s} {'metric':34s} {'median':>12s} "
          f"{'q1':>12s} {'q3':>12s} {'iqr/med':>8s} {'n':>3s} unit")
    for name in names:
        mine = [r["result"] for r in runs if r["workload"] == name]
        for metric, entry in mine[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in mine]
            q1, q2, q3 = quartiles(values)
            spread = (q3 - q1) / q2 if q2 else 0.0
            print(f"{name:14s} {metric:34s} {q2:>12.6g} {q1:>12.6g} "
                  f"{q3:>12.6g} {spread:>8.3f} {len(values):>3d} "
                  f"{entry['unit']}")
    print(f"\nwrote {path}")
    return status


def main(argv: list[str] | None = None) -> int:
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(
        prog="python3 -m bench", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--workload", choices=names, default=None,
                        help="run this workload once (default: the suite)")
    parser.add_argument("--seed", type=int, default=2015)
    parser.add_argument("--seconds", type=float,
                        default=float(contract["run_seconds"]),
                        help="timed work to measure per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every workload (smoke tests)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="suite: runs per workload")
    parser.add_argument("--reverse", action="store_true",
                        help="suite: reversed workload order")
    parser.add_argument("--out", type=Path, default=Path(".bench_out"),
                        help="where traces and suite results go")
    args = parser.parse_args(argv)

    args.out = args.out.resolve()
    if args.workload is None:
        return run_suite(args, names)
    result = run_once(
        args.workload, args.seed, args.seconds, bool(args.trace),
        scale=args.scale, out=args.out,
    )
    report(args.workload, args.seed, bool(args.trace), result)
    return 0 if result["correct"] else 1
