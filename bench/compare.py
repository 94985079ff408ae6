"""Compare two suite result files, one row per (workload, metric).

    python3 -m bench.compare BASE/results.json CHANGE/results.json

For every metric the two files share it prints both medians with their
quartiles and sample counts and the ratio change / base.  End-to-end
metrics get a verdict against their bound in ``BENCHMARK.json``:

* ``regressed``  the change's median is worse than the base's by more
  than the bound;
* ``unresolved`` it is not, but the run-to-run spread (inter-quartile
  distance over the median, the wider of the two sides) exceeds the
  bound and the change did not win every run, so "no regression"
  cannot be told from noise;
* ``unchanged``  otherwise.

Per-layer metrics have no bound; they are marked ``identical`` when
every seed present in both files reads exactly the same (simulated
times and counts must, host times will not).  The exit code is 1 when
anything regressed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

from bench.run import load_contract, quartiles


def _load(path: Path) -> dict[tuple[str, str], dict[int, float]]:
    """(workload, metric) -> {seed: value}."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    table: dict[tuple[str, str], dict[int, float]] = {}
    for run in payload["runs"]:
        for metric, entry in run["result"]["metrics"].items():
            table.setdefault((run["workload"], metric), {})[run["seed"]] = (
                entry["value"]
            )
    return table


def verdict(
    base: list[float], change: list[float], better: str, bound: float
) -> str:
    """The end-to-end verdict described in the module docstring."""
    sign = 1.0 if better == "lower" else -1.0
    b_q1, b_med, b_q3 = quartiles(base)
    c_q1, c_med, c_q3 = quartiles(change)
    if not b_med:
        return "unresolved"
    if sign * (c_med - b_med) / abs(b_med) > bound:
        return "regressed"
    spread = max(
        (b_q3 - b_q1) / abs(b_med), (c_q3 - c_q1) / abs(c_med or b_med)
    )
    wins_every_run = max(sign * v for v in change) < min(
        sign * v for v in base
    )
    if spread > bound and not wins_every_run:
        return "unresolved"
    return "unchanged"


def compare(base_path: Path, change_path: Path) -> tuple[list[str], bool]:
    """The report lines, and whether anything regressed."""
    contract = load_contract()
    bounded: dict[str, dict[str, Any]] = {
        m["name"]: m for m in contract["end_to_end"]
    }
    base, change = _load(base_path), _load(change_path)
    lines = [
        f"{'workload':14s} {'metric':36s} {'base med [q1, q3] n':>38s} "
        f"{'change med [q1, q3] n':>38s} {'change/base':>11s}  verdict"
    ]
    regressed = False
    for key in sorted(base.keys() & change.keys()):
        workload, metric = key
        b_values = list(base[key].values())
        c_values = list(change[key].values())
        b_q1, b_med, b_q3 = quartiles(b_values)
        c_q1, c_med, c_q3 = quartiles(c_values)
        ratio = f"{c_med / b_med:.4f}" if b_med else "-"
        if metric in bounded:
            outcome = verdict(
                b_values,
                c_values,
                bounded[metric]["better"],
                bounded[metric]["bound"],
            )
            outcome += f" (bound {bounded[metric]['bound']})"
            regressed = regressed or outcome.startswith("regressed")
        else:
            shared = base[key].keys() & change[key].keys()
            same = shared and all(
                base[key][seed] == change[key][seed] for seed in shared
            )
            outcome = "identical" if same else "-"
        lines.append(
            f"{workload:14s} {metric:36s} "
            f"{f'{b_med:.6g} [{b_q1:.6g}, {b_q3:.6g}] {len(b_values)}':>38s} "
            f"{f'{c_med:.6g} [{c_q1:.6g}, {c_q3:.6g}] {len(c_values)}':>38s} "
            f"{ratio:>11s}  {outcome}"
        )
    return lines, regressed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python3 -m bench.compare",
        description="Compare two bench suite result files.",
    )
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    lines, regressed = compare(args.base, args.change)
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
